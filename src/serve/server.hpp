// qhdl_serve: a long-running study/train service over TCP (DESIGN.md §15).
//
// Architecture: one accept thread, one detached-lifetime connection thread
// per client, and a small pool of executor threads draining a *bounded*
// admission queue. Robustness is structural, not incidental:
//
//   * Load shedding — a full queue (or connection table) answers
//     {"type":"rejected","reason":"overloaded"} immediately instead of
//     queueing without bound; the shed is counted and visible in `stats`.
//   * Per-job deadlines — `job_timeout_ms` arms a util::Deadline on the
//     job's CancelToken; the compute layer polls it at every unit
//     dispatch and the client receives {"type":"cancelled"}.
//   * Client-disconnect detection — the connection thread polls its socket
//     while the job is pending; EOF cancels the orphaned job so executor
//     slots are never burned for an absent client.
//   * Graceful drain — request_drain() (wired to SIGTERM in qhdl_serve)
//     stops accepting, lets in-flight jobs finish, rejects queued-but-
//     unstarted ones with reason "draining", and flushes the result cache.
//   * Worker-crash tolerance — with `pool_workers > 0` study jobs share
//     one server-lifetime WorkerPool (kill/respawn, retry, quarantine,
//     backoff); its counters are the server's pool_* stats.
//
// Results are memoized in a content-addressed ResultCache keyed by the
// sweep-config hash: a repeated study replays its units byte-identically,
// and a cancelled job's completed units survive for the retry.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "search/worker_pool.hpp"
#include "serve/result_cache.hpp"
#include "util/json.hpp"

namespace qhdl::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back with port()
  /// Executor threads (concurrent jobs).
  std::size_t executors = 1;
  /// Jobs allowed to wait beyond the executing ones; admission beyond this
  /// is shed with "rejected: overloaded".
  std::size_t max_queue = 8;
  /// Concurrent connections; beyond this new clients are shed immediately.
  std::size_t max_connections = 64;
  /// Per-job wall-clock budget in ms (0 = none).
  std::uint64_t job_timeout_ms = 0;
  /// Budget for reading one request frame off a connection.
  std::uint64_t read_timeout_ms = 5000;
  /// Result cache: spill directory ("" = memory-only) and LRU capacity.
  std::string cache_dir;
  std::size_t cache_capacity = 8;
  /// Worker processes per executor (0 = in-process execution), in one
  /// WorkerPool of executors x pool_workers slots that the first study job
  /// builds and stop() destroys: a server that has run no study has no
  /// children. Pool knobs ride in `pool`, whose `workers` is replaced by
  /// pool_workers when > 0; `pool.remote_workers > 0` makes the pool listen
  /// once, on pool.listen_host:listen_port, for qhdl_worker daemons. A pool
  /// that degrades to in-process execution stays degraded.
  std::size_t pool_workers = 0;
  search::WorkerPoolConfig pool;
};

/// Counters behind the `stats` request. Monotonic since server start.
struct ServerStats {
  std::size_t accepted = 0;
  std::size_t accept_failures = 0;
  std::size_t rejected_overloaded = 0;
  std::size_t rejected_draining = 0;
  std::size_t jobs_completed = 0;
  std::size_t jobs_failed = 0;
  std::size_t jobs_cancelled = 0;
  std::size_t deadlines_expired = 0;
  std::size_t client_disconnects = 0;
  std::size_t protocol_errors = 0;
  std::size_t read_timeouts = 0;
  std::size_t progress_frames = 0;  ///< streaming progress frames written
  // The server's worker pool counters (0 until a study job builds it).
  std::size_t pool_restarts = 0;
  std::size_t pool_retried_units = 0;
  std::size_t pool_quarantined_units = 0;
  std::size_t pool_steals = 0;
  ResultCacheStats cache;

  util::Json to_json() const;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();  ///< stop()s if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept/executor threads. Throws
  /// std::runtime_error when the socket cannot be bound.
  void start();

  /// The bound port (valid after start(); resolves port 0).
  std::uint16_t port() const;

  /// Stops accepting and rejects jobs that have not started yet;
  /// in-flight jobs keep running. Idempotent, async-signal-unsafe (call
  /// from a signal *watcher*, not a handler).
  void request_drain();

  /// Full graceful shutdown: request_drain(), join all threads (in-flight
  /// jobs finish first), stop the worker pool's workers, flush the result
  /// cache. Idempotent.
  void stop();

  ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qhdl::serve
