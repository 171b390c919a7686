// Supervised multi-process study execution (DESIGN.md §11, §16).
//
// WorkerPool shards candidate evaluations across crash-isolated workers
// speaking the length-prefixed JSON protocol of worker_protocol.hpp. Every
// worker is one stream socket that enters through the same `register` ->
// `init` -> `ready` handshake: a re-exec of the current binary in
// --worker-mode, spawned with one end of a socketpair as its stdin and
// stdout, or a remote qhdl_worker daemon's TCP connection to the pool's
// listener (remote_workers > 0). The pool keeps one fact per slot — does it
// own the process? — and that alone decides what a lost worker costs: an
// owned child is respawned in place and its death charges the unit's retry
// budget; a lost connection is erased and its unit re-dispatched uncharged.
// The supervisor:
//
//   * enforces a per-unit wall-clock deadline and heartbeat liveness, and
//     SIGKILLs a worker that exceeds either;
//   * reaps workers killed by signals (segfault, OOM killer, external
//     kill -9) and workers that emit corrupt frames;
//   * retries the failed unit — with the SAME shipped RNG streams, so a
//     successful retry is bit-identical to a never-failed run — up to
//     `unit_retries` times, respawning workers with exponential backoff;
//   * quarantines a unit whose every attempt failed through the same
//     failure path PR 4 uses for non-finite training runs (runs = 0,
//     cause "worker:<reason>"), so one poisoned unit can never abort or
//     bias the sweep;
//   * degrades gracefully to in-process execution — at construction when
//     workers cannot be spawned at all, or mid-run when respawns keep
//     failing — with the reason logged and queryable.
//
// Determinism: the supervisor pre-splits every unit's RNG streams in FLOPs
// order (grid_search.cpp) and ships them in the unit frame; workers
// re-derive datasets/splits from the sweep config; results merge back in
// submission order. A multi-process sweep is therefore byte-identical to an
// in-process one (pinned by the worker-pool golden test), regardless of
// worker count, scheduling, crashes, or retries that eventually succeed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "search/worker_protocol.hpp"

namespace qhdl::search {

struct WorkerPoolConfig {
  /// Number of worker processes (>= 1).
  std::size_t workers = 2;
  /// Worker argv; empty means re-exec the current binary with
  /// `--worker-mode` appended (util::current_executable_path()).
  std::vector<std::string> worker_command;
  /// Extra "KEY=value" environment entries for workers (override inherited
  /// values). Tests use this to arm fault injection in workers only.
  std::vector<std::string> worker_env;
  /// Thread width inside each worker (its runs_per_model parallelism).
  std::size_t worker_threads = 1;
  /// Wall-clock budget per unit attempt in ms; 0 = no deadline.
  std::uint64_t unit_timeout_ms = 0;
  /// Cadence at which a busy worker emits heartbeat frames.
  std::uint64_t heartbeat_interval_ms = 250;
  /// A busy worker silent for this long is presumed wedged and killed.
  std::uint64_t heartbeat_timeout_ms = 10000;
  /// Failed attempts allowed per unit beyond the first; a unit is
  /// quarantined after 1 + unit_retries failed attempts.
  std::size_t unit_retries = 2;
  /// Respawn backoff after consecutive failures of one worker slot:
  /// jittered exponential, initial * 2^(failures-1) capped at max, then
  /// drawn from [base/2, base] with backoff_with_jitter_ms (seeded — the
  /// schedule is reproducible under the fault matrix).
  std::uint64_t backoff_initial_ms = 100;
  std::uint64_t backoff_max_ms = 5000;
  /// Seed for the jittered backoff draw (worker slot index is the salt).
  std::uint64_t backoff_jitter_seed = 0x71686a69ULL;

  // --- distributed mode (DESIGN.md §16) ---------------------------------
  /// Expected remote worker registrations. 0 keeps the pool purely local;
  /// > 0 makes it listen on listen_host:listen_port for qhdl_worker
  /// daemons and widens the dispatch window to this count. Local workers
  /// are only spawned as a fallback when no daemon registers (or the whole
  /// fleet is lost) within handshake_timeout_ms.
  std::size_t remote_workers = 0;
  std::string listen_host = "127.0.0.1";
  /// 0 binds an ephemeral port; query it with WorkerPool::listen_port().
  std::uint16_t listen_port = 0;
  /// Registration deadline: per worker, spawned or accepted (its register
  /// frame must arrive within it), and for the fleet as a whole before the
  /// pool falls back to local workers.
  std::uint64_t handshake_timeout_ms = 5000;
  /// Straggler work-stealing: an idle worker duplicates a unit that has
  /// been in flight longer than this (first result wins; replicas are
  /// byte-identical by construction). 0 disables stealing — orphaned-unit
  /// re-dispatch on transport loss is always on.
  std::uint64_t steal_after_ms = 0;
};

/// Supervisor health counters (monotonic over the pool's lifetime).
struct WorkerPoolStats {
  std::size_t restarts = 0;           ///< worker processes respawned
  std::size_t retried_units = 0;      ///< units that needed >= 1 retry
  std::size_t quarantined_units = 0;  ///< units that exhausted all retries
  std::size_t steals = 0;             ///< units re-dispatched or duplicated
  std::size_t remote_registered = 0;  ///< remote registrations accepted
  std::size_t remote_lost = 0;        ///< remote connections lost
  std::size_t handshake_rejects = 0;  ///< connections dropped pre-register
};

class WorkerPool {
 public:
  /// Local mode validates spawning immediately: one worker is started (then
  /// the rest) before the constructor returns. If no worker can be spawned
  /// the pool comes up degraded — evaluate() runs in-process — with the
  /// reason in degraded_reason(); construction never throws for spawn
  /// problems. Distributed mode (remote_workers > 0) binds the listener in
  /// the constructor and degrades along the chain remote -> local workers ->
  /// in-process as deadlines expire, each step logged.
  WorkerPool(SweepConfig config, WorkerPoolConfig pool_config);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Evaluates the units, blocking until all have a result (in submission
  /// order). Thread-safe: concurrent sweep levels share the pool, and their
  /// units interleave on the workers. Throws util::Interrupted when a
  /// cooperative shutdown arrives while units are pending (after sending
  /// every live worker a shutdown frame).
  std::vector<CandidateResult> evaluate(std::vector<WorkUnit> units);

  /// True when the pool executes in-process (spawn failure at construction
  /// or persistent respawn failure mid-run).
  bool degraded() const;
  std::string degraded_reason() const;

  /// Current dispatch width: the wider of the live slot count and the
  /// configured worker target (remote_workers when listening, workers
  /// otherwise). Also the dispatch width in degraded mode.
  std::size_t worker_count() const;

  /// Bound port when listening for remote workers, 0 otherwise. Lets a
  /// caller bind an ephemeral port and then tell daemons where to connect.
  std::uint16_t listen_port() const;

  WorkerPoolStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qhdl::search
