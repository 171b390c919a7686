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
// The pool holds no sweep config: each submit() names its unit's
// config and each unit frame carries it, so one pool serves any number of
// studies (qhdl_serve keeps one for its life).
//
// Determinism: the supervisor draws every unit's RNG streams in FLOPs
// order (unit_scheduler.cpp) and ships them in the unit frame; workers
// re-derive datasets/splits from the shipped sweep config; results commit
// in FLOPs order within each search. A multi-process sweep is therefore
// byte-identical to an in-process one (pinned by the worker-pool golden
// test), regardless of worker count, scheduling, crashes, or retries that
// eventually succeed. A unit lives in exactly one place, the queue or one
// slot; it is never duplicated, only re-dispatched once its slot is gone.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "search/worker_protocol.hpp"

namespace qhdl::util {
class Cli;
}

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
  /// jittered exponential, initial * 2^(failures-1) capped at 5 s, then
  /// drawn from [base/2, base] with backoff_with_jitter_ms (seeded — the
  /// schedule is reproducible under the fault matrix).
  std::uint64_t backoff_initial_ms = 100;

  // --- distributed mode (DESIGN.md §16) ---------------------------------
  /// Expected remote worker registrations. 0 keeps the pool purely local;
  /// > 0 makes it listen on listen_host:listen_port for qhdl_worker
  /// daemons and keeps this many units in flight. Local workers
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
};

/// Supervisor health counters (monotonic over the pool's lifetime).
struct WorkerPoolStats {
  std::size_t restarts = 0;           ///< worker processes respawned
  std::size_t retried_units = 0;      ///< units that needed >= 1 retry
  std::size_t quarantined_units = 0;  ///< units that exhausted all retries
  /// Units re-dispatched after a lost worker connection.
  std::size_t steals = 0;
  std::size_t remote_registered = 0;  ///< remote registrations accepted
  std::size_t remote_lost = 0;        ///< remote connections lost
  std::size_t handshake_rejects = 0;  ///< connections dropped pre-register
};

class WorkerPool {
 public:
  /// Local mode validates spawning immediately: one worker is started (then
  /// the rest) before the constructor returns. If no worker can be spawned
  /// the pool comes up degraded — units run in-process — with the
  /// reason in degraded_reason(); construction never throws for spawn
  /// problems. Distributed mode (remote_workers > 0) binds the listener in
  /// the constructor and degrades along the chain remote -> local workers ->
  /// in-process as deadlines expire, each step logged.
  explicit WorkerPool(WorkerPoolConfig pool_config);
  /// Ignores `config`. Kept only because perfbench/src/serve_mixed.cpp
  /// times a spawn through this signature, and perfbench/ changes only
  /// together with the benchmark definition; nothing else may call it.
  [[deprecated("use WorkerPool(WorkerPoolConfig)")]] WorkerPool(
      const SweepConfig&, WorkerPoolConfig pool_config)
      : WorkerPool(std::move(pool_config)) {}
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Reports one submitted unit exactly once: its result, or the exception
  /// that ended it (util::Interrupted, pool destruction). Runs on a pool
  /// thread with no pool lock held.
  using UnitDone =
      std::function<void(CandidateResult result, std::exception_ptr error)>;

  /// Queues one unit of sweep `config` and returns at once; `done` reports
  /// it. Workers get a copy with search.threads = 1, which never changes a
  /// result. Thread-safe: concurrent searches and studies share the pool,
  /// and their units interleave on the workers. A unit is dispatched to one
  /// worker at a time. When a cooperative shutdown arrives, every pending
  /// unit is reported with util::Interrupted (after every live worker is
  /// sent a shutdown frame).
  void submit(const SweepConfig& config, WorkUnit unit, UnitDone done);

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

/// Declares the worker-fleet options every pool-using program shares:
/// --workers (help text `workers_help`), --unit-timeout, --worker-retries,
/// --listen, --workers-remote, --handshake-timeout.
void add_worker_pool_options(util::Cli& cli, const std::string& workers_help);

/// The WorkerPoolConfig those options describe, or nullopt when neither
/// --workers nor --workers-remote asks for a pool. Throws
/// std::invalid_argument on a malformed --listen.
std::optional<WorkerPoolConfig> worker_pool_config_from_cli(
    const util::Cli& cli);

/// The pool those options describe (null when they ask for none); prints
/// the address daemons dial and, on stderr, why a pool came up degraded.
std::unique_ptr<WorkerPool> start_worker_pool(const util::Cli& cli);

/// Closing report lines on the pool's health counters ("" if all zero).
std::string worker_pool_report(const WorkerPool& pool);

}  // namespace qhdl::search
