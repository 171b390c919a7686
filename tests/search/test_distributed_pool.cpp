// Distributed worker fleet (DESIGN.md §16).
//
// The golden property is the PR-5 one, extended across hosts: a sweep
// sharded over TCP worker daemons is byte-identical to the in-process
// sweep — including when a daemon is SIGKILLed mid-run, refuses the first
// connect, has its connection reset or partitioned, or never shows up at
// all (the pool falls back to local pipe workers). Replicas and retries
// reuse the exact shipped RNG streams, and results commit in submission
// order, so scheduling can never leak into the bytes.
//
// These tests spawn REAL daemon processes: the shared test main dispatches
// --worker-connect to search::remote_worker_main, so this binary is its own
// qhdl_worker.
#include "search/worker_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "search/results.hpp"
#include "search/worker_protocol.hpp"
#include "util/deadline.hpp"
#include "util/fault_injection.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace qhdl::search {
namespace {

/// Same shape as the worker-pool tests: every candidate is evaluated
/// (threshold unreachable), so the unit count is deterministic.
SweepConfig sweep_config(std::size_t max_candidates = 3) {
  SweepConfig config = core::test_scale();
  config.search.runs_per_model = 2;
  config.search.repetitions = 1;
  config.search.train.epochs = 2;
  config.search.max_candidates = max_candidates;
  config.search.prune_margin = 0.0;
  config.search.accuracy_threshold = 1.1;
  config.search.run_retries = 1;
  config.search.threads = 2;
  return config;
}

std::string sweep_bytes(const SweepConfig& config, WorkerPool* pool) {
  return sweep_to_json(
             run_complexity_sweep(Family::Classical, config, nullptr, pool))
      .dump(2);
}

bool distributed_supported() {
  return util::subprocess_supported() && util::sockets_supported();
}

/// Launches this binary as a remote worker daemon against 127.0.0.1:port.
util::Subprocess spawn_daemon(std::uint16_t port, std::size_t slots,
                              const std::vector<std::string>& extra_env = {}) {
  return util::Subprocess::spawn(
      {util::current_executable_path(), "--worker-connect",
       "127.0.0.1:" + std::to_string(port), "--worker-slots",
       std::to_string(slots)},
      extra_env);
}

/// Polls `pred` until it holds or `timeout_ms` elapses.
bool eventually(const std::function<bool()>& pred,
                std::uint64_t timeout_ms = 10000) {
  const util::Deadline deadline = util::Deadline::after_ms(timeout_ms);
  while (!deadline.expired()) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

bool wait_for_registrations(WorkerPool& pool, std::size_t count) {
  return eventually(
      [&] { return pool.stats().remote_registered >= count; });
}

WorkerPoolConfig distributed_config(std::size_t remote_workers) {
  WorkerPoolConfig pool_config;
  pool_config.remote_workers = remote_workers;
  pool_config.listen_port = 0;  // ephemeral; daemons learn it afterwards
  pool_config.backoff_initial_ms = 50;
  return pool_config;
}

// --- protocol pieces ------------------------------------------------------

TEST(DistributedProtocol, RegistrationRoundTrips) {
  WorkerRegistration registration;
  registration.backend = "avx2";
  registration.slots = 4;
  registration.slot = 2;
  registration.pid = 4242;
  const WorkerRegistration back =
      registration_from_json(registration_to_json(registration));
  EXPECT_EQ(back.version, kWorkerProtocolVersion);
  EXPECT_EQ(back.backend, "avx2");
  EXPECT_EQ(back.slots, 4u);
  EXPECT_EQ(back.slot, 2u);
  EXPECT_EQ(back.pid, 4242);
}

// Every numeric field is peer-sent: out-of-range, negative or fractional
// values are a ProtocolError, never a blind cast.
TEST(DistributedProtocol, RegistrationRejectsOutOfRangeNumbers) {
  WorkerRegistration registration;
  registration.backend = "generic";
  registration.slots = 2;
  registration.slot = 1;
  registration.pid = 4242;
  const util::Json valid = registration_to_json(registration);
  ASSERT_NO_THROW(registration_from_json(valid));
  const std::vector<std::pair<std::string, util::Json>> bad = {
      {"version", util::Json{1e300}}, {"version", util::Json{2.5}},
      {"slots", util::Json{-3}},      {"slots", util::Json{1e20}},
      {"slot", util::Json{2.5}},      {"slot", util::Json{-1}},
      {"slot", util::Json{2}},  // not below the slot count
      {"pid", util::Json{1e300}},     {"pid", util::Json{0.5}},
  };
  for (const auto& [field, value] : bad) {
    util::Json frame = valid;
    frame[field] = value;
    EXPECT_THROW(registration_from_json(frame), ProtocolError)
        << field << "=" << value.dump();
  }
}

TEST(DistributedProtocol, BackoffJitterIsDeterministicAndBounded) {
  // Pure function of its inputs: the reconnect schedule is reproducible.
  EXPECT_EQ(backoff_with_jitter_ms(100, 5000, 3, 7, 1),
            backoff_with_jitter_ms(100, 5000, 3, 7, 1));
  for (std::size_t failures = 1; failures <= 12; ++failures) {
    const std::uint64_t base =
        std::min<std::uint64_t>(5000, 100ull << (failures - 1));
    const std::uint64_t delay =
        backoff_with_jitter_ms(100, 5000, failures, 7, 1);
    EXPECT_GE(delay, base / 2) << "failures=" << failures;
    EXPECT_LE(delay, base) << "failures=" << failures;
  }
  // Different salts (slot indexes) must spread: a healed partition should
  // not produce a synchronized reconnect storm.
  bool spread = false;
  for (std::uint64_t salt = 1; salt < 8 && !spread; ++salt) {
    spread = backoff_with_jitter_ms(1000, 5000, 4, 7, salt) !=
             backoff_with_jitter_ms(1000, 5000, 4, 7, 0);
  }
  EXPECT_TRUE(spread);
}

TEST(DistributedProtocol, ParseHostPortAcceptsAndRejects) {
  std::string host;
  std::uint16_t port = 0;
  EXPECT_TRUE(parse_host_port("127.0.0.1:7401", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7401);
  EXPECT_FALSE(parse_host_port("no-port-here", &host, &port));
  EXPECT_FALSE(parse_host_port("host:", &host, &port));
  EXPECT_FALSE(parse_host_port(":7401", &host, &port));
  EXPECT_FALSE(parse_host_port("host:99999", &host, &port));
  EXPECT_FALSE(parse_host_port("host:abc", &host, &port));
}

// --- golden byte-identity -------------------------------------------------

TEST(DistributedPoolGolden, TwoDaemonSweepMatchesInProcessBytes) {
  if (!distributed_supported()) GTEST_SKIP() << "no subprocess/socket support";
  const SweepConfig config = sweep_config();
  const std::string baseline = sweep_bytes(config, nullptr);

  WorkerPool pool{distributed_config(4)};
  ASSERT_FALSE(pool.degraded()) << pool.degraded_reason();
  ASSERT_NE(pool.listen_port(), 0);
  util::Subprocess daemon_a = spawn_daemon(pool.listen_port(), 2);
  util::Subprocess daemon_b = spawn_daemon(pool.listen_port(), 2);
  ASSERT_TRUE(wait_for_registrations(pool, 4));

  EXPECT_EQ(sweep_bytes(config, &pool), baseline);
  const WorkerPoolStats stats = pool.stats();
  EXPECT_GE(stats.remote_registered, 4u);
  EXPECT_EQ(stats.retried_units, 0u);
  EXPECT_EQ(stats.quarantined_units, 0u);
}

TEST(DistributedPoolGolden, DaemonCrashMidRunIsRedispatchedIdentically) {
  if (!distributed_supported()) GTEST_SKIP() << "no subprocess/socket support";
  const SweepConfig config = sweep_config(/*max_candidates=*/6);
  const std::string baseline = sweep_bytes(config, nullptr);

  // Daemon A aborts on the 2nd unit it receives (taking its whole process,
  // i.e. every slot, with it); daemon B absorbs the orphaned work. The
  // re-dispatch must not charge a retry attempt — transport loss is not
  // evidence against the unit.
  WorkerPool pool{distributed_config(2)};
  ASSERT_FALSE(pool.degraded()) << pool.degraded_reason();
  util::Subprocess daemon_a = spawn_daemon(
      pool.listen_port(), 1, {"QHDL_FAULT_SPEC=worker=crash@2"});
  ASSERT_TRUE(wait_for_registrations(pool, 1));
  util::Subprocess daemon_b =
      spawn_daemon(pool.listen_port(), 1, {"QHDL_FAULT_SPEC="});
  ASSERT_TRUE(wait_for_registrations(pool, 2));

  EXPECT_EQ(sweep_bytes(config, &pool), baseline);
  const WorkerPoolStats stats = pool.stats();
  EXPECT_GE(stats.steals, 1u);
  EXPECT_GE(stats.remote_lost, 1u);
  EXPECT_EQ(stats.quarantined_units, 0u);
}

TEST(DistributedPoolGolden, SigkilledDaemonMidRunMatchesBytes) {
  if (!distributed_supported()) GTEST_SKIP() << "no subprocess/socket support";
  const SweepConfig config = sweep_config(/*max_candidates=*/6);
  const std::string baseline = sweep_bytes(config, nullptr);

  WorkerPool pool{distributed_config(2)};
  ASSERT_FALSE(pool.degraded()) << pool.degraded_reason();
  util::Subprocess daemon_a = spawn_daemon(pool.listen_port(), 1);
  util::Subprocess daemon_b = spawn_daemon(pool.listen_port(), 1);
  ASSERT_TRUE(wait_for_registrations(pool, 2));

  // A real kill -9 mid-run: no shutdown frame, no FIN handshake courtesy —
  // the supervisor sees a dead connection and must re-dispatch whatever
  // that daemon was holding.
  std::thread killer{[&daemon_a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    daemon_a.kill_hard();
  }};
  const std::string distributed = sweep_bytes(config, &pool);
  killer.join();
  EXPECT_EQ(distributed, baseline);
  EXPECT_TRUE(eventually(
      [&] { return pool.stats().remote_lost >= 1; }, 5000));
  EXPECT_EQ(pool.stats().quarantined_units, 0u);
}

// --- fallback chain -------------------------------------------------------

TEST(DistributedPoolFallback, NoDaemonsFallsBackToLocalPipesIdentically) {
  if (!distributed_supported()) GTEST_SKIP() << "no subprocess/socket support";
  const SweepConfig config = sweep_config();
  const std::string baseline = sweep_bytes(config, nullptr);

  WorkerPoolConfig pool_config = distributed_config(2);
  pool_config.handshake_timeout_ms = 300;
  pool_config.workers = 2;  // the local fallback width
  WorkerPool pool{pool_config};
  // Nothing ever connects: after the handshake deadline the pool must
  // spawn local pipe workers and produce the same bytes.
  EXPECT_EQ(sweep_bytes(config, &pool), baseline);
  EXPECT_FALSE(pool.degraded()) << pool.degraded_reason();
  EXPECT_EQ(pool.stats().remote_registered, 0u);
}

TEST(DistributedPoolFallback, SlowHandshakeIsRejectedThenFallsBackLocal) {
  if (!distributed_supported()) GTEST_SKIP() << "no subprocess/socket support";
  const SweepConfig config = sweep_config();
  const std::string baseline = sweep_bytes(config, nullptr);

  // Every accepted connection stalls before its register frame arrives
  // (supervisor-side conn=slow): the per-connection handshake deadline must
  // drop it, and the fleet deadline must hand the sweep to local workers.
  util::FaultInjector::instance().configure("conn=slow@1+");
  WorkerPoolConfig pool_config = distributed_config(1);
  pool_config.handshake_timeout_ms = 400;
  pool_config.workers = 2;
  WorkerPool pool{pool_config};
  util::Subprocess daemon = spawn_daemon(pool.listen_port(), 1);

  const std::string bytes = sweep_bytes(config, &pool);
  // Read the stats and stop the daemon while the fault is still armed: the
  // listener stays open after the sweep, so once conn=slow is disarmed the
  // daemon's next reconnect would register legitimately.
  EXPECT_TRUE(eventually(
      [&] { return pool.stats().handshake_rejects >= 1; }, 5000));
  const WorkerPoolStats armed = pool.stats();
  daemon.kill_hard();
  util::FaultInjector::instance().configure("");
  EXPECT_EQ(bytes, baseline);
  EXPECT_FALSE(pool.degraded()) << pool.degraded_reason();
  EXPECT_EQ(armed.remote_registered, 0u);
}

// --- injected connection faults ------------------------------------------

TEST(DistributedPoolFaults, ResetMidUnitIsRedispatchedAndHeals) {
  if (!distributed_supported()) GTEST_SKIP() << "no subprocess/socket support";
  const SweepConfig config = sweep_config(/*max_candidates=*/6);
  const std::string baseline = sweep_bytes(config, nullptr);

  WorkerPool pool{distributed_config(2)};
  ASSERT_FALSE(pool.degraded()) << pool.degraded_reason();
  util::Subprocess daemon_a = spawn_daemon(pool.listen_port(), 1);
  util::Subprocess daemon_b = spawn_daemon(pool.listen_port(), 1);
  ASSERT_TRUE(wait_for_registrations(pool, 2));

  // Arm AFTER registration so the fault lands on a busy connection: the
  // first dispatched unit's transport is torn down as if the peer sent
  // RST. The unit must be re-dispatched (uncharged) and the daemon's
  // reconnect must be accepted.
  util::FaultInjector::instance().configure("conn=reset@1");
  const std::string bytes = sweep_bytes(config, &pool);
  util::FaultInjector::instance().configure("");
  EXPECT_EQ(bytes, baseline);
  const WorkerPoolStats stats = pool.stats();
  EXPECT_GE(stats.steals, 1u);
  EXPECT_GE(stats.remote_lost, 1u);
  EXPECT_EQ(stats.quarantined_units, 0u);
}

TEST(DistributedPoolFaults, PartitionIsReapedByHeartbeatAndRedispatched) {
  if (!distributed_supported()) GTEST_SKIP() << "no subprocess/socket support";
  const SweepConfig config = sweep_config(/*max_candidates=*/6);
  const std::string baseline = sweep_bytes(config, nullptr);

  // A partition is nastier than a reset: the socket stays open but nothing
  // flows. Heartbeat liveness — not the transport — must detect the split
  // and re-dispatch; the daemon's reconnect (after the supervisor closes
  // its end) is the heal.
  WorkerPoolConfig pool_config = distributed_config(2);
  pool_config.heartbeat_interval_ms = 100;
  pool_config.heartbeat_timeout_ms = 800;
  WorkerPool pool{pool_config};
  ASSERT_FALSE(pool.degraded()) << pool.degraded_reason();
  util::Subprocess daemon_a = spawn_daemon(pool.listen_port(), 1);
  util::Subprocess daemon_b = spawn_daemon(pool.listen_port(), 1);
  ASSERT_TRUE(wait_for_registrations(pool, 2));

  util::FaultInjector::instance().configure("conn=partition@1");
  const std::string bytes = sweep_bytes(config, &pool);
  util::FaultInjector::instance().configure("");
  EXPECT_EQ(bytes, baseline);
  const WorkerPoolStats stats = pool.stats();
  EXPECT_GE(stats.steals, 1u);
  EXPECT_GE(stats.remote_lost, 1u);
  EXPECT_EQ(stats.quarantined_units, 0u);
}

TEST(DistributedPoolFaults, RefusedConnectRetriesWithBackoffAndRegisters) {
  if (!distributed_supported()) GTEST_SKIP() << "no subprocess/socket support";
  const SweepConfig config = sweep_config();
  const std::string baseline = sweep_bytes(config, nullptr);

  WorkerPool pool{distributed_config(1)};
  ASSERT_FALSE(pool.degraded()) << pool.degraded_reason();
  // The daemon's own injector refuses its first outbound connect; the
  // jittered backoff must retry and the second attempt registers.
  util::Subprocess daemon = spawn_daemon(pool.listen_port(), 1,
                                         {"QHDL_FAULT_SPEC=conn=refuse@1"});
  ASSERT_TRUE(wait_for_registrations(pool, 1));

  EXPECT_EQ(sweep_bytes(config, &pool), baseline);
  EXPECT_EQ(pool.stats().quarantined_units, 0u);
}

// --- straggler stealing ---------------------------------------------------

TEST(DistributedPoolStealing, IdleWorkerDuplicatesStragglerFirstResultWins) {
  if (!distributed_supported()) GTEST_SKIP() << "no subprocess/socket support";
  const SweepConfig config = sweep_config(/*max_candidates=*/4);
  const std::string baseline = sweep_bytes(config, nullptr);

  // Daemon A hangs on its first unit (silent wedge, no heartbeat frames
  // suppressed — the worker=hang fault stops everything). With stealing
  // armed, daemon B duplicates the straggling unit well before the
  // heartbeat reaper would fire; the duplicate's result commits and the
  // bytes cannot tell the difference.
  WorkerPoolConfig pool_config = distributed_config(2);
  pool_config.steal_after_ms = 300;
  pool_config.heartbeat_timeout_ms = 20000;  // stealing must win the race
  pool_config.unit_timeout_ms = 15000;       // eventually reaps the wedge
  WorkerPool pool{pool_config};
  ASSERT_FALSE(pool.degraded()) << pool.degraded_reason();
  util::Subprocess daemon_a = spawn_daemon(
      pool.listen_port(), 1, {"QHDL_FAULT_SPEC=worker=hang@1"});
  ASSERT_TRUE(wait_for_registrations(pool, 1));
  util::Subprocess daemon_b =
      spawn_daemon(pool.listen_port(), 1, {"QHDL_FAULT_SPEC="});
  ASSERT_TRUE(wait_for_registrations(pool, 2));

  EXPECT_EQ(sweep_bytes(config, &pool), baseline);
  EXPECT_GE(pool.stats().steals, 1u);
}

// --- CI fault-matrix leg --------------------------------------------------

// Env-driven like WorkerFaultMatrix.*: CI sets QHDL_FAULT_SPEC to a conn=
// spec. Daemon-side specs (refuse) ride the inherited environment; the
// supervisor-side ones (reset/partition/slow) are re-armed locally after
// the supervisor's env read. Skipped without a conn= spec. CI must select
// this with an anchored regex (^DistFaultMatrix\.).
TEST(DistFaultMatrix, DistributedSweepSurvivesConfiguredConnFault) {
  const char* env = std::getenv("QHDL_FAULT_SPEC");
  if (env == nullptr || std::string{env}.find("conn=") == std::string::npos) {
    GTEST_SKIP() << "set QHDL_FAULT_SPEC to a conn= spec to run this";
  }
  if (!distributed_supported()) GTEST_SKIP() << "no subprocess/socket support";
  const std::string spec = env;
  const bool refuse = spec.find("refuse") != std::string::npos;
  const bool slow = spec.find("slow") != std::string::npos;

  // Baseline with the supervisor's injector disarmed (it read the env at
  // first touch).
  util::FaultInjector::instance().configure("");
  const SweepConfig config = sweep_config(/*max_candidates=*/6);
  const std::string baseline = sweep_bytes(config, nullptr);

  WorkerPoolConfig pool_config = distributed_config(2);
  pool_config.workers = 2;  // local fallback width (the slow-handshake leg)
  pool_config.handshake_timeout_ms = slow ? 500 : 5000;
  pool_config.heartbeat_interval_ms = 100;
  pool_config.heartbeat_timeout_ms = 1500;  // bounds injected partitions
  WorkerPool pool{pool_config};
  ASSERT_FALSE(pool.degraded()) << pool.degraded_reason();

  // refuse is a client-side (daemon) fault; everything else is injected in
  // the supervisor. Never both: the bytes must isolate one failure mode.
  const std::vector<std::string> daemon_env = {
      refuse ? "QHDL_FAULT_SPEC=" + spec : "QHDL_FAULT_SPEC="};
  if (!refuse) util::FaultInjector::instance().configure(spec);
  util::Subprocess daemon_a = spawn_daemon(pool.listen_port(), 1, daemon_env);
  util::Subprocess daemon_b = spawn_daemon(pool.listen_port(), 1, daemon_env);

  const std::string bytes = sweep_bytes(config, &pool);
  util::FaultInjector::instance().configure("");
  EXPECT_EQ(bytes, baseline);
  const WorkerPoolStats stats = pool.stats();
  EXPECT_EQ(stats.quarantined_units, 0u);
  if (slow) {
    // Handshakes never complete: the sweep ran on the local fallback.
    EXPECT_EQ(stats.remote_registered, 0u);
    EXPECT_GE(stats.handshake_rejects, 1u);
  } else {
    EXPECT_GE(stats.remote_registered, 1u);
  }
}

}  // namespace
}  // namespace qhdl::search
