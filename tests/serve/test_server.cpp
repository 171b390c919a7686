// End-to-end serve-layer tests over real TCP connections: admission
// control, the golden cache-determinism property, per-job deadlines,
// client-disconnect cancellation, and graceful drain.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "search/checkpoint.hpp"
#include "search/experiment.hpp"
#include "search/results.hpp"
#include "search/worker_protocol.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "util/deadline.hpp"
#include "util/fault_injection.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace qhdl::serve {
namespace {

/// Tiny but non-trivial study: 2 candidates x 1 run, threshold unreachable
/// so the unit count is deterministic (2 units).
search::SweepConfig tiny_study() {
  search::SweepConfig config = core::test_scale();
  config.feature_sizes = {4};
  config.search.max_candidates = 2;
  config.search.repetitions = 1;
  config.search.runs_per_model = 1;
  config.search.train.epochs = 2;
  config.search.prune_margin = 0.0;
  config.search.accuracy_threshold = 1.1;
  return config;
}

util::Json sleep_request(int ms) {
  util::Json request = util::Json::object();
  request["type"] = "sleep";
  request["ms"] = ms;
  return request;
}

/// Polls `predicate` against the server's stats until it holds or the
/// deadline expires.
bool wait_for_stats(const Server& server,
                    const std::function<bool(const ServerStats&)>& predicate,
                    std::uint64_t budget_ms = 5000) {
  const util::Deadline deadline = util::Deadline::after_ms(budget_ms);
  while (!deadline.expired()) {
    if (predicate(server.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return predicate(server.stats());
}

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!util::sockets_supported()) GTEST_SKIP() << "no socket support";
    util::FaultInjector::instance().configure("");
  }
  void TearDown() override {
    util::FaultInjector::instance().configure("");
  }
};

TEST_F(ServeServerTest, StartStopIsCleanAndIdempotent) {
  ServerConfig config;
  Server server{config};
  server.start();
  EXPECT_GT(server.port(), 0);
  server.stop();
  server.stop();  // idempotent
  EXPECT_EQ(server.stats().accepted, 0u);
}

TEST_F(ServeServerTest, PingAndStatsAreServedInline) {
  Server server{ServerConfig{}};
  server.start();
  util::Json request = util::Json::object();
  request["type"] = "ping";
  const util::Json pong =
      round_trip("127.0.0.1", server.port(), request, 5000);
  EXPECT_EQ(pong.at("type").as_string(), "pong");
  EXPECT_EQ(static_cast<int>(pong.at("version").as_number()),
            kServeProtocolVersion);

  request["type"] = "stats";
  const util::Json stats =
      round_trip("127.0.0.1", server.port(), request, 5000);
  EXPECT_EQ(stats.at("type").as_string(), "stats");
  for (const char* key :
       {"accepted", "rejected_overloaded", "jobs_completed", "cache"}) {
    EXPECT_TRUE(stats.contains(key)) << key;
  }
  EXPECT_EQ(static_cast<std::size_t>(stats.at("accepted").as_number()), 2u);
}

// A reply must reach the client as soon as the executor resolves it, not
// when the connection thread's next poll slice ends (DESIGN.md §15). A 0 ms
// sleep costs one 10 ms executor tick; a 50 ms poll slice on the reply path
// would put every round trip at >= 50 ms.
TEST_F(ServeServerTest, ReplyIsNotQuantizedToPollSlices) {
  ServerConfig config;
  config.executors = 1;
  Server server{config};
  server.start();
  std::vector<double> round_trip_ms;
  for (int i = 0; i < 10; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const util::Json reply =
        round_trip("127.0.0.1", server.port(), sleep_request(0), 5000);
    round_trip_ms.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    ASSERT_EQ(reply.at("type").as_string(), "result");
  }
  std::sort(round_trip_ms.begin(), round_trip_ms.end());
  const double median = (round_trip_ms[4] + round_trip_ms[5]) / 2.0;
  EXPECT_LT(median, 35.0) << "fastest " << round_trip_ms.front()
                          << " ms, slowest " << round_trip_ms.back() << " ms";
}

TEST_F(ServeServerTest, UnknownRequestTypeIsAnErrorNotADisconnect) {
  Server server{ServerConfig{}};
  server.start();
  util::Json request = util::Json::object();
  request["type"] = "frobnicate";
  const util::Json reply =
      round_trip("127.0.0.1", server.port(), request, 5000);
  EXPECT_EQ(reply.at("type").as_string(), "error");
  EXPECT_NE(reply.at("message").as_string().find("frobnicate"),
            std::string::npos);
}

// The golden property of the serving layer: submitting the same study twice
// returns byte-identical results, with the second pass served entirely from
// the content-addressed cache (counters asserted, not assumed) — and both
// passes byte-identical to a direct in-process sweep.
TEST_F(ServeServerTest, GoldenRepeatedStudyIsCacheServedByteIdentical) {
  const search::SweepConfig config = tiny_study();
  const std::string direct =
      search::sweep_to_json(
          search::run_complexity_sweep(search::Family::Classical, config))
          .dump(2);

  Server server{ServerConfig{}};
  server.start();
  const util::Json request =
      make_study_request(search::Family::Classical, config);

  const util::Json first =
      round_trip("127.0.0.1", server.port(), request, 120000);
  ASSERT_EQ(first.at("type").as_string(), "result");
  // Cold pass: every unit trained.
  EXPECT_EQ(first.at("cache").at("unit_hits").as_number(), 0.0);
  EXPECT_EQ(first.at("cache").at("unit_misses").as_number(), 2.0);

  const util::Json second =
      round_trip("127.0.0.1", server.port(), request, 120000);
  ASSERT_EQ(second.at("type").as_string(), "result");
  // Warm pass: 100% of unit lookups served from the cache (>= the 90%
  // acceptance bar), zero retraining.
  EXPECT_EQ(second.at("cache").at("unit_hits").as_number(), 2.0);
  EXPECT_EQ(second.at("cache").at("unit_misses").as_number(), 0.0);

  // Byte-identical across passes AND against the in-process baseline.
  EXPECT_EQ(first.at("sweep").dump(2), direct);
  EXPECT_EQ(second.at("sweep").dump(2), first.at("sweep").dump(2));
  EXPECT_EQ(first.at("config_hash").as_string(),
            search::sweep_config_hash(config));

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_EQ(stats.cache.unit_hits, 2u);
  EXPECT_EQ(stats.cache.unit_misses, 2u);
}

// A study reply's cache counters are the request's own lookups: concurrent
// identical requests share one checkpoint, and must not count each other's
// units.
TEST_F(ServeServerTest, ConcurrentStudiesReportOnlyTheirOwnCacheHits) {
  const search::SweepConfig config = tiny_study();
  ServerConfig server_config;
  server_config.executors = 4;
  Server server{server_config};
  server.start();
  const util::Json request =
      make_study_request(search::Family::Classical, config);
  const util::Json warm =
      round_trip("127.0.0.1", server.port(), request, 120000);
  ASSERT_EQ(warm.at("type").as_string(), "result");

  constexpr int kClients = 4;
  std::vector<util::Json> replies(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      replies[i] = round_trip("127.0.0.1", server.port(), request, 120000);
    });
  }
  for (std::thread& client : clients) client.join();
  for (const util::Json& reply : replies) {
    ASSERT_EQ(reply.at("type").as_string(), "result");
    EXPECT_EQ(reply.at("cache").at("unit_hits").as_number(), 2.0);
    EXPECT_EQ(reply.at("cache").at("unit_misses").as_number(), 0.0);
    EXPECT_EQ(reply.at("sweep").dump(2), warm.at("sweep").dump(2));
  }
  // The shared totals still count every lookup.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache.unit_hits, 2u * kClients);
  EXPECT_EQ(stats.cache.unit_misses, 2u);
}

// Numbers a client sends are checked, never cast blindly: an out-of-range
// or fractional count is an error reply, and the server keeps serving.
TEST_F(ServeServerTest, OutOfRangeNumbersAreErrorRepliesNotCrashes) {
  Server server{ServerConfig{}};
  server.start();
  util::Json train = util::Json::object();
  train["type"] = "train";
  train["config"] = search::sweep_config_to_json(tiny_study());
  train["spec"] =
      search::model_spec_to_json(search::ModelSpec::make_classical({2}));
  train["features"] = -1;
  util::Json reply = round_trip("127.0.0.1", server.port(), train, 5000);
  EXPECT_EQ(reply.at("type").as_string(), "error");

  train["features"] = 4;
  train["repetition"] = 2.5;
  reply = round_trip("127.0.0.1", server.port(), train, 5000);
  EXPECT_EQ(reply.at("type").as_string(), "error");

  util::Json sleep = sleep_request(0);
  sleep["ms"] = 1e300;
  reply = round_trip("127.0.0.1", server.port(), sleep, 5000);
  EXPECT_EQ(reply.at("type").as_string(), "error");

  reply = round_trip("127.0.0.1", server.port(), sleep_request(0), 5000);
  EXPECT_EQ(reply.at("type").as_string(), "result");
  EXPECT_EQ(server.stats().jobs_failed, 3u);
}

TEST_F(ServeServerTest, PoolBackedStudyMatchesInProcessBytes) {
  if (!util::subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  const search::SweepConfig config = tiny_study();
  const util::Json request =
      make_study_request(search::Family::Classical, config);

  ServerConfig in_process;
  Server baseline{in_process};
  baseline.start();
  const util::Json direct =
      round_trip("127.0.0.1", baseline.port(), request, 120000);
  baseline.stop();

  ServerConfig pooled;
  pooled.pool_workers = 2;
  Server server{pooled};
  server.start();
  const util::Json reply =
      round_trip("127.0.0.1", server.port(), request, 120000);
  ASSERT_EQ(reply.at("type").as_string(), "result");
  EXPECT_EQ(reply.at("sweep").dump(2), direct.at("sweep").dump(2));
}

std::string in_process_bytes(const search::SweepConfig& config) {
  return search::sweep_to_json(
             search::run_complexity_sweep(search::Family::Classical, config))
      .dump(2);
}

// The server's pool outlives its study jobs: the worker that trained the
// first study's unit also gets the second study's, which is that process's
// second unit and crashes it (worker=crash@2). One respawn and one retry
// absorb the crash, and both replies keep the in-process bytes. A pool per
// job would give each study a fresh worker that sees one unit: no crash.
TEST_F(ServeServerTest, PoolWorkersOutliveStudyJobs) {
  if (!util::subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  ServerConfig config;
  config.executors = 1;
  config.pool_workers = 1;
  config.pool.worker_env = {"QHDL_FAULT_SPEC=worker=crash@2"};
  config.pool.backoff_initial_ms = 50;
  Server server{config};
  server.start();
  for (const std::uint64_t seed : {11u, 12u}) {
    search::SweepConfig study = tiny_study();
    study.search.max_candidates = 1;
    study.search.seed = seed;
    const util::Json reply = round_trip(
        "127.0.0.1", server.port(),
        make_study_request(search::Family::Classical, study), 120000);
    ASSERT_EQ(reply.at("type").as_string(), "result") << reply.dump();
    EXPECT_EQ(reply.at("sweep").dump(2), in_process_bytes(study)) << seed;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.pool_restarts, 1u);
  EXPECT_EQ(stats.pool_retried_units, 1u);
  EXPECT_EQ(stats.pool_quarantined_units, 0u);
}

// Remote daemons dial the server's pool once and serve every study job
// until the server stops: two concurrent studies with different configs
// share a two-daemon fleet, and each daemon exits 0 on the shutdown frame
// that stop() sends.
TEST_F(ServeServerTest, TwoDaemonFleetServesConcurrentStudies) {
  if (!util::subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  // The pool binds on the first study; daemons started before that keep
  // redialing a port they know, as they would against qhdl_serve --listen.
  std::uint16_t worker_port = 0;
  {
    util::ListenSocket probe = util::ListenSocket::listen_tcp("127.0.0.1", 0);
    worker_port = probe.port();
  }
  ServerConfig config;
  config.executors = 2;
  config.pool.remote_workers = 2;
  config.pool.listen_port = worker_port;
  config.pool.handshake_timeout_ms = 30000;  // no local fallback
  Server server{config};
  server.start();
  std::vector<util::Subprocess> daemons;
  for (int i = 0; i < 2; ++i) {
    daemons.push_back(util::Subprocess::spawn(
        {util::current_executable_path(), "--worker-connect",
         "127.0.0.1:" + std::to_string(worker_port), "--worker-slots", "1"},
        {"QHDL_FAULT_SPEC="}));
  }

  std::vector<search::SweepConfig> studies(2, tiny_study());
  studies[1].search.seed += 1;
  std::vector<util::Json> replies(studies.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < studies.size(); ++i) {
    clients.emplace_back([&, i] {
      replies[i] = round_trip(
          "127.0.0.1", server.port(),
          make_study_request(search::Family::Classical, studies[i]), 120000);
    });
  }
  for (std::thread& client : clients) client.join();
  for (std::size_t i = 0; i < studies.size(); ++i) {
    ASSERT_EQ(replies[i].at("type").as_string(), "result")
        << replies[i].dump();
    EXPECT_EQ(replies[i].at("sweep").dump(2), in_process_bytes(studies[i]))
        << "study " << i;
  }
  for (util::Subprocess& daemon : daemons) {
    EXPECT_FALSE(daemon.try_wait().has_value()) << "daemon left early";
  }

  server.stop();
  for (util::Subprocess& daemon : daemons) {
    const util::Deadline deadline = util::Deadline::after_ms(10000);
    std::optional<util::ExitStatus> status;
    while (!(status = daemon.try_wait()).has_value() && !deadline.expired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_TRUE(status.has_value()) << "daemon still running after stop()";
    EXPECT_TRUE(status->exited && status->exit_code == 0)
        << status->to_string();
  }
}

TEST_F(ServeServerTest, StudyWithProgressStreamsFramesBeforeTheReply) {
  const search::SweepConfig config = tiny_study();
  const std::string direct =
      search::sweep_to_json(
          search::run_complexity_sweep(search::Family::Classical, config))
          .dump(2);

  Server server{ServerConfig{}};
  server.start();
  util::Json request = make_study_request(search::Family::Classical, config);
  request["progress"] = true;

  std::vector<util::Json> progress;
  const util::Json reply = round_trip(
      "127.0.0.1", server.port(), request,
      [&progress](const util::Json& frame) { progress.push_back(frame); },
      120000);
  ASSERT_EQ(reply.at("type").as_string(), "result");
  // One frame per committed unit window; the tiny study has 2 units and a
  // window of at least 1, so at least one frame must have streamed.
  ASSERT_GE(progress.size(), 1u);
  for (const util::Json& frame : progress) {
    EXPECT_EQ(frame.at("type").as_string(), "progress");
    EXPECT_EQ(frame.at("family").as_string(), "classical");
    EXPECT_EQ(frame.at("features").as_number(), 4.0);
    EXPECT_GE(frame.at("units_done").as_number(), 1.0);
    EXPECT_LE(frame.at("units_done").as_number(),
              frame.at("total_units").as_number());
    EXPECT_TRUE(frame.contains("last_spec"));
  }
  // Progress observation must not perturb the bytes: the streamed study's
  // result is the in-process baseline's.
  EXPECT_EQ(reply.at("sweep").dump(2), direct);
  EXPECT_GE(server.stats().progress_frames, progress.size());

  // A plain request on the same server still gets exactly one frame.
  const util::Json plain = round_trip(
      "127.0.0.1", server.port(),
      make_study_request(search::Family::Classical, config), 120000);
  EXPECT_EQ(plain.at("sweep").dump(2), direct);
}

TEST_F(ServeServerTest, OverloadedQueueShedsDeterministically) {
  ServerConfig config;
  config.executors = 1;
  config.max_queue = 1;
  Server server{config};
  server.start();

  // A occupies the single executor...
  std::thread a([&] {
    const util::Json reply =
        round_trip("127.0.0.1", server.port(), sleep_request(1500), 30000);
    EXPECT_EQ(reply.at("type").as_string(), "result");
  });
  // ...wait until it has actually been dequeued into the executor...
  ASSERT_TRUE(wait_for_stats(server, [](const ServerStats& s) {
    return s.accepted >= 1;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // ...B fills the queue slot...
  std::thread b([&] {
    const util::Json reply =
        round_trip("127.0.0.1", server.port(), sleep_request(1500), 30000);
    EXPECT_EQ(reply.at("type").as_string(), "result");
  });
  ASSERT_TRUE(wait_for_stats(server, [](const ServerStats& s) {
    return s.accepted >= 2;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // ...so C must be shed, immediately, with reason "overloaded".
  const util::Json reply =
      round_trip("127.0.0.1", server.port(), sleep_request(1500), 30000);
  EXPECT_EQ(reply.at("type").as_string(), "rejected");
  EXPECT_EQ(reply.at("reason").as_string(), "overloaded");

  a.join();
  b.join();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_GE(stats.rejected_overloaded, 1u);
}

TEST_F(ServeServerTest, JobDeadlineCancelsSleep) {
  ServerConfig config;
  config.job_timeout_ms = 200;
  Server server{config};
  server.start();
  const util::Json reply =
      round_trip("127.0.0.1", server.port(), sleep_request(10000), 30000);
  EXPECT_EQ(reply.at("type").as_string(), "cancelled");
  EXPECT_NE(reply.at("reason").as_string().find("deadline"),
            std::string::npos);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.jobs_cancelled, 1u);
  EXPECT_EQ(stats.deadlines_expired, 1u);
}

TEST_F(ServeServerTest, JobDeadlineCancelsStudyCompute) {
  // A heavy study against a tiny budget: the deadline must interrupt real
  // compute at a unit-window boundary, not just the diagnostic sleep job.
  search::SweepConfig config = tiny_study();
  config.search.max_candidates = 8;
  config.search.runs_per_model = 3;
  config.search.train.epochs = 400;
  ServerConfig server_config;
  server_config.job_timeout_ms = 100;
  Server server{server_config};
  server.start();
  const util::Json reply = round_trip(
      "127.0.0.1", server.port(),
      make_study_request(search::Family::Classical, config), 120000);
  EXPECT_EQ(reply.at("type").as_string(), "cancelled");
  EXPECT_EQ(server.stats().deadlines_expired, 1u);
}

TEST_F(ServeServerTest, ClientDisconnectCancelsOrphanedJob) {
  Server server{ServerConfig{}};
  server.start();
  {
    // Submit a long sleep and hang up without reading the reply.
    util::Socket socket = util::connect_tcp("127.0.0.1", server.port());
    ASSERT_TRUE(socket.write_all(
        search::frame_wire(sleep_request(30000).dump())));
    // Give the server a moment to admit the job before the disconnect.
    ASSERT_TRUE(wait_for_stats(server, [](const ServerStats& s) {
      return s.accepted >= 1;
    }));
  }  // socket closes here: the client is gone

  // The orphaned job must be cancelled, not run to completion.
  EXPECT_TRUE(wait_for_stats(server, [](const ServerStats& s) {
    return s.client_disconnects >= 1 && s.jobs_cancelled >= 1;
  }));

  // And the server is still healthy.
  util::Json ping = util::Json::object();
  ping["type"] = "ping";
  EXPECT_EQ(round_trip("127.0.0.1", server.port(), ping, 5000)
                .at("type")
                .as_string(),
            "pong");
}

TEST_F(ServeServerTest, GracefulDrainFinishesInFlightJobs) {
  Server server{ServerConfig{}};
  server.start();
  std::thread in_flight([&] {
    const util::Json reply =
        round_trip("127.0.0.1", server.port(), sleep_request(600), 30000);
    // The job was already executing when the drain began: it must finish
    // and the client must receive its real reply, not a rejection.
    EXPECT_EQ(reply.at("type").as_string(), "result");
  });
  ASSERT_TRUE(wait_for_stats(server, [](const ServerStats& s) {
    return s.accepted >= 1;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  server.stop();  // request_drain + join everything
  in_flight.join();
  EXPECT_EQ(server.stats().jobs_completed, 1u);
}

}  // namespace
}  // namespace qhdl::serve
