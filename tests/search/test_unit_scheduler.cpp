// The unit scheduler (DESIGN.md §7): every search of a call shares the
// lanes, yet the committed bytes are the serial walk's at any lane count
// and through a worker pool; one lane executes exactly the committed runs;
// nothing past a search's winner is ever recorded, logged or announced;
// and a cancellation stops every lane.
#include "search/unit_scheduler.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <tuple>
#include <vector>

#include "core/config.hpp"
#include "nn/fastpath.hpp"
#include "search/checkpoint.hpp"
#include "search/experiment.hpp"
#include "search/results.hpp"
#include "search/worker_pool.hpp"
#include "test_helpers.hpp"
#include "util/cancel.hpp"
#include "util/subprocess.hpp"

namespace qhdl::search {
namespace {

/// Two levels x three repetitions, pruning on: a mix of winners, pruned
/// candidates and searches that run to their limit.
SweepConfig sweep_config() {
  SweepConfig config = core::test_scale();
  config.feature_sizes = {4, 6};
  config.search.runs_per_model = 2;
  config.search.repetitions = 3;
  config.search.train.epochs = 3;
  config.search.max_candidates = 4;
  config.search.accuracy_threshold = 0.45;
  config.search.prune_margin = 0.1;
  config.search.run_retries = 0;
  return config;
}

std::string sweep_bytes(const SweepConfig& config, WorkerPool* pool = nullptr) {
  return sweep_to_json(
             run_complexity_sweep(Family::Classical, config, nullptr, pool))
      .dump(2);
}

/// Arms a deterministic non-finite trip on one run attempt: the one whose
/// epoch-0 training loss is the `pick`-th such loss of the serial walk.
/// Keyed on the run's own arithmetic, it lands on the same run at any lane
/// count, unlike an arrival-counted fault.
void inject_one_quarantine(SweepConfig& config, std::size_t pick) {
  std::vector<double> losses;
  SweepConfig probe = config;
  probe.search.threads = 1;
  probe.search.train.on_epoch = [&losses](std::size_t epoch,
                                          const nn::EpochStats& stats) {
    if (epoch == 0) losses.push_back(stats.train_loss);
  };
  (void)run_complexity_sweep(Family::Classical, probe);
  ASSERT_GT(losses.size(), pick);
  const double poisoned = losses[pick];
  config.search.train.on_epoch = [poisoned](std::size_t epoch,
                                            const nn::EpochStats& stats) {
    if (epoch == 0 && stats.train_loss == poisoned) {
      throw nn::NonFiniteError("loss", epoch);
    }
  };
}

std::size_t quarantined_runs(const SweepResult& sweep) {
  std::size_t failed = 0;
  for (const LevelResult& level : sweep.levels) {
    for (const SearchOutcome& outcome : level.search.repetitions) {
      for (const CandidateResult& unit : outcome.evaluated) {
        failed += unit.failed_runs;
      }
    }
  }
  return failed;
}

TEST(UnitScheduler, SweepBytesIdenticalAtAnyLaneCount) {
  SweepConfig config = sweep_config();
  inject_one_quarantine(config, 5);
  config.search.threads = 1;
  const SweepResult serial = run_complexity_sweep(Family::Classical, config);
  ASSERT_EQ(quarantined_runs(serial), 1u);
  const std::string bytes = sweep_to_json(serial).dump(2);
  // Digest of the same sweep under the speculative-window search this
  // scheduler replaced.
  EXPECT_EQ(testing::Digest{}.text(bytes).hex(), "ca55066afc05c263");

  for (const std::size_t lanes : {2, 3, 8}) {
    config.search.threads = lanes;
    EXPECT_EQ(sweep_bytes(config), bytes) << lanes << " lanes";
  }
}

// The injected trip is a process-local hook that does not cross the wire,
// so the pooled leg runs the same sweep without it.
TEST(UnitScheduler, PooledSweepBytesMatchOneLane) {
  if (!util::subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  SweepConfig config = sweep_config();
  config.search.threads = 1;
  const std::string bytes = sweep_bytes(config);

  WorkerPoolConfig pool_config;
  pool_config.workers = 2;
  WorkerPool pool{pool_config};
  ASSERT_FALSE(pool.degraded()) << pool.degraded_reason();
  EXPECT_EQ(sweep_bytes(config, &pool), bytes);
}

TEST(UnitScheduler, OneLaneTrainsOnlyCommittedRunsInSerialOrder) {
  SweepConfig config = sweep_config();
  config.search.threads = 1;
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> events;
  const ProgressFn progress = [&events](const ProgressEvent& event) {
    events.emplace_back(event.features, event.repetition, event.units_done);
  };

  const nn::fastpath::FastpathStatsSnapshot before = nn::fastpath::stats();
  const SweepResult sweep = run_complexity_sweep(
      Family::Classical, config, nullptr, nullptr, nullptr, &progress);
  const nn::fastpath::FastpathStatsSnapshot after = nn::fastpath::stats();

  std::size_t committed_runs = 0;
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> serial_walk;
  for (const LevelResult& level : sweep.levels) {
    for (std::size_t rep = 0; rep < level.search.repetitions.size(); ++rep) {
      const SearchOutcome& outcome = level.search.repetitions[rep];
      for (std::size_t c = 0; c < outcome.evaluated.size(); ++c) {
        committed_runs += outcome.evaluated[c].runs +
                          outcome.evaluated[c].failures.size();
        serial_walk.emplace_back(level.features, rep, c + 1);
      }
    }
  }
  const std::uint64_t executed =
      (after.workspace_runs - before.workspace_runs) +
      (after.reference_runs - before.reference_runs);
  EXPECT_EQ(executed, committed_runs);
  EXPECT_EQ(events, serial_walk);
}

TEST(UnitScheduler, NothingPastAWinnerIsCommitted) {
  SweepConfig config = sweep_config();
  config.feature_sizes = {6};
  config.search.repetitions = 1;
  config.search.runs_per_model = 1;
  config.search.train.epochs = 10;
  config.search.accuracy_threshold = 0.2;  // candidate 0 wins
  config.search.prune_margin = 0.0;
  config.search.threads = 4;
  StudyCheckpoint checkpoint{"", sweep_config_hash(config)};
  std::mutex mutex;
  std::vector<std::size_t> announced;
  const ProgressFn progress = [&](const ProgressEvent& event) {
    std::lock_guard<std::mutex> lock(mutex);
    announced.push_back(event.units_done);
  };

  const SweepResult sweep = run_complexity_sweep(
      Family::Classical, config, &checkpoint, nullptr, nullptr, &progress);
  const SearchOutcome& outcome = sweep.levels.at(0).search.repetitions.at(0);
  ASSERT_TRUE(outcome.winner.has_value());
  EXPECT_EQ(outcome.evaluated.size(), 1u);
  EXPECT_EQ(checkpoint.completed_units(), 1u);
  EXPECT_EQ(announced, std::vector<std::size_t>{1});
}

TEST(UnitScheduler, CancelFromProgressHandlerStopsEveryLane) {
  SweepConfig config = sweep_config();
  config.search.threads = 4;
  util::CancelToken cancel;
  std::mutex mutex;
  std::size_t events = 0;
  const ProgressFn progress = [&](const ProgressEvent&) {
    std::lock_guard<std::mutex> lock(mutex);
    if (++events == 2) cancel.cancel("test");
  };
  EXPECT_THROW(run_complexity_sweep(Family::Classical, config, nullptr,
                                    nullptr, &cancel, &progress),
               util::Cancelled);
  // Every lane has returned, so the shared thread pool runs a fresh sweep
  // to completion.
  const std::string parallel = sweep_bytes(config);
  config.search.threads = 1;
  EXPECT_EQ(parallel, sweep_bytes(config));
}

}  // namespace
}  // namespace qhdl::search
