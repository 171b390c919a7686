// Durability contract (DESIGN.md §10): a sweep killed at an arbitrary unit
// boundary and resumed from its checkpoint produces byte-identical results
// to an uninterrupted run — serial and threaded — and a quarantined training
// run degrades the candidate gracefully instead of poisoning the sweep.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "core/config.hpp"
#include "data/preprocess.hpp"
#include "nn/dense.hpp"
#include "nn/trainer.hpp"
#include "search/checkpoint.hpp"
#include "search/experiment.hpp"
#include "search/results.hpp"
#include "test_helpers.hpp"
#include "util/fault_injection.hpp"

namespace qhdl::search {
namespace {

namespace fs = std::filesystem;

/// Small but non-trivial sweep: one level, 2 repetitions x 4 candidates,
/// unreachable threshold so every candidate is evaluated (8 units total).
SweepConfig sweep_config() {
  SweepConfig config = core::test_scale();
  config.search.runs_per_model = 2;
  config.search.repetitions = 2;
  config.search.train.epochs = 2;
  config.search.max_candidates = 4;
  config.search.prune_margin = 0.0;
  config.search.accuracy_threshold = 1.1;  // never met: no early winner
  return config;
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::FaultInjector::instance().configure("");
    path_ = (fs::temp_directory_path() /
             ("qhdl_ckpt_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()) +
              ".json"))
                .string();
    fs::remove(path_);
  }
  void TearDown() override {
    util::FaultInjector::instance().configure("");
    fs::remove(path_);
  }

  std::string path_;
};

TEST_F(CheckpointResumeTest, CandidateResultRoundTripsExactly) {
  CandidateResult original;
  original.spec = ModelSpec::make_hybrid(3, 2, qnn::AnsatzKind::BasicEntangler);
  original.avg_best_train_accuracy = 0.1 + 0.2;  // not exactly 0.3
  original.avg_best_val_accuracy = 1.0 / 3.0;
  original.flops = 123456.789012345;
  original.flops_forward = 54321.000000001;
  original.parameter_count = 42;
  original.runs = 4;
  original.failed_runs = 1;
  original.failures.push_back(RunFailure{1, 0, 7, "loss"});
  original.failures.push_back(RunFailure{1, 1, 0, "parameters"});
  original.meets_threshold = true;

  const CandidateResult restored = candidate_result_from_json(
      util::Json::parse(candidate_result_to_json(original).dump(2)));
  EXPECT_EQ(restored.spec.to_string(), original.spec.to_string());
  // Bit-exact doubles: the %.17g encoder must round-trip through the parser.
  EXPECT_EQ(restored.avg_best_train_accuracy,
            original.avg_best_train_accuracy);
  EXPECT_EQ(restored.avg_best_val_accuracy, original.avg_best_val_accuracy);
  EXPECT_EQ(restored.flops, original.flops);
  EXPECT_EQ(restored.flops_forward, original.flops_forward);
  EXPECT_EQ(restored.parameter_count, original.parameter_count);
  EXPECT_EQ(restored.runs, original.runs);
  EXPECT_EQ(restored.failed_runs, original.failed_runs);
  EXPECT_EQ(restored.meets_threshold, original.meets_threshold);
  ASSERT_EQ(restored.failures.size(), 2u);
  EXPECT_EQ(restored.failures[0].run, 1u);
  EXPECT_EQ(restored.failures[0].epoch, 7u);
  EXPECT_EQ(restored.failures[0].cause, "loss");
  EXPECT_EQ(restored.failures[1].attempt, 1u);
  EXPECT_EQ(restored.failures[1].cause, "parameters");

  CandidateResult classical;
  classical.spec = ModelSpec::make_classical({2, 10, 4});
  const CandidateResult back = candidate_result_from_json(
      candidate_result_to_json(classical));
  EXPECT_EQ(back.spec.to_string(), classical.spec.to_string());
  EXPECT_TRUE(back.failures.empty());
}

TEST_F(CheckpointResumeTest, RecordFindFlushLoadRoundTrip) {
  const UnitKey key{"classical", 6, 1, 3};
  EXPECT_EQ(key.to_string(), "classical/f6/r1/c3");

  CandidateResult result;
  result.spec = ModelSpec::make_classical({5});
  result.avg_best_val_accuracy = 0.625;
  {
    StudyCheckpoint checkpoint{path_, "hash-a"};
    EXPECT_EQ(checkpoint.load(), 0u);
    EXPECT_FALSE(checkpoint.find(key).has_value());
    checkpoint.record(key, result);
    checkpoint.flush();
  }
  StudyCheckpoint reloaded{path_, "hash-a"};
  EXPECT_EQ(reloaded.load(), 1u);
  const auto found = reloaded.find(key);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->spec.to_string(), result.spec.to_string());
  EXPECT_EQ(found->avg_best_val_accuracy, 0.625);
  EXPECT_FALSE(reloaded.find(UnitKey{"classical", 6, 1, 2}).has_value());
}

TEST_F(CheckpointResumeTest, StaleConfigHashRejected) {
  {
    StudyCheckpoint checkpoint{path_, "hash-a"};
    checkpoint.record(UnitKey{"classical", 6, 0, 0}, CandidateResult{});
    checkpoint.flush();
  }
  StudyCheckpoint stale{path_, "hash-b"};
  try {
    stale.load();
    FAIL() << "expected stale-checkpoint rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("stale checkpoint"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointResumeTest, CorruptManifestRejected) {
  util::Json::object().write_file(path_);  // missing version/hash/units
  StudyCheckpoint checkpoint{path_, "h"};
  EXPECT_THROW(checkpoint.load(), std::runtime_error);
}

TEST_F(CheckpointResumeTest, ConfigHashSeparatesProtocols) {
  const SweepConfig base = sweep_config();
  const std::string hash = sweep_config_hash(base);
  EXPECT_EQ(hash.size(), 16u);
  EXPECT_EQ(hash, sweep_config_hash(base));  // deterministic

  SweepConfig changed = base;
  changed.dataset_seed += 1;
  EXPECT_NE(sweep_config_hash(changed), hash);
  changed = base;
  changed.search.seed += 1;
  EXPECT_NE(sweep_config_hash(changed), hash);
  changed = base;
  changed.search.train.epochs += 1;
  EXPECT_NE(sweep_config_hash(changed), hash);
  changed = base;
  changed.feature_sizes.push_back(12);
  EXPECT_NE(sweep_config_hash(changed), hash);

  // Every result-affecting field, one at a time: the hash keys the result
  // cache and the workers' split cache, so a field it missed would let two
  // protocols share results.
  for (const testing::ConfigPerturbation& perturbation :
       testing::result_affecting_perturbations()) {
    changed = base;
    perturbation.apply(changed);
    EXPECT_NE(sweep_config_hash(changed), hash) << perturbation.field;
  }

  // Threads are excluded by the determinism guarantee: a resume may
  // legitimately use a different parallelism than the original run.
  changed = base;
  changed.search.threads = 8;
  EXPECT_EQ(sweep_config_hash(changed), hash);
}

/// Kills the sweep at unit-boundary arrival `crash_at`, resumes it from the
/// checkpoint with `resume_threads`, and requires the merged result to be
/// byte-identical to the uninterrupted baseline manifest.
void golden_resume(const std::string& path, std::size_t crash_threads,
                   std::size_t resume_threads, const char* crash_spec) {
  SweepConfig config = sweep_config();
  config.search.threads = 1;
  const std::string baseline =
      sweep_to_json(run_complexity_sweep(Family::Classical, config)).dump(2);

  const std::string hash = sweep_config_hash(config);
  config.search.threads = crash_threads;
  util::FaultInjector::instance().configure(crash_spec);
  {
    StudyCheckpoint checkpoint{path, hash};
    ASSERT_EQ(checkpoint.load(), 0u);
    EXPECT_THROW(run_complexity_sweep(Family::Classical, config, &checkpoint),
                 util::InjectedCrash);
  }
  util::FaultInjector::instance().configure("");

  // Fresh StudyCheckpoint instance = a restarted process.
  StudyCheckpoint resumed{path, hash};
  const std::size_t restored = resumed.load();
  ASSERT_GT(restored, 0u) << "crash landed before the first flush; the "
                             "scenario exercised nothing";
  ASSERT_LT(restored, 8u) << "crash landed after the last unit";
  config.search.threads = resume_threads;
  const std::string resumed_json =
      sweep_to_json(run_complexity_sweep(Family::Classical, config, &resumed))
          .dump(2);
  EXPECT_EQ(resumed_json, baseline);
  EXPECT_EQ(resumed.completed_units(), 8u);
}

TEST_F(CheckpointResumeTest, GoldenResumeSerial) {
  // threads=1 flushes after every unit; crash at unit 4 leaves 3 on disk.
  golden_resume(path_, 1, 1, "unit=crash@4");
}

TEST_F(CheckpointResumeTest, GoldenResumeThreaded) {
  // threads=4: both repetitions train side by side and commit in FLOPs
  // order each; the crash lands at the 6th commit, and the resumed search
  // replays what was flushed and retrains the rest, on 4 threads.
  golden_resume(path_, 4, 4, "unit=crash@6");
}

TEST_F(CheckpointResumeTest, ResumeAfterInjectedIoFailure) {
  // An IO fault (disk full) aborts the sweep but must leave the previous
  // manifest generation intact and resumable.
  SweepConfig config = sweep_config();
  config.search.threads = 1;
  const std::string baseline =
      sweep_to_json(run_complexity_sweep(Family::Classical, config)).dump(2);
  const std::string hash = sweep_config_hash(config);

  // Arrival 3 = the flush after unit 3; flushes 1-2 persisted 2 units.
  util::FaultInjector::instance().configure("io=fail@3");
  {
    StudyCheckpoint checkpoint{path_, hash};
    EXPECT_THROW(run_complexity_sweep(Family::Classical, config, &checkpoint),
                 std::runtime_error);
  }
  util::FaultInjector::instance().configure("");

  StudyCheckpoint resumed{path_, hash};
  ASSERT_EQ(resumed.load(), 2u);
  EXPECT_EQ(
      sweep_to_json(run_complexity_sweep(Family::Classical, config, &resumed))
          .dump(2),
      baseline);
}

TEST_F(CheckpointResumeTest, QuarantinedRunExcludedFromMeans) {
  // One candidate, 5 runs, serial. Poison the first batch loss of run 2
  // (0-indexed run 1): with run_retries=0 the run quarantines, the sweep
  // completes, and the means must equal a hand-computed average over the 4
  // healthy runs — whose streams are untouched by the failure.
  const SweepConfig sweep = sweep_config();
  SearchConfig config = sweep.search;
  config.runs_per_model = 5;
  config.repetitions = 1;
  config.max_candidates = 1;
  config.run_retries = 0;
  config.threads = 1;
  config.train.patience = 0;

  const data::Dataset dataset = level_dataset(6, sweep);
  const std::vector<ModelSpec> sorted = sort_by_flops(
      family_search_space(Family::Classical), dataset.features(),
      dataset.classes, config);

  // Replicate run_repeated_search's stream derivation so the expected value
  // is computed on the exact same streams.
  util::Rng rng{config.seed};
  util::Rng rep_rng = rng.split();
  data::TrainValSplit split =
      data::stratified_split(dataset, config.validation_fraction, rep_rng);
  data::standardize_split(split);
  std::vector<util::Rng> run_rngs;
  for (std::size_t run = 0; run < 5; ++run) {
    run_rngs.push_back(rep_rng.split());
  }

  const std::size_t n_train = split.train.x.rows();
  const std::size_t batches =
      (n_train + config.train.batch_size - 1) / config.train.batch_size;
  const std::size_t per_run = config.train.epochs * batches;

  // Expected means: train runs {0, 2, 3, 4} on their pre-split streams,
  // accumulating in run order exactly as the commit loop does.
  nn::TrainConfig train_config = config.train;
  train_config.early_stop_accuracy = config.accuracy_threshold;
  double train_sum = 0.0, val_sum = 0.0;
  for (const std::size_t run : {0, 2, 3, 4}) {
    util::Rng stream = run_rngs[run];
    auto model = build_from_spec(sorted[0], split.train.features(),
                                 split.train.classes,
                                 config.classical_activation, stream);
    nn::Adam optimizer{train_config.learning_rate};
    const nn::TrainHistory history = nn::train_classifier(
        *model, optimizer, split.train.x, split.train.y, split.val.x,
        split.val.y, train_config, stream);
    train_sum += history.best_train_accuracy;
    val_sum += history.best_val_accuracy;
  }

  // Poison the first loss of run 1: arrivals 1..per_run are run 0.
  util::FaultInjector::instance().configure(
      "loss=nan@" + std::to_string(per_run + 1));
  const RepeatedSearchResult result =
      run_repeated_search(sorted, dataset, config);
  util::FaultInjector::instance().configure("");

  ASSERT_EQ(result.repetitions.size(), 1u);
  ASSERT_EQ(result.repetitions[0].evaluated.size(), 1u);
  const CandidateResult& candidate = result.repetitions[0].evaluated[0];
  EXPECT_EQ(candidate.runs, 4u);
  EXPECT_EQ(candidate.failed_runs, 1u);
  ASSERT_EQ(candidate.failures.size(), 1u);
  EXPECT_EQ(candidate.failures[0].run, 1u);
  EXPECT_EQ(candidate.failures[0].attempt, 0u);
  EXPECT_EQ(candidate.failures[0].epoch, 0u);
  EXPECT_EQ(candidate.failures[0].cause, "loss");
  // Healthy runs contribute bit-identical accuracies despite the neighbour
  // failing, and the mean is over the 4 successes only.
  EXPECT_EQ(candidate.avg_best_train_accuracy, train_sum / 4.0);
  EXPECT_EQ(candidate.avg_best_val_accuracy, val_sum / 4.0);
}

TEST_F(CheckpointResumeTest, RetryRecoversRunOnNextStream) {
  const SweepConfig sweep = sweep_config();
  SearchConfig config = sweep.search;
  config.runs_per_model = 3;
  config.repetitions = 1;
  config.max_candidates = 1;
  config.run_retries = 1;
  config.threads = 1;

  const data::Dataset dataset = level_dataset(6, sweep);
  const std::vector<ModelSpec> sorted = sort_by_flops(
      family_search_space(Family::Classical), dataset.features(),
      dataset.classes, config);

  // Poison only the very first loss: run 0 attempt 0 fails, its retry (a
  // child stream) runs clean, and no run is quarantined.
  util::FaultInjector::instance().configure("loss=nan@1");
  const RepeatedSearchResult result =
      run_repeated_search(sorted, dataset, config);
  util::FaultInjector::instance().configure("");

  const CandidateResult& candidate = result.repetitions[0].evaluated[0];
  EXPECT_EQ(candidate.runs, 3u);
  EXPECT_EQ(candidate.failed_runs, 0u);
  ASSERT_EQ(candidate.failures.size(), 1u);
  EXPECT_EQ(candidate.failures[0].run, 0u);
  EXPECT_EQ(candidate.failures[0].attempt, 0u);
}

TEST_F(CheckpointResumeTest, ManifestEmitsPerRepetitionFailures) {
  SweepResult sweep;
  sweep.family = Family::Classical;
  LevelResult level;
  level.features = 6;
  SearchOutcome outcome;
  CandidateResult candidate;
  candidate.spec = ModelSpec::make_classical({5});
  candidate.runs = 4;
  candidate.failed_runs = 1;
  candidate.failures.push_back(RunFailure{1, 0, 3, "loss"});
  outcome.evaluated.push_back(candidate);
  outcome.candidates_trained = 1;
  level.search.repetitions.push_back(outcome);
  sweep.levels.push_back(level);

  const util::Json json = sweep_to_json(sweep);
  const util::Json& rep =
      json.at("levels").at(0).at("repetitions").at(0);
  ASSERT_TRUE(rep.contains("failures"));
  const util::Json& failure = rep.at("failures").at(0);
  EXPECT_EQ(failure.at("candidate_index").as_number(), 0.0);
  EXPECT_EQ(failure.at("candidate").as_string(), "[5]");
  EXPECT_EQ(failure.at("run").as_number(), 1.0);
  EXPECT_EQ(failure.at("epoch").as_number(), 3.0);
  EXPECT_EQ(failure.at("cause").as_string(), "loss");
}

}  // namespace
}  // namespace qhdl::search
