#include "search/grid_search.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "data/preprocess.hpp"
#include "flops/profiler.hpp"
#include "nn/fastpath.hpp"
#include "quantum/exec_plan.hpp"
#include "search/unit_scheduler.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qhdl::search {

namespace {

flops::FlopsReport spec_report(const ModelSpec& spec, std::size_t features,
                               std::size_t classes,
                               const SearchConfig& config) {
  return flops::profile_layers(
      spec_layer_infos(spec, features, classes, config.classical_activation),
      config.cost_model);
}

}  // namespace

std::vector<ModelSpec> sort_by_flops(std::vector<ModelSpec> specs,
                                     std::size_t features,
                                     std::size_t classes,
                                     const SearchConfig& config) {
  std::vector<std::pair<double, std::size_t>> keyed;
  keyed.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    keyed.emplace_back(
        spec_report(specs[i], features, classes, config).total(), i);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<ModelSpec> sorted;
  sorted.reserve(specs.size());
  for (const auto& [flops_total, index] : keyed) {
    sorted.push_back(std::move(specs[index]));
  }
  return sorted;
}

std::vector<util::Rng> split_run_rngs(const SearchConfig& config,
                                      util::Rng& rng) {
  if (config.runs_per_model == 0) {
    throw std::invalid_argument(
        "evaluate_candidate: runs_per_model must be >= 1");
  }
  std::vector<util::Rng> run_rngs;
  run_rngs.reserve(config.runs_per_model);
  for (std::size_t run = 0; run < config.runs_per_model; ++run) {
    run_rngs.push_back(rng.split());
  }
  return run_rngs;
}

SearchSplit draw_search_split(const data::Dataset& dataset,
                              const SearchConfig& config,
                              std::size_t repetition) {
  util::Rng root{config.seed};
  util::Rng stream = root.split();
  for (std::size_t rep = 0; rep < repetition; ++rep) stream = root.split();
  auto split = std::make_shared<data::TrainValSplit>(
      data::stratified_split(dataset, config.validation_fraction, stream));
  data::standardize_split(*split);
  return SearchSplit{std::move(split), stream};
}

namespace {

/// One run's quarantined outcome: a history when any attempt survived the
/// non-finite guard, plus a record of every guard trip along the way.
struct RunOutcome {
  std::optional<nn::TrainHistory> history;
  std::vector<RunFailure> failures;
};

/// Retry stream derivation: attempt 0 consumes the run's pre-split stream;
/// attempt k consumes the k-th chained child of it. Children are derived
/// from a copy, so retries never advance the repetition stream and never
/// perturb any other run — a neighbour's failure leaves healthy runs
/// bit-identical.
util::Rng attempt_stream(const util::Rng& base, std::size_t attempt) {
  util::Rng stream = base;
  for (std::size_t a = 0; a < attempt; ++a) stream = stream.split();
  return stream;
}

/// evaluate_candidate body on already-split run streams (one per run), the
/// streams the unit scheduler draws in FLOPs order at dispatch.
CandidateResult evaluate_candidate_with_rngs(const ModelSpec& spec,
                                             const data::TrainValSplit& split,
                                             const SearchConfig& config,
                                             std::vector<util::Rng>& run_rngs) {
  const std::size_t features = split.train.features();
  const std::size_t classes = split.train.classes;

  CandidateResult result;
  result.spec = spec;
  const auto report = spec_report(spec, features, classes, config);
  result.flops = report.total();
  result.flops_forward = report.forward_total;
  result.parameter_count = report.parameter_count;

  nn::TrainConfig train_config = config.train;
  train_config.early_stop_accuracy = config.accuracy_threshold;

  // Each run builds its own model/optimizer/workspace, so concurrent runs
  // share no mutable state: train_classifier's workspace fast path keeps all
  // training buffers per-model and the GEMM packing scratch is thread_local.
  const auto execute_run = [&](util::Rng& run_rng) {
    auto model = build_from_spec(spec, features, classes,
                                 config.classical_activation, run_rng);
    nn::Adam optimizer{train_config.learning_rate};
    return nn::train_classifier(*model, optimizer, split.train.x,
                                split.train.y, split.val.x, split.val.y,
                                train_config, run_rng);
  };

  // A non-finite loss/gradient quarantines the attempt instead of aborting
  // the sweep: bounded retries on the next deterministic child stream, then
  // skip-and-record. The quarantined run is excluded from the means.
  const auto run_with_quarantine = [&](std::size_t run) {
    RunOutcome outcome;
    for (std::size_t attempt = 0; attempt <= config.run_retries; ++attempt) {
      util::Rng stream = attempt_stream(run_rngs[run], attempt);
      try {
        outcome.history = execute_run(stream);
        return outcome;
      } catch (const nn::NonFiniteError& error) {
        outcome.failures.push_back(
            RunFailure{run, attempt, error.epoch(), error.kind()});
        util::log_warn("search: " + spec.to_string() + " run " +
                       std::to_string(run) + " attempt " +
                       std::to_string(attempt) + ": " + error.what() +
                       (attempt < config.run_retries
                            ? " — retrying on next stream"
                            : " — quarantining run"));
      }
    }
    return outcome;
  };

  double train_sum = 0.0;
  double val_sum = 0.0;
  std::size_t successes = 0;
  // Commit in run order so the floating-point sums match the serial path
  // bit-for-bit (and exactly match the pre-quarantine arithmetic when every
  // run is healthy).
  const auto commit = [&](RunOutcome& outcome) {
    for (RunFailure& failure : outcome.failures) {
      result.failures.push_back(std::move(failure));
    }
    if (outcome.history.has_value()) {
      train_sum += outcome.history->best_train_accuracy;
      val_sum += outcome.history->best_val_accuracy;
      ++successes;
    } else {
      ++result.failed_runs;
    }
  };

  // Run 0 always executes first, on the calling thread, and the prune
  // decision is taken from it alone. This makes the serial and parallel
  // paths follow literally the same decision sequence: the thread count
  // changes only where runs 1..N-1 execute, never which runs execute.
  RunOutcome first = run_with_quarantine(0);
  // Far below threshold after a full budget: averaging more runs cannot
  // rescue this candidate at bench scale. A quarantined run 0 never prunes:
  // there is no accuracy to judge by.
  const bool pruned =
      config.prune_margin > 0.0 && first.history.has_value() &&
      first.history->best_val_accuracy <
          config.accuracy_threshold - config.prune_margin;
  commit(first);

  if (!pruned && config.runs_per_model > 1) {
    std::vector<RunOutcome> outcomes(config.runs_per_model);
    util::parallel_for(1, config.runs_per_model, config.threads,
                       [&](std::size_t run) {
                         outcomes[run] = run_with_quarantine(run);
                       });
    for (std::size_t run = 1; run < config.runs_per_model; ++run) {
      commit(outcomes[run]);
    }
  }

  result.runs = successes;
  if (successes > 0) {
    result.avg_best_train_accuracy =
        train_sum / static_cast<double>(successes);
    result.avg_best_val_accuracy = val_sum / static_cast<double>(successes);
  }
  result.meets_threshold =
      !pruned && successes > 0 &&
      result.avg_best_train_accuracy >= config.accuracy_threshold &&
      result.avg_best_val_accuracy >= config.accuracy_threshold;
  return result;
}

}  // namespace

CandidateResult evaluate_candidate(const ModelSpec& spec,
                                   const data::TrainValSplit& split,
                                   const SearchConfig& config,
                                   util::Rng& rng) {
  std::vector<util::Rng> run_rngs = split_run_rngs(config, rng);
  return evaluate_candidate_with_rngs(spec, split, config, run_rngs);
}

CandidateResult evaluate_candidate(const ModelSpec& spec,
                                   const data::TrainValSplit& split,
                                   const SearchConfig& config,
                                   std::vector<util::Rng>& run_rngs) {
  if (run_rngs.size() != config.runs_per_model) {
    throw std::invalid_argument(
        "evaluate_candidate: expected " +
        std::to_string(config.runs_per_model) + " run streams, got " +
        std::to_string(run_rngs.size()));
  }
  return evaluate_candidate_with_rngs(spec, split, config, run_rngs);
}

SearchOutcome search_once(const std::vector<ModelSpec>& sorted_specs,
                          const data::TrainValSplit& split,
                          const SearchConfig& config, util::Rng& rng) {
  return search_once(sorted_specs, split, config, rng, ResumeContext{}, 0);
}

SearchOutcome search_once(const std::vector<ModelSpec>& sorted_specs,
                          const data::TrainValSplit& split,
                          const SearchConfig& config, util::Rng& rng,
                          const ResumeContext& resume,
                          std::size_t repetition) {
  UnitScheduler scheduler{config, resume};
  scheduler.add_search(sorted_specs, split, rng, repetition);
  return std::move(scheduler.run().front());
}

RepeatedSearchResult run_repeated_search(const std::vector<ModelSpec>& specs,
                                         const data::Dataset& dataset,
                                         const SearchConfig& config) {
  return run_repeated_search(specs, dataset, config, ResumeContext{});
}

RepeatedSearchResult run_repeated_search(const std::vector<ModelSpec>& specs,
                                         const data::Dataset& dataset,
                                         const SearchConfig& config,
                                         const ResumeContext& resume) {
  dataset.validate();
  if (specs.empty()) {
    throw std::invalid_argument("run_repeated_search: empty search space");
  }
  UnitScheduler scheduler{config, resume};
  scheduler.add_level(SearchLevel{
      resume.features, &specs, [&dataset] {
        // Lent, not copied: the caller's dataset outlives the call.
        return std::shared_ptr<const data::Dataset>(
            std::shared_ptr<const void>{}, &dataset);
      }});
  RepeatedSearchResult result = summarize_repetitions(scheduler.run());
  util::log_info(nn::fastpath::stats().to_string());
  util::log_info(quantum::plan_cache::stats().to_string());
  return result;
}

}  // namespace qhdl::search
