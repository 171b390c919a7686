// sweep_classical / sweep_hybrid: the bench-scale complexity sweep, timed
// end to end through search::run_complexity_sweep (untraced), and, in the
// traced run, re-composed from the same public calls with a span around
// each layer, then replayed unit by unit through the trainer's public
// workspace and Module calls.
#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/config.hpp"
#include "data/preprocess.hpp"
#include "flops/profiler.hpp"
#include "nn/fastpath.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "nn/workspace.hpp"
#include "quantum/exec_plan.hpp"
#include "quantum/kernels.hpp"
#include "search/experiment.hpp"
#include "trace.hpp"
#include "util/backend_registry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace qhdl;

namespace {

std::vector<search::Family> workload_families(bool hybrid) {
  if (hybrid) return {search::Family::HybridBel, search::Family::HybridSel};
  return {search::Family::Classical};
}

search::SweepConfig sweep_config(const RunOptions& options,
                                 std::size_t threads) {
  search::SweepConfig config = core::bench_scale();
  if (options.tiny) {
    config.feature_sizes = {10, 110};
    config.spiral.points = 150;
    config.search.runs_per_model = 1;
    config.search.repetitions = 1;
    config.search.train.epochs = 5;
    config.search.max_candidates = 3;
  }
  config.search.threads = threads;
  // The seed orders the levels, which are independent and result-invariant
  // in their order; it leaves the protocol's own seeds alone. Where a
  // FLOPs-ordered search first crosses the threshold depends chaotically on
  // the training streams (six search seeds gave 1.6-18 s for the classical
  // sweep), so varying them would make run-to-run spread measure the seed,
  // not the code.
  util::Rng order_rng{options.seed};
  order_rng.shuffle(config.feature_sizes);
  return config;
}

std::string winners_text(const std::vector<search::SweepResult>& sweeps) {
  std::ostringstream out;
  char line[512];
  for (const search::SweepResult& sweep : sweeps) {
    std::vector<const search::LevelResult*> levels;
    for (const auto& level : sweep.levels) levels.push_back(&level);
    std::sort(levels.begin(), levels.end(),
              [](const auto* a, const auto* b) {
                return a->features < b->features;
              });
    for (const search::LevelResult* level : levels) {
      const auto& reps = level->search.repetitions;
      for (std::size_t rep = 0; rep < reps.size(); ++rep) {
        const auto& winner = reps[rep].winner;
        if (!winner.has_value()) {
          std::snprintf(line, sizeof(line),
                        "%s F=%zu rep=%zu winner=none units=%zu\n",
                        search::family_name(sweep.family).c_str(),
                        level->features, rep, reps[rep].evaluated.size());
        } else {
          std::snprintf(
              line, sizeof(line),
              "%s F=%zu rep=%zu winner=%s flops=%.17g params=%zu "
              "train_acc=%.17g val_acc=%.17g units=%zu\n",
              search::family_name(sweep.family).c_str(), level->features,
              rep, winner->spec.to_string().c_str(), winner->flops,
              winner->parameter_count, winner->avg_best_train_accuracy,
              winner->avg_best_val_accuracy, reps[rep].evaluated.size());
        }
        out << line;
      }
    }
  }
  return out.str();
}

std::size_t committed_units(const search::SweepResult& sweep) {
  std::size_t units = 0;
  for (const auto& level : sweep.levels) {
    for (const auto& rep : level.search.repetitions) {
      units += rep.evaluated.size();
    }
  }
  return units;
}

std::size_t quarantined_units(const search::SweepResult& sweep) {
  std::size_t units = 0;
  for (const auto& level : sweep.levels) {
    for (const auto& rep : level.search.repetitions) {
      for (const auto& unit : rep.evaluated) {
        if (unit.failed_runs > 0) ++units;
      }
    }
  }
  return units;
}

/// The paper's headline figure: growth (%) of the winners' mean FLOPs and
/// parameters from the smallest to the largest feature level.
std::vector<std::string> growth_lines(
    const std::vector<search::SweepResult>& sweeps) {
  std::vector<std::string> lines;
  for (const search::SweepResult& sweep : sweeps) {
    const search::LevelResult* lo = nullptr;
    const search::LevelResult* hi = nullptr;
    for (const auto& level : sweep.levels) {
      if (lo == nullptr || level.features < lo->features) lo = &level;
      if (hi == nullptr || level.features > hi->features) hi = &level;
    }
    char line[256];
    if (lo == nullptr || lo->search.successful_repetitions == 0 ||
        hi->search.successful_repetitions == 0) {
      std::snprintf(line, sizeof(line),
                    "growth %s F=%zu->%zu: n/a (a level has no winner)",
                    search::family_name(sweep.family).c_str(),
                    lo ? lo->features : 0, hi ? hi->features : 0);
    } else {
      const double flops = 100.0 * (hi->search.mean_winner_flops /
                                        lo->search.mean_winner_flops -
                                    1.0);
      const double params = 100.0 * (hi->search.mean_winner_parameters /
                                         lo->search.mean_winner_parameters -
                                     1.0);
      std::snprintf(line, sizeof(line),
                    "growth %s F=%zu->%zu: flops %+.1f%% params %+.1f%%",
                    search::family_name(sweep.family).c_str(), lo->features,
                    hi->features, flops, params);
    }
    lines.emplace_back(line);
  }
  return lines;
}

// ----------------------------------------------------------------------
// Traced replay: the trainer's loop, call for call, with a span around
// each layer's public entry point.

struct ReplayTotals {
  std::uint64_t workspace_steps = 0;
  std::uint64_t reference_steps = 0;
  std::uint64_t reference_step_allocations = 0;
  double dense_flops = 0.0;      ///< modeled, classical layers of hybrids
  double computed_bytes = 0.0;   ///< statevector rows x 2^q x 16 B
};

enum class LayerGroup { Dense, Quantum };

/// Per-sample modeled FLOPs of a hybrid's classical (dense + activation)
/// layers.
struct DenseFlops {
  double forward = 0.0;
  double backward = 0.0;
};

DenseFlops dense_flops(const search::ModelSpec& spec, std::size_t features,
                       std::size_t classes,
                       const search::SearchConfig& config) {
  const flops::FlopsReport report = flops::profile_layers(
      search::spec_layer_infos(spec, features, classes,
                               config.classical_activation),
      config.cost_model);
  DenseFlops out;
  for (const flops::LayerFlops& layer : report.layers) {
    if (layer.kind == "quantum") continue;
    out.forward += layer.forward;
    out.backward += layer.backward;
  }
  return out;
}

bool all_parameters_finite(nn::Module& model) {
  for (const nn::Parameter* parameter : model.parameters()) {
    for (double v : parameter->value.data()) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

/// Forward through every layer of `model`, one span per layer.
tensor::Tensor traced_forward(nn::Sequential& model,
                              const std::vector<LayerGroup>& groups,
                              const tensor::Tensor& input, Tracer& tracer,
                              std::int64_t parent) {
  tensor::Tensor x = input;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    LeafSpan span(tracer,
                  groups[i] == LayerGroup::Quantum ? "qnn.layer_fwd"
                                                   : "nn.dense_fwd",
                  parent);
    x = model.layer(i).forward(x);
  }
  return x;
}

/// Mirrors nn::train_classifier (src/nn/trainer.cpp) step for step, so the
/// replayed history is bit-identical to the sweep's.
nn::TrainHistory traced_train(nn::Sequential& model, nn::Optimizer& optimizer,
                              const data::TrainValSplit& split,
                              const nn::TrainConfig& config,
                              const DenseFlops& flops, util::Rng& rng,
                              Tracer& tracer, std::int64_t parent,
                              ReplayTotals& totals) {
  const tensor::Tensor& x_train = split.train.x;
  const tensor::Tensor& x_val = split.val.x;
  const std::vector<std::size_t>& y_train = split.train.y;
  const std::vector<std::size_t>& y_val = split.val.y;
  const std::size_t n = x_train.rows();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  std::unique_ptr<nn::TrainWorkspace> workspace;
  if (!nn::fastpath::force_reference()) {
    workspace = nn::TrainWorkspace::compile(
        model, std::min(config.batch_size, n), std::max(n, x_val.rows()));
  }
  std::vector<LayerGroup> groups;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    groups.push_back(model.layer(i).info().kind == "quantum"
                         ? LayerGroup::Quantum
                         : LayerGroup::Dense);
  }

  const std::size_t full_rows = std::min(config.batch_size, n);
  const std::size_t tail_rows = n % config.batch_size;
  tensor::Tensor x_batch_full, x_batch_tail;
  std::vector<std::size_t> y_batch;
  if (!workspace && n > 0) {
    x_batch_full = tensor::Tensor{tensor::Shape{full_rows, x_train.cols()}};
    if (tail_rows != 0 && tail_rows != full_rows) {
      x_batch_tail = tensor::Tensor{tensor::Shape{tail_rows, x_train.cols()}};
    }
    y_batch.reserve(full_rows);
  }

  nn::SoftmaxCrossEntropy loss_fn;
  nn::TrainHistory history;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    if (config.shuffle) rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < n; begin += config.batch_size) {
      const std::size_t end = std::min(begin + config.batch_size, n);
      const std::span<const std::size_t> rows{order.data() + begin,
                                              end - begin};
      double batch_loss = 0.0;
      if (workspace) {
        LeafSpan span(tracer, "nn.workspace_step", parent);
        batch_loss = workspace->train_step(x_train, y_train, rows, optimizer);
        ++totals.workspace_steps;
      } else {
        tensor::Tensor& x_batch =
            rows.size() == full_rows ? x_batch_full : x_batch_tail;
        nn::slice_rows_into(x_train, rows, x_batch);
        y_batch.resize(rows.size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
          y_batch[i] = y_train[rows[i]];
        }
        const bool traced = tracer.enabled();
        const std::uint64_t allocations_before =
            traced ? thread_allocations() - thread_tracer_allocations() : 0;
        {
          LeafSpan span(tracer, "nn.optimizer", parent);
          model.zero_grad();
        }
        const tensor::Tensor logits =
            traced_forward(model, groups, x_batch, tracer, parent);
        nn::LossResult loss;
        {
          LeafSpan span(tracer, "nn.loss", parent);
          loss = loss_fn.evaluate(logits, y_batch);
        }
        tensor::Tensor grad = loss.grad;
        for (std::size_t i = groups.size(); i-- > 0;) {
          LeafSpan span(tracer,
                        groups[i] == LayerGroup::Quantum ? "qnn.layer_bwd"
                                                         : "nn.dense_bwd",
                        parent);
          grad = model.layer(i).backward(grad);
        }
        {
          LeafSpan span(tracer, "nn.optimizer", parent);
          optimizer.step(model.parameters());
        }
        if (traced) {
          totals.reference_step_allocations += thread_allocations() -
                                               thread_tracer_allocations() -
                                               allocations_before;
        }
        ++totals.reference_steps;
        totals.dense_flops += static_cast<double>(rows.size()) *
                              (flops.forward + flops.backward);
        batch_loss = loss.value;
      }
      if (config.finite_guard && !std::isfinite(batch_loss)) {
        throw nn::NonFiniteError("loss", epoch);
      }
      epoch_loss += batch_loss;
      ++batches;
    }
    if (config.finite_guard && !all_parameters_finite(model)) {
      throw nn::NonFiniteError("parameters", epoch);
    }

    double train_accuracy = 0.0;
    double val_accuracy = 0.0;
    {
      ScopedSpan eval(tracer, "nn.eval", parent);
      if (workspace) {
        train_accuracy = workspace->evaluate_accuracy(x_train, y_train);
        val_accuracy = workspace->evaluate_accuracy(x_val, y_val);
      } else {
        train_accuracy = nn::accuracy(
            traced_forward(model, groups, x_train, tracer, eval.index()),
            y_train);
        val_accuracy = nn::accuracy(
            traced_forward(model, groups, x_val, tracer, eval.index()),
            y_val);
        totals.dense_flops +=
            static_cast<double>(x_train.rows() + x_val.rows()) *
            flops.forward;
      }
    }
    history.best_train_accuracy =
        std::max(history.best_train_accuracy, train_accuracy);
    history.best_val_accuracy =
        std::max(history.best_val_accuracy, val_accuracy);
    history.epochs_run = epoch + 1;
    if (config.early_stop_accuracy > 0.0 &&
        history.best_train_accuracy >= config.early_stop_accuracy &&
        history.best_val_accuracy >= config.early_stop_accuracy) {
      break;
    }
    // config.patience is 0 in every sweep protocol (checked by the caller).
  }
  return history;
}

/// Mirrors evaluate_candidate (src/search/grid_search.cpp): run 0 decides
/// pruning, retries use chained child streams, means commit in run order.
search::CandidateResult traced_candidate(
    const search::ModelSpec& spec, const data::TrainValSplit& split,
    const search::SearchConfig& config, const std::vector<util::Rng>& run_rngs,
    Tracer& tracer, std::int64_t parent, ReplayTotals& totals) {
  const std::size_t features = split.train.features();
  const std::size_t classes = split.train.classes;
  nn::TrainConfig train_config = config.train;
  train_config.early_stop_accuracy = config.accuracy_threshold;
  const DenseFlops flops = dense_flops(spec, features, classes, config);

  search::CandidateResult result;
  result.spec = spec;
  double train_sum = 0.0;
  double val_sum = 0.0;
  bool pruned = false;
  for (std::size_t run = 0; run < config.runs_per_model && !pruned; ++run) {
    std::optional<nn::TrainHistory> history;
    for (std::size_t attempt = 0; attempt <= config.run_retries; ++attempt) {
      util::Rng stream = run_rngs[run];
      for (std::size_t a = 0; a < attempt; ++a) stream = stream.split();
      ScopedSpan run_span(tracer, "search.run", parent);
      try {
        auto model = search::build_from_spec(
            spec, features, classes, config.classical_activation, stream);
        nn::Adam optimizer{train_config.learning_rate};
        history = traced_train(*model, optimizer, split, train_config, flops,
                               stream, tracer, run_span.index(), totals);
        break;
      } catch (const nn::NonFiniteError& error) {
        result.failures.push_back(search::RunFailure{run, attempt,
                                                     error.epoch(),
                                                     error.kind()});
      }
    }
    if (history.has_value()) {
      train_sum += history->best_train_accuracy;
      val_sum += history->best_val_accuracy;
      ++result.runs;
    } else {
      ++result.failed_runs;
    }
    if (run == 0) {
      pruned = config.prune_margin > 0.0 && history.has_value() &&
               history->best_val_accuracy <
                   config.accuracy_threshold - config.prune_margin;
    }
  }
  if (result.runs > 0) {
    result.avg_best_train_accuracy =
        train_sum / static_cast<double>(result.runs);
    result.avg_best_val_accuracy = val_sum / static_cast<double>(result.runs);
  }
  result.meets_threshold =
      !pruned && result.runs > 0 &&
      result.avg_best_train_accuracy >= config.accuracy_threshold &&
      result.avg_best_val_accuracy >= config.accuracy_threshold;
  return result;
}

bool same_unit(const search::CandidateResult& a,
               const search::CandidateResult& b) {
  return a.spec.to_string() == b.spec.to_string() &&
         a.avg_best_train_accuracy == b.avg_best_train_accuracy &&
         a.avg_best_val_accuracy == b.avg_best_val_accuracy &&
         a.runs == b.runs && a.failed_runs == b.failed_runs &&
         a.meets_threshold == b.meets_threshold;
}

// ----------------------------------------------------------------------
// Traced sweep: run_complexity_sweep's level loop from its public parts.

struct ProgressMark {
  Clock::time_point at;
  std::size_t repetition = 0;
  std::size_t units_done = 0;
};

struct TracedLevel {
  std::size_t features = 0;
  data::Dataset dataset;
  std::int64_t search_span = -1;
  Clock::time_point search_start;
  std::vector<ProgressMark> marks;
  double level_s = 0.0;
};

struct TracedSweep {
  search::SweepResult result;
  std::vector<TracedLevel> levels;
  std::size_t candidates_costed = 0;
};

TracedSweep traced_sweep(search::Family family,
                         const search::SweepConfig& config, Tracer& tracer,
                         std::int64_t root) {
  const std::vector<search::ModelSpec> specs =
      search::family_search_space(family);
  TracedSweep sweep;
  sweep.result.family = family;
  sweep.result.levels.resize(config.feature_sizes.size());
  sweep.levels.resize(config.feature_sizes.size());
  const std::string family_id = search::family_name(family);
  util::parallel_for(
      0, config.feature_sizes.size(), config.search.threads,
      [&](std::size_t i) {
        const std::size_t features = config.feature_sizes[i];
        const std::string level_id = family_id + "/f" + std::to_string(features);
        TracedLevel& level = sweep.levels[i];
        level.features = features;
        const auto level_start = Clock::now();
        ScopedSpan level_span(tracer, "search.level", root, level_id);
        {
          ScopedSpan span(tracer, "data.level_dataset", level_span.index(),
                          level_id);
          level.dataset = search::level_dataset(features, config);
        }
        {
          ScopedSpan span(tracer, "flops.sort", level_span.index(),
                          level_id);
          (void)search::sort_by_flops(specs, features,
                                      level.dataset.classes, config.search);
        }
        std::mutex marks_mutex;
        search::ProgressFn progress =
            [&](const search::ProgressEvent& event) {
              std::lock_guard<std::mutex> lock(marks_mutex);
              level.marks.push_back(ProgressMark{
                  Clock::now(), event.repetition, event.units_done});
            };
        search::ResumeContext resume;
        resume.family = family_id;
        resume.features = features;
        resume.progress = &progress;
        search::LevelResult result;
        result.features = features;
        {
          ScopedSpan span(tracer, "search.repeated_search",
                          level_span.index(), level_id);
          level.search_span = span.index();
          level.search_start = Clock::now();
          result.search = search::run_repeated_search(
              specs, level.dataset, config.search, resume);
        }
        sweep.result.levels[i] = std::move(result);
        level.level_s = seconds_since(level_start);
      });
  sweep.candidates_costed = specs.size() * config.feature_sizes.size();
  return sweep;
}

/// Wall time of the replay, traced and untraced.
struct ReplayTimes {
  double traced_s = 0.0;
  double untraced_s = 0.0;
  std::size_t units = 0;
};

/// Replays every committed unit of `sweep` (sequentially) twice, once
/// traced and once untraced, alternating which goes first so that machine
/// drift cancels out of trace.overhead_frac. Each traced unit replay is a
/// root span of its own ("replay"), so the untraced replays stay outside
/// the traced wall. Each replay is attempted, and failed when it differs
/// from the sweep's result.
void replay_sweep(const TracedSweep& sweep, const search::SweepConfig& config,
                  Tracer& tracer, ReplayTotals& totals, ReplayTimes& times,
                  WorkloadResult& out) {
  const std::vector<search::ModelSpec> specs =
      search::family_search_space(sweep.result.family);
  const std::string family_id = search::family_name(sweep.result.family);
  Tracer untraced{false};
  ReplayTotals untraced_totals;
  for (std::size_t li = 0; li < sweep.levels.size(); ++li) {
    const TracedLevel& level = sweep.levels[li];
    const search::RepeatedSearchResult& committed =
        sweep.result.levels[li].search;
    const std::vector<search::ModelSpec> sorted = search::sort_by_flops(
        specs, level.features, level.dataset.classes, config.search);
    util::Rng rng{config.search.seed};
    for (std::size_t rep = 0; rep < committed.repetitions.size(); ++rep) {
      util::Rng rep_rng = rng.split();
      data::TrainValSplit split = data::stratified_split(
          level.dataset, config.search.validation_fraction, rep_rng);
      data::standardize_split(split);
      const auto& units = committed.repetitions[rep].evaluated;
      for (std::size_t c = 0; c < units.size(); ++c) {
        std::vector<util::Rng> run_rngs;
        for (std::size_t r = 0; r < config.search.runs_per_model; ++r) {
          run_rngs.push_back(rep_rng.split());
        }
        const std::string unit_id = family_id + "/f" +
                                    std::to_string(level.features) + "/r" +
                                    std::to_string(rep) + "/c" +
                                    std::to_string(c);
        const auto check = [&](const search::CandidateResult& replayed,
                               const char* mode) {
          ++out.attempted;
          if (same_unit(replayed, units[c])) return;
          ++out.failed;
          out.check_errors.push_back(
              std::string{mode} + " replay mismatch at " + unit_id +
              ": sweep " + units[c].spec.to_string() + " val " +
              std::to_string(units[c].avg_best_val_accuracy) + ", replay " +
              replayed.spec.to_string() + " val " +
              std::to_string(replayed.avg_best_val_accuracy));
        };
        const auto replay_untraced = [&] {
          const auto start = Clock::now();
          const search::CandidateResult replayed =
              traced_candidate(sorted[c], split, config.search, run_rngs,
                               untraced, -1, untraced_totals);
          times.untraced_s += seconds_since(start);
          check(replayed, "untraced");
        };
        const auto replay_traced = [&] {
          const quantum::KernelStatsSnapshot kernels_before =
              quantum::kernels::stats();
          const auto start = Clock::now();
          search::CandidateResult replayed;
          {
            ScopedSpan unit_span(tracer, "replay", -1, unit_id);
            replayed = traced_candidate(sorted[c], split, config.search,
                                        run_rngs, tracer, unit_span.index(),
                                        totals);
          }
          times.traced_s += seconds_since(start);
          check(replayed, "traced");
          if (sorted[c].family == search::ModelSpec::Family::Hybrid) {
            const quantum::KernelStatsSnapshot after =
                quantum::kernels::stats();
            const std::uint64_t rows =
                after.batched_rows > kernels_before.batched_rows
                    ? after.batched_rows - kernels_before.batched_rows
                    : after.total_dispatches() -
                          kernels_before.total_dispatches();
            totals.computed_bytes +=
                static_cast<double>(rows) *
                std::ldexp(16.0, static_cast<int>(sorted[c].hybrid.qubits));
          }
        };
        if (times.units++ % 2 == 0) {
          replay_traced();
          replay_untraced();
        } else {
          replay_untraced();
          replay_traced();
        }
      }
    }
  }
}

/// Everything one sweep op produced: results plus its wall and CPU time.
struct SweepOp {
  std::vector<search::SweepResult> results;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

SweepOp untraced_op(const std::vector<search::Family>& families,
                    const search::SweepConfig& config) {
  reset_layer_state();
  SweepOp op;
  const double cpu_start = cpu_seconds();
  const auto start = Clock::now();
  for (search::Family family : families) {
    op.results.push_back(search::run_complexity_sweep(family, config));
  }
  op.wall_s = seconds_since(start);
  op.cpu_s = cpu_seconds() - cpu_start;
  return op;
}

/// Output check of one sweep operation: its `units` are attempted, and all
/// fail when its winners differ from `expected` (the committed reference
/// when one is given, the run's first sweep otherwise); else only the
/// quarantined ones do.
void check_winners(const std::vector<search::SweepResult>& results,
                   const std::string& expected, const std::string& what,
                   WorkloadResult& out) {
  std::size_t units = 0;
  std::size_t quarantined = 0;
  for (const auto& sweep : results) {
    units += committed_units(sweep);
    quarantined += quarantined_units(sweep);
  }
  out.attempted += units;
  if (winners_text(results) == expected) {
    out.failed += quarantined;
    return;
  }
  out.failed += units;
  out.check_errors.push_back(what + ": winners differ from the reference");
}

}  // namespace

void sweep_setup() {
  // Kernel backend selection (CPUID probe + registry resolution), a cold
  // plan cache with zeroed counters, and the library's shared thread pool.
  (void)util::simd::active_backend();
  reset_layer_state();
  (void)util::ThreadPool::shared();
}

WorkloadResult run_sweep_workload(const RunOptions& options, bool hybrid) {
  const std::size_t threads = hybrid ? load_width(options.nproc) : 1;
  const search::SweepConfig config = sweep_config(options, threads);
  const std::vector<search::Family> families = workload_families(hybrid);
  if (config.search.train.patience != 0) {
    throw std::logic_error("sweep replay assumes patience == 0");
  }

  WorkloadResult out;
  const double setup_s = spawned_setup_seconds(options, kSetupProbes);
  sweep_setup();

  std::string expected;
  if (!options.reference_path.empty()) {
    expected = read_text_file(options.reference_path);
  }

  std::vector<double> walls;
  std::vector<double> cpus;
  const double cpu_start = cpu_seconds();
  const auto timed_start = Clock::now();
  SweepOp first;
  do {
    SweepOp op = untraced_op(families, config);
    if (walls.empty()) {
      const std::string winners = winners_text(op.results);
      if (!options.winners_out.empty()) {
        write_text_file(options.winners_out, winners);
      }
      if (expected.empty()) expected = winners;
      first = op;
    }
    check_winners(op.results, expected,
                  "sweep " + std::to_string(walls.size()), out);
    walls.push_back(op.wall_s);
    cpus.push_back(op.cpu_s);
  } while (!options.trace && seconds_since(timed_start) < options.seconds);
  const double timed_s = seconds_since(timed_start);
  const double timed_cpu = cpu_seconds() - cpu_start;
  const double rss_mb = rss_peak_mb();

  std::string walls_line = "sweep walls (s):";
  for (double wall : walls) {
    char text[32];
    std::snprintf(text, sizeof(text), " %.3f", wall);
    walls_line += text;
  }
  out.notes.push_back(walls_line);
  for (const std::string& line : growth_lines(first.results)) {
    out.notes.push_back(line);
  }
  out.notes.push_back("winners checked against " +
                      (options.reference_path.empty()
                           ? std::string{"the run's first sweep"}
                           : options.reference_path));

  const double sweep_s = median(walls);
  if (!options.trace) {
    out.metrics = {
        {"setup_s", setup_s, "s"},
        {"op_mean_ms", mean(walls) * 1e3, "ms"},
        {"computed_mean_ms", mean(walls) * 1e3, "ms"},
        {"ops_per_s", static_cast<double>(walls.size()) / timed_s, "1/s"},
        {"cpu_s_per_op", median(cpus), "s"},
        {"rss_peak_mb", rss_mb, "MB"},
    };
    out.report = {
        {"sweep_s", sweep_s, "s"},
        {"sweeps", static_cast<double>(walls.size()), "count"},
        {"cpu_s", timed_cpu, "s"},
        {"failed_frac",
         ratio_or_zero(static_cast<double>(out.failed),
                       static_cast<double>(out.attempted)),
         "ratio"},
    };
    return out;
  }

  // Traced run: one traced sweep op (same families, same config), then a
  // unit-by-unit replay of everything it committed.
  Tracer tracer;
  reset_layer_state();
  const auto fast_before = nn::fastpath::stats();
  const auto traced_start = Clock::now();
  std::vector<TracedSweep> traced;
  for (search::Family family : families) {
    ScopedSpan root(tracer, "sweep", -1, search::family_name(family));
    traced.push_back(traced_sweep(family, config, tracer, root.index()));
  }
  const double traced_wall = seconds_since(traced_start);
  const auto fast_after = nn::fastpath::stats();
  const auto kernels_delta = quantum::kernels::stats();
  const auto plans = quantum::plan_cache::stats();

  std::vector<search::SweepResult> traced_results;
  for (const auto& sweep : traced) traced_results.push_back(sweep.result);
  check_winners(traced_results, expected, "traced sweep", out);

  ReplayTotals totals;
  ReplayTimes replay_times;
  for (const TracedSweep& sweep : traced) {
    replay_sweep(sweep, config, tracer, totals, replay_times, out);
  }

  // Unit windows: consecutive progress marks within a level's search.
  std::vector<double> windows;
  std::vector<double> level_walls;
  std::size_t units_committed = 0;
  std::size_t progress_units = 0;
  double committed_runs = 0.0;
  for (const TracedSweep& sweep : traced) {
    units_committed += committed_units(sweep.result);
    for (const auto& level : sweep.result.levels) {
      for (const auto& rep : level.search.repetitions) {
        for (const auto& unit : rep.evaluated) {
          committed_runs += static_cast<double>(unit.runs +
                                                unit.failures.size());
        }
      }
    }
    for (const TracedLevel& level : sweep.levels) {
      level_walls.push_back(level.level_s);
      std::vector<ProgressMark> marks = level.marks;
      std::sort(marks.begin(), marks.end(),
                [](const auto& a, const auto& b) { return a.at < b.at; });
      Clock::time_point previous = level.search_start;
      std::map<std::size_t, std::size_t> last_done;
      for (const ProgressMark& mark : marks) {
        windows.push_back(seconds_between(previous, mark.at));
        tracer.record("search.unit_window", previous, mark.at,
                      level.search_span);
        previous = mark.at;
        last_done[mark.repetition] = mark.units_done;
      }
      for (const auto& [rep, done] : last_done) progress_units += done;
    }
  }
  if (progress_units != units_committed) {
    ++out.failed;
    out.check_errors.push_back(
        "progress events report " + std::to_string(progress_units) +
        " units, search outcomes " + std::to_string(units_committed));
  }

  const std::map<std::string, double> self = tracer.self_seconds();
  const auto self_s = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double runs_executed =
      static_cast<double>((fast_after.workspace_runs - fast_before.workspace_runs) +
                          (fast_after.reference_runs - fast_before.reference_runs));
  const double dense_s = self_s("nn.dense_fwd") + self_s("nn.dense_bwd");
  double level_max = 0.0;
  double level_sum = 0.0;
  for (double w : level_walls) {
    level_max = std::max(level_max, w);
    level_sum += w;
  }

  out.metrics = layer_metric_template();
  const auto set = [&](const char* name, double value) {
    set_metric(out.metrics, name, value);
  };
  set("data.level_dataset_s", self_s("data.level_dataset"));
  set("flops.sort_s", self_s("flops.sort"));
  std::size_t candidates_costed = 0;
  for (const TracedSweep& sweep : traced) {
    candidates_costed += sweep.candidates_costed;
  }
  set("flops.candidates_costed", static_cast<double>(candidates_costed));
  set("search.units_committed", static_cast<double>(units_committed));
  set("search.runs_executed", runs_executed);
  set("search.useful_run_ratio", ratio_or_zero(committed_runs, runs_executed));
  set("search.unit_p50_s", median(windows));
  set("search.unit_p99_s", percentile(windows, 0.99));
  set("search.level_max_s", level_max);
  set("search.level_sum_s", level_sum);
  set("nn.workspace_step_s", self_s("nn.workspace_step"));
  set("nn.workspace_steps", static_cast<double>(totals.workspace_steps));
  set("nn.eval_s", self_s("nn.eval"));
  set("nn.dense_fwd_s", self_s("nn.dense_fwd"));
  set("nn.dense_bwd_s", self_s("nn.dense_bwd"));
  set("nn.loss_s", self_s("nn.loss"));
  set("nn.optimizer_s", self_s("nn.optimizer"));
  set("nn.reference_runs", static_cast<double>(fast_after.reference_runs -
                                               fast_before.reference_runs));
  set("nn.allocs_per_step",
      ratio_or_zero(static_cast<double>(totals.reference_step_allocations),
                    static_cast<double>(totals.reference_steps)));
  set("nn.dense_gflops", ratio_or_zero(totals.dense_flops, dense_s) / 1e9);
  set("qnn.layer_fwd_s", self_s("qnn.layer_fwd"));
  set("qnn.layer_bwd_s", self_s("qnn.layer_bwd"));
  set("quantum.dispatches",
      static_cast<double>(kernels_delta.total_dispatches()));
  set("quantum.batched_rows", static_cast<double>(kernels_delta.batched_rows));
  set("quantum.fused_gates", static_cast<double>(kernels_delta.fused_gates));
  set("quantum.plan_hits", static_cast<double>(plans.hits));
  set("quantum.plan_compiled", static_cast<double>(plans.compiled));
  set("quantum.computed_gbytes", totals.computed_bytes / 1e9);
  // The replay is where the per-layer spans are, so that is where their
  // cost is measured: traced against untraced replay of the same units.
  set("trace.overhead_frac",
      replay_times.traced_s / replay_times.untraced_s - 1.0);
  set("trace.coverage_frac", tracer.coverage());

  out.report = {
      {"sweep_s", sweep_s, "s"},
      {"traced_sweep_s", traced_wall, "s"},
      {"replay_traced_s", replay_times.traced_s, "s"},
      {"replay_untraced_s", replay_times.untraced_s, "s"},
      {"coverage_sweep_frac", tracer.coverage("sweep"), "ratio"},
      {"coverage_replay_frac", tracer.coverage("replay"), "ratio"},
  };
  tracer.write_jsonl(options.trace_path);
  out.notes.push_back("spans written to " + options.trace_path);
  return out;
}

}  // namespace perfbench
