// Runs the paper's FLOPs-sorted grid search at one complexity level for a
// chosen family, printing every candidate trained along the way — a
// single-level view of the engine behind Figs. 6-8.
//
//   ./model_search --family classical --features 10
//   ./model_search --family sel --features 60 --runs 2
//
// Pass --checkpoint <path> for durable execution: completed candidates are
// checkpointed (atomic rename) and a re-run resumes from them, bit-identical
// to an uninterrupted search. Ctrl-C exits cleanly with progress saved.
// Pass --workers N to train candidates on crash-isolated worker processes
// (supervised: heartbeats, deadlines, retries, quarantine) with results
// identical to in-process execution — see DESIGN.md §11.
#include <cstdio>
#include <cstring>
#include <memory>

#include "core/config.hpp"
#include "search/checkpoint.hpp"
#include "search/experiment.hpp"
#include "search/results.hpp"
#include "search/worker_pool.hpp"
#include "util/cli.hpp"
#include "util/interrupt.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace qhdl;
  // Worker processes re-exec this binary; dispatch before CLI parsing.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--worker-mode") == 0) {
      return search::worker_main();
    }
  }
  util::Cli cli{"model_search",
                "FLOPs-sorted grid search at one complexity level"};
  cli.add_string("family", "classical",
                 "Search family: classical | bel | sel");
  cli.add_int("features", 10, "Problem complexity (feature count)");
  cli.add_int("runs", 2, "Independent runs per candidate");
  cli.add_int("epochs", 60, "Training epochs per run");
  cli.add_double("threshold", 0.90, "Accuracy threshold (train AND val)");
  cli.add_int("points", 900, "Dataset size");
  cli.add_int("seed", 42, "Search seed");
  cli.add_int("max-candidates", 0,
              "Examine at most this many FLOPs-ordered candidates "
              "(0 = unlimited)");
  search::add_worker_pool_options(
      cli,
      "Crash-isolated worker processes for candidate evaluation "
      "(0 = in-process); results are identical either way");
  cli.add_string("checkpoint", "",
                 "Checkpoint manifest path for crash-safe resume "
                 "(empty = no checkpointing)");
  cli.add_string("out", "",
                 "Write the full sweep result JSON here (byte-identical "
                 "across worker modes; used by CI to pin distributed runs)");
  try {
    if (!cli.parse(argc, argv)) return 0;
    util::install_interrupt_handler();

    const std::string family_arg = util::to_lower(cli.get_string("family"));
    search::Family family = search::Family::Classical;
    if (family_arg == "bel") family = search::Family::HybridBel;
    else if (family_arg == "sel") family = search::Family::HybridSel;
    else if (family_arg != "classical") {
      throw std::invalid_argument("unknown family: " + family_arg);
    }

    search::SweepConfig config = core::bench_scale();
    config.feature_sizes = {
        static_cast<std::size_t>(cli.get_int("features"))};
    config.spiral.points = static_cast<std::size_t>(cli.get_int("points"));
    config.search.runs_per_model =
        static_cast<std::size_t>(cli.get_int("runs"));
    config.search.repetitions = 1;
    config.search.train.epochs =
        static_cast<std::size_t>(cli.get_int("epochs"));
    config.search.accuracy_threshold = cli.get_double("threshold");
    config.search.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    if (cli.get_int("max-candidates") > 0) {
      config.search.max_candidates =
          static_cast<std::size_t>(cli.get_int("max-candidates"));
    }

    std::printf("grid search: family=%s features=%zu (space: %zu "
                "candidates, FLOPs-sorted)\n\n",
                search::family_name(family).c_str(),
                config.feature_sizes[0],
                search::family_search_space(family).size());

    std::unique_ptr<search::StudyCheckpoint> checkpoint;
    const std::string checkpoint_path = cli.get_string("checkpoint");
    if (!checkpoint_path.empty()) {
      checkpoint = std::make_unique<search::StudyCheckpoint>(
          checkpoint_path, search::sweep_config_hash(config));
      const std::size_t restored = checkpoint->load();
      if (restored > 0) {
        std::printf("resuming: %zu completed candidate(s) restored\n",
                    restored);
      }
    }

    const std::unique_ptr<search::WorkerPool> pool =
        search::start_worker_pool(cli);

    const search::SweepResult sweep = search::run_complexity_sweep(
        family, config, checkpoint.get(), pool.get());
    const auto& outcome = sweep.levels[0].search.repetitions[0];

    if (!cli.get_string("out").empty()) {
      search::sweep_to_json(sweep).write_file(cli.get_string("out"));
    }
    if (pool) std::fputs(search::worker_pool_report(*pool).c_str(), stdout);

    util::Table table({"#", "candidate", "FLOPs", "params", "train acc",
                       "val acc", "verdict"});
    for (std::size_t i = 0; i < outcome.evaluated.size(); ++i) {
      const auto& r = outcome.evaluated[i];
      table.add_row({std::to_string(i + 1), r.spec.to_string(),
                     util::format_double(r.flops, 0),
                     std::to_string(r.parameter_count),
                     util::format_double(r.avg_best_train_accuracy, 3),
                     util::format_double(r.avg_best_val_accuracy, 3),
                     r.meets_threshold ? "WINNER" : "below threshold"});
    }
    table.print();
    if (outcome.winner.has_value()) {
      std::printf("\nleast-FLOPs model meeting the %.0f%% bar: %s "
                  "(%s FLOPs, %zu params)\n",
                  100.0 * config.search.accuracy_threshold,
                  outcome.winner->spec.to_string().c_str(),
                  util::format_double(outcome.winner->flops, 0).c_str(),
                  outcome.winner->parameter_count);
    } else {
      std::printf("\nno candidate met the threshold "
                  "(try --epochs or --threshold)\n");
    }
  } catch (const util::Interrupted&) {
    std::fprintf(stderr,
                 "\ninterrupted: progress saved; re-run the same command to "
                 "resume\n");
    return 130;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
