#include "common/driver.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace qhdl::bench {

void add_protocol_options(util::Cli& cli) {
  cli.add_flag("paper",
               "Run the paper's full protocol (5 runs x 5 repetitions, 100 "
               "epochs, 1500 points, features 10..110) instead of the "
               "reduced bench protocol");
  cli.add_flag("force", "Recompute sweeps even if cached results exist");
  cli.add_flag("verbose", "Log search progress");
  cli.add_string("results-dir", "qhdl_results",
                 "Directory for cached sweeps and emitted CSV files");
  cli.add_int("seed", 42, "Search seed (dataset seeds derive from it)");
  cli.add_int("threads", 1,
              "Concurrency for the search (candidate units of every sweep "
              "level and repetition); results are identical for any value");
}

Protocol protocol_from_cli(const util::Cli& cli) {
  Protocol protocol;
  protocol.paper = cli.flag("paper");
  protocol.config =
      protocol.paper ? core::paper_scale() : core::bench_scale();
  protocol.config.search.seed =
      static_cast<std::uint64_t>(cli.get_int("seed"));
  protocol.config.search.threads =
      static_cast<std::size_t>(cli.get_int("threads"));
  protocol.results_dir = cli.get_string("results-dir");
  if (cli.flag("verbose")) {
    util::set_log_level(util::LogLevel::Info);
  }
  std::filesystem::create_directories(protocol.results_dir);
  return protocol;
}

std::string sweep_cache_path(const Protocol& protocol,
                             search::Family family) {
  // Encode the effective protocol into the name so paper/bench runs and
  // different seeds never alias.
  const auto& config = protocol.config;
  std::string key = search::family_name(family) + "_" +
                    (protocol.paper ? "paper" : "bench") + "_s" +
                    std::to_string(config.search.seed) + "_p" +
                    std::to_string(config.spiral.points) + "_e" +
                    std::to_string(config.search.train.epochs) + "_r" +
                    std::to_string(config.search.runs_per_model) + "x" +
                    std::to_string(config.search.repetitions);
  return protocol.results_dir + "/sweep_" + key + ".csv";
}

namespace {

/// Rebuilds a SweepResult (winner-level detail only) from a cached
/// sweep_to_csv document.
search::SweepResult sweep_from_csv(const util::CsvDocument& doc,
                                   search::Family family) {
  search::SweepResult sweep;
  sweep.family = family;

  // Rows are ordered by (features, repetition); rebuild levels in order.
  for (const auto& row : doc.rows) {
    if (row.size() < 10) {
      throw std::runtime_error("sweep cache: malformed row");
    }
    const std::size_t features =
        static_cast<std::size_t>(std::stoul(row[1]));
    if (sweep.levels.empty() || sweep.levels.back().features != features) {
      search::LevelResult level;
      level.features = features;
      sweep.levels.push_back(level);
    }
    search::SearchOutcome outcome;
    outcome.candidates_trained =
        static_cast<std::size_t>(std::stoul(row[9]));
    if (!row[3].empty()) {
      search::CandidateResult winner;
      const auto spec = parse_spec(row[3]);
      if (!spec.has_value()) {
        throw std::runtime_error("sweep cache: bad spec '" + row[3] + "'");
      }
      winner.spec = *spec;
      winner.flops = std::stod(row[4]);
      winner.flops_forward = std::stod(row[5]);
      winner.parameter_count =
          static_cast<std::size_t>(std::stoul(row[6]));
      winner.avg_best_train_accuracy = std::stod(row[7]);
      winner.avg_best_val_accuracy = std::stod(row[8]);
      winner.meets_threshold = true;
      outcome.winner = winner;
    }
    sweep.levels.back().search.repetitions.push_back(std::move(outcome));
  }

  // Recompute aggregates.
  for (auto& level : sweep.levels) {
    auto& rs = level.search;
    double flops_sum = 0.0, param_sum = 0.0;
    for (const auto& outcome : rs.repetitions) {
      if (!outcome.winner.has_value()) continue;
      ++rs.successful_repetitions;
      flops_sum += outcome.winner->flops;
      param_sum += static_cast<double>(outcome.winner->parameter_count);
      if (!rs.smallest_winner.has_value() ||
          outcome.winner->flops < rs.smallest_winner->flops) {
        rs.smallest_winner = outcome.winner;
      }
    }
    if (rs.successful_repetitions > 0) {
      const double n = static_cast<double>(rs.successful_repetitions);
      rs.mean_winner_flops = flops_sum / n;
      rs.mean_winner_parameters = param_sum / n;
    }
  }
  return sweep;
}

}  // namespace

search::SweepResult load_or_run_sweep(search::Family family,
                                      const Protocol& protocol, bool force) {
  const std::string path = sweep_cache_path(protocol, family);
  if (!force && std::filesystem::exists(path)) {
    std::printf("[cache] loading %s sweep from %s\n",
                search::family_name(family).c_str(), path.c_str());
    return sweep_from_csv(util::read_csv_file(path), family);
  }
  std::printf("[run] %s sweep (%s protocol) ...\n",
              search::family_name(family).c_str(),
              protocol.paper ? "paper" : "bench");
  std::fflush(stdout);
  const search::SweepResult sweep =
      search::run_complexity_sweep(family, protocol.config);
  search::sweep_to_csv(sweep).write_file(path);
  std::printf("[run] cached -> %s\n", path.c_str());
  return sweep;
}

std::optional<search::ModelSpec> parse_spec(const std::string& text) {
  if (text.empty()) return std::nullopt;
  if (text.front() == '[') {
    if (text.back() != ']') return std::nullopt;
    const std::string inner = text.substr(1, text.size() - 2);
    std::vector<std::size_t> hidden;
    for (const auto& part : util::split(inner, ',')) {
      const std::string trimmed = util::trim(part);
      if (trimmed.empty()) return std::nullopt;
      hidden.push_back(static_cast<std::size_t>(std::stoul(trimmed)));
    }
    return search::ModelSpec::make_classical(std::move(hidden));
  }
  // "BEL(q=3,d=2)" / "SEL(q=3,d=2)".
  const auto open = text.find("(q=");
  const auto comma = text.find(",d=");
  const auto close = text.find(')');
  if (open == std::string::npos || comma == std::string::npos ||
      close == std::string::npos) {
    return std::nullopt;
  }
  try {
    const auto ansatz = qnn::ansatz_from_name(text.substr(0, open));
    const std::size_t qubits = static_cast<std::size_t>(
        std::stoul(text.substr(open + 3, comma - open - 3)));
    const std::size_t depth = static_cast<std::size_t>(
        std::stoul(text.substr(comma + 3, close - comma - 3)));
    return search::ModelSpec::make_hybrid(qubits, depth, ansatz);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

void print_banner(const std::string& experiment, const Protocol& protocol) {
  const auto& c = protocol.config;
  std::printf("=== %s ===\n", experiment.c_str());
  std::printf(
      "protocol: %s | points=%zu classes=%zu | threshold=%.2f | "
      "runs=%zu reps=%zu epochs=%zu batch=%zu lr=%g | levels:",
      protocol.paper ? "paper" : "bench (use --paper for full protocol)",
      c.spiral.points, c.spiral.classes, c.search.accuracy_threshold,
      c.search.runs_per_model, c.search.repetitions, c.search.train.epochs,
      c.search.train.batch_size, c.search.train.learning_rate);
  for (std::size_t f : c.feature_sizes) std::printf(" %zu", f);
  std::printf("\n\n");
}

void print_sweep_figure(const search::SweepResult& sweep) {
  for (const auto& level : sweep.levels) {
    std::printf("-- feature size %zu --\n", level.features);
    util::Table table({"repetition", "winner", "FLOPs (fwd+bwd)",
                       "parameters", "train acc", "val acc",
                       "models trained"});
    for (std::size_t rep = 0; rep < level.search.repetitions.size(); ++rep) {
      const auto& outcome = level.search.repetitions[rep];
      if (outcome.winner.has_value()) {
        const auto& w = *outcome.winner;
        table.add_row({std::to_string(rep + 1), w.spec.to_string(),
                       util::format_double(w.flops, 1),
                       std::to_string(w.parameter_count),
                       util::format_double(w.avg_best_train_accuracy, 3),
                       util::format_double(w.avg_best_val_accuracy, 3),
                       std::to_string(outcome.candidates_trained)});
      } else {
        table.add_row({std::to_string(rep + 1), "(no winner)", "-", "-", "-",
                       "-", std::to_string(outcome.candidates_trained)});
      }
    }
    table.print();
    if (level.search.successful_repetitions > 0) {
      std::printf("mean winner FLOPs = %s | mean winner params = %s\n\n",
                  util::format_double(level.search.mean_winner_flops, 1)
                      .c_str(),
                  util::format_double(level.search.mean_winner_parameters, 1)
                      .c_str());
    } else {
      std::printf("no repetition met the accuracy threshold\n\n");
    }
  }
}

void write_figure_csvs(const search::SweepResult& sweep,
                       const Protocol& protocol, const std::string& stem) {
  const std::string rows_path =
      protocol.results_dir + "/" + stem + "_winners.csv";
  const std::string means_path =
      protocol.results_dir + "/" + stem + "_means.csv";
  search::sweep_to_csv(sweep).write_file(rows_path);
  search::sweep_means_to_csv(sweep).write_file(means_path);
  std::printf("csv: %s\ncsv: %s\n", rows_path.c_str(), means_path.c_str());
}

}  // namespace qhdl::bench
