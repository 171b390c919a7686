// Shared vocabulary of the benchmark's workloads: run options, the metric
// record every workload fills, and small statistics/resource helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point begin, Clock::time_point end);
double seconds_since(Clock::time_point begin);

/// Arithmetic mean of `values` (0 for an empty set).
double mean(const std::vector<double>& values);
/// Median of `values` (0 for an empty set).
double median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1] (0 for an empty set).
double percentile(std::vector<double> values, double q);

/// User+system CPU seconds of this process plus its reaped children.
double cpu_seconds();
/// Peak resident set of this process, in MB.
double rss_peak_mb();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload to a few seconds (smoke test only; the
  /// committed reference covers the full size, so it is not checked).
  bool tiny = false;
  /// Private per-run scratch directory (results, cache spill, spans).
  std::string work_dir;
  /// Committed reference file for the sweep winners ("" = the run's first
  /// sweep is the reference for the later ones).
  std::string reference_path;
  /// Where to write the first sweep's winners ("" = nowhere); this is how
  /// the committed reference is produced.
  std::string winners_out;
  /// Where a traced run writes its spans.
  std::string trace_path;
  std::size_t nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the machine-read metrics of the
/// run's mode plus the human-read report and the output-check verdict.
struct WorkloadResult {
  std::vector<Metric> metrics;  ///< end-to-end (untraced) or per-layer
  std::vector<Metric> report;   ///< extra named figures, printed as lines
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> check_errors;
  std::vector<std::string> notes;  ///< printed before the result line
};

/// Set-up time of a fresh process: spawns this binary with
/// `--setup-probe <workload>` and waits for the line it prints once it
/// could start its first unit of work (see setup_probe in main.cpp).
/// Covers exec, dynamic loading, static initializers and the workload's
/// in-process set-up. Returns the median of `repeats` spawns.
double spawned_setup_seconds(const RunOptions& options, int repeats);
/// Spawns per spawned_setup_seconds call.
inline constexpr int kSetupProbes = 9;

/// num / den, or 0 when den is 0 (a layer the workload does not use).
double ratio_or_zero(double num, double den);

/// Cold start for the library's process-wide state: drops every cached
/// execution plan and zeroes the kernel, plan-cache and nn fast-path
/// counters.
void reset_layer_state();

/// Threads/clients the parallel workloads use: min(4, nproc).
std::size_t load_width(std::size_t nproc);

std::string read_text_file(const std::string& path);
void write_text_file(const std::string& path, const std::string& text);

/// Every per-layer metric, in BENCHMARK.json order, with value 0. A traced
/// run fills the ones its workload exercises; the rest stay 0, which is the
/// prediction for a layer the workload does not use.
std::vector<Metric> layer_metric_template();
/// Sets `name` in `metrics`; throws on a name the list does not hold.
void set_metric(std::vector<Metric>& metrics, const std::string& name,
                double value);

}  // namespace perfbench
