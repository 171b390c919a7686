#include "common.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "nn/fastpath.hpp"
#include "quantum/exec_plan.hpp"
#include "quantum/kernels.hpp"
#include "util/subprocess.hpp"

extern char** environ;

namespace perfbench {

double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

double seconds_since(Clock::time_point begin) {
  return seconds_between(begin, Clock::now());
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

namespace {
double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

double cpu_seconds() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    if (getrusage(who, &usage) != 0) {
      throw std::runtime_error("getrusage failed");
    }
    total += seconds_of(usage.ru_utime) + seconds_of(usage.ru_stime);
  }
  return total;
}

double rss_peak_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    throw std::runtime_error("getrusage failed");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

double one_setup_probe(const std::string& exe,
                       const std::vector<std::string>& args) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = 0;
  const auto start = Clock::now();
  const int spawned = posix_spawn(&pid, exe.c_str(), &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    close(fds[0]);
    throw std::runtime_error("setup probe: posix_spawn failed");
  }
  std::string got;
  char buffer[64];
  while (got.find('\n') == std::string::npos) {
    const ssize_t n = read(fds[0], buffer, sizeof(buffer));
    if (n > 0) {
      got.append(buffer, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  const double seconds = seconds_since(start);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != "ready\n" || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("setup probe failed (printed '" + got + "')");
  }
  return seconds;
}

}  // namespace

double spawned_setup_seconds(const RunOptions& options, int repeats) {
  const std::string exe = qhdl::util::current_executable_path();
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const std::string dir =
        options.work_dir + "/setup-probe" + std::to_string(i);
    samples.push_back(one_setup_probe(
        exe, {"--setup-probe", options.workload, "--scratch", dir}));
  }
  return median(samples);
}

double ratio_or_zero(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

void reset_layer_state() {
  qhdl::quantum::plan_cache::clear();
  qhdl::quantum::plan_cache::reset_stats();
  qhdl::quantum::kernels::reset_stats();
  qhdl::nn::fastpath::reset_stats();
}

std::size_t load_width(std::size_t nproc) {
  return std::clamp<std::size_t>(nproc, 1, 4);
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<Metric> layer_metric_template() {
  const std::vector<std::pair<const char*, const char*>> names = {
      {"data.level_dataset_s", "s"},
      {"flops.sort_s", "s"},
      {"flops.candidates_costed", "count"},
      {"search.units_committed", "count"},
      {"search.runs_executed", "count"},
      {"search.useful_run_ratio", "ratio"},
      {"search.unit_p50_s", "s"},
      {"search.unit_p99_s", "s"},
      {"search.level_max_s", "s"},
      {"search.level_sum_s", "s"},
      {"nn.workspace_step_s", "s"},
      {"nn.workspace_steps", "count"},
      {"nn.eval_s", "s"},
      {"nn.dense_fwd_s", "s"},
      {"nn.dense_bwd_s", "s"},
      {"nn.loss_s", "s"},
      {"nn.optimizer_s", "s"},
      {"nn.reference_runs", "count"},
      {"nn.allocs_per_step", "count"},
      {"nn.dense_gflops", "GFLOP/s"},
      {"qnn.layer_fwd_s", "s"},
      {"qnn.layer_bwd_s", "s"},
      {"quantum.dispatches", "count"},
      {"quantum.batched_rows", "count"},
      {"quantum.fused_gates", "count"},
      {"quantum.plan_hits", "count"},
      {"quantum.plan_compiled", "count"},
      {"quantum.computed_gbytes", "GB"},
      {"search.pool_spawn_ms", "ms"},
      {"search.pool_restarts", "count"},
      {"search.pool_steals", "count"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_lookups", "count"},
      {"serve.cache_evictions", "count"},
      {"serve.cache_disk_loads", "count"},
      {"serve.jobs_completed", "count"},
      {"serve.rejected", "count"},
      {"serve.protocol_errors", "count"},
      {"serve.codec_ms", "ms"},
      {"serve.overhead_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
      {"trace.coverage_frac", "ratio"},
  };
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : names) metrics.push_back({name, 0.0, unit});
  return metrics;
}

void set_metric(std::vector<Metric>& metrics, const std::string& name,
                double value) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      return;
    }
  }
  throw std::logic_error("unknown metric " + name);
}

}  // namespace perfbench
