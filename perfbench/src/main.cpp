// qhdl_perfbench / qhdl_perfbench_traced: the repository's end-to-end
// benchmark binaries (untraced and traced runs; see CMakeLists.txt).
//
//   qhdl_perfbench --workload <sweep_classical|sweep_hybrid|serve_mixed>
//                  --seed N --seconds S --trace 0|1
//                  [--tiny] [--reference FILE] [--winners-out FILE]
//                  [--scratch DIR]
//   qhdl_perfbench --setup-probe <workload> --scratch DIR   (internal)
//
// Prints the run's environment, every metric by name with its unit, the
// output check, and as its last line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exits 1 when the output check fails, 2 on bad usage or a non-Release
// build. perfbench/run.py builds this binary and forwards its arguments.
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "search/worker_protocol.hpp"
#include "trace.hpp"
#include "util/backend_registry.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<std::size_t>(online) : 1;
}

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "qhdl_perfbench: %s\n"
               "usage: qhdl_perfbench --workload "
               "sweep_classical|sweep_hybrid|serve_mixed --seed N "
               "--seconds S --trace 0|1 [--tiny] [--reference FILE] "
               "[--winners-out FILE] [--scratch DIR]\n",
               problem.c_str());
  std::exit(2);
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string format_value(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  // WorkerPool re-executes this binary with --worker-mode for the serve
  // workload's pipe workers.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--worker-mode") == 0) {
      return qhdl::search::worker_main();
    }
  }

  RunOptions options;
  std::string scratch = ".bench_build/perfbench";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false, setup_probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value after " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string flag = value();
        if (flag != "0" && flag != "1") usage("--trace takes 0 or 1");
        options.trace = flag == "1";
        have_trace = true;
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--reference") {
        options.reference_path = value();
      } else if (arg == "--winners-out") {
        options.winners_out = value();
      } else if (arg == "--scratch") {
        scratch = value();
      } else if (arg == "--setup-probe") {
        options.workload = value();
        setup_probe = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  namespace fs = std::filesystem;
  if (setup_probe) {
    // Child of spawned_setup_seconds: set up, report ready, exit at once
    // (teardown is not set-up).
    try {
      qhdl::util::set_log_level(qhdl::util::LogLevel::Warn);
      options.nproc = affinity_cpus();
      options.work_dir = scratch;
      fs::create_directories(options.work_dir);
      if (options.workload == "serve_mixed") {
        serve_setup(options);
      } else {
        sweep_setup();
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "qhdl_perfbench: setup probe failed: %s\n",
                   error.what());
      std::_Exit(1);
    }
    std::fputs("ready\n", stdout);
    std::fflush(stdout);
    std::_Exit(0);
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  const bool sweep_workload = options.workload == "sweep_classical" ||
                              options.workload == "sweep_hybrid";
  if (!sweep_workload && options.workload != "serve_mixed") {
    usage("unknown workload " + options.workload);
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  // Numbers from unoptimized builds are never comparable with the rest.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "qhdl_perfbench: refusing to run a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  // The allocation counter belongs to traced runs only.
  if (options.trace != counts_allocations()) {
    usage(options.trace ? "--trace 1 runs in qhdl_perfbench_traced"
                        : "--trace 0 runs in qhdl_perfbench");
  }

  qhdl::util::set_log_level(qhdl::util::LogLevel::Warn);
  options.nproc = affinity_cpus();
  // The committed reference is for the full-size sweeps.
  if (sweep_workload && !options.tiny && options.reference_path.empty() &&
      options.winners_out.empty()) {
    options.reference_path =
        "perfbench/reference/" + options.workload + ".txt";
  }

  const std::string tag = options.workload + "-seed" +
                          std::to_string(options.seed) +
                          (options.trace ? "-traced" : "");
  options.work_dir =
      (fs::path(scratch) / (tag + "-" + std::to_string(getpid()))).string();
  options.trace_path = (fs::path(scratch) / (tag + ".spans.jsonl")).string();

  const auto& backend = qhdl::util::simd::active_backend();
  std::printf("env nproc=%zu backend=%s(%s) compiler=\"%s\" build=%s "
              "git=%s workload=%s seed=%llu seconds=%s trace=%d "
              "threads=%zu\n",
              options.nproc, backend.name,
              qhdl::util::simd::active_source(), kCompiler,
              PERFBENCH_BUILD_TYPE, PERFBENCH_GIT_SHA,
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              format_value(options.seconds).c_str(), options.trace ? 1 : 0,
              options.workload == "sweep_classical"
                  ? std::size_t{1}
                  : load_width(options.nproc));

  WorkloadResult result;
  try {
    fs::create_directories(options.work_dir);
    if (options.workload == "serve_mixed") {
      result = run_serve_workload(options);
    } else {
      result = run_sweep_workload(options,
                                  options.workload == "sweep_hybrid");
    }
    fs::remove_all(options.work_dir);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "qhdl_perfbench: %s failed: %s\n",
                 options.workload.c_str(), error.what());
    std::error_code ignored;
    fs::remove_all(options.work_dir, ignored);
    return 1;
  }

  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const Metric& metric : result.report) {
    std::printf("metric %s = %s %s\n", metric.name.c_str(),
                format_value(metric.value).c_str(), metric.unit.c_str());
  }
  for (const Metric& metric : result.metrics) {
    std::printf("metric %s = %s %s\n", metric.name.c_str(),
                format_value(metric.value).c_str(), metric.unit.c_str());
  }
  for (const std::string& error : result.check_errors) {
    std::printf("check FAILED: %s\n", error.c_str());
  }
  const bool correct = result.check_errors.empty() && result.failed == 0 &&
                       result.attempted > 0;
  std::printf("check %s: %zu attempted, %zu failed\n",
              correct ? "passed" : "FAILED", result.attempted, result.failed);

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "qhdl_perfbench: metric %s is not finite\n",
                   metric.name.c_str());
      return 1;
    }
    if (i > 0) json += ", ";
    json += "\"" + metric.name + "\": {\"value\": " +
            format_value(metric.value) + ", \"unit\": \"" + metric.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
