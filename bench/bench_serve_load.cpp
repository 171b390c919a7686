// Serve-layer load benchmark: drives an in-process serve::Server over real
// TCP with concurrent clients and reports request-latency percentiles plus
// the admission-control shed rate, written to BENCH_serve.json via the
// shared JSON reporter (same shape as BENCH_micro.json / BENCH_figs.json).
//
// Three phases:
//   cold     — unique tiny study configs (every unit is a cache miss),
//   hot      — the same config repeated (served from the result cache),
//   overload — sleep jobs against a 1-executor, tiny-queue server; most
//              requests must be shed with "rejected: overloaded".
//
// The three phases run kRepeats times, each time on fresh servers, and
// every reported latency is the median over the repeats: one run of these
// ms-scale phases spreads several-fold between identical runs on a shared
// VM, the median of five much less.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json_report.hpp"
#include "core/config.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/socket.hpp"

namespace {

using namespace qhdl;
using Clock = std::chrono::steady_clock;

/// Repeats of the whole phase sequence; the report takes their medians.
constexpr std::size_t kRepeats = 5;

search::SweepConfig tiny_study(std::uint64_t seed) {
  search::SweepConfig config = core::test_scale();
  config.feature_sizes = {4};
  config.search.max_candidates = 1;
  config.search.repetitions = 1;
  config.search.runs_per_model = 1;
  config.search.train.epochs = 2;
  config.search.seed = seed;
  return config;
}

struct PhaseResult {
  std::vector<double> latencies_ms;  // successful (non-shed) replies
  std::size_t requests = 0;
  std::size_t shed = 0;
  std::size_t unit_hits = 0;
  std::size_t unit_misses = 0;
};

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double mean_ms(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

/// Fires `total` requests at the server from `threads` concurrent clients.
/// `request_for(i)` builds the i-th request.
template <typename RequestFn>
PhaseResult run_phase(std::uint16_t port, std::size_t total,
                      std::size_t threads, RequestFn request_for) {
  PhaseResult result;
  result.requests = total;
  std::mutex mutex;
  std::vector<std::thread> pool;
  std::size_t next = 0;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        std::size_t index;
        {
          std::lock_guard<std::mutex> lock(mutex);
          if (next >= total) return;
          index = next++;
        }
        const util::Json request = request_for(index);
        const auto start = Clock::now();
        util::Json reply;
        try {
          reply = serve::round_trip("127.0.0.1", port, request, 120000);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "bench_serve_load: transport error: %s\n",
                       e.what());
          continue;
        }
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count();
        std::lock_guard<std::mutex> lock(mutex);
        if (reply.at("type").as_string() == "rejected") {
          result.shed += 1;
          continue;
        }
        result.latencies_ms.push_back(ms);
        if (reply.contains("cache")) {
          const util::Json& cache = reply.at("cache");
          result.unit_hits +=
              static_cast<std::size_t>(cache.at("unit_hits").as_number());
          result.unit_misses +=
              static_cast<std::size_t>(cache.at("unit_misses").as_number());
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return result;
}

/// Median-of-repeats entry for one phase. Request, hit and miss counts are
/// fixed by the protocol, so every repeat must agree on them.
bench::BenchEntry entry_for(const std::string& name,
                            const std::vector<PhaseResult>& runs) {
  std::vector<double> means, p50s, p99s, sheds;
  for (const PhaseResult& run : runs) {
    means.push_back(mean_ms(run.latencies_ms));
    p50s.push_back(percentile(run.latencies_ms, 0.50));
    p99s.push_back(percentile(run.latencies_ms, 0.99));
    sheds.push_back(static_cast<double>(run.shed));
    if (run.requests != runs.front().requests ||
        run.unit_hits != runs.front().unit_hits ||
        run.unit_misses != runs.front().unit_misses) {
      std::fprintf(stderr,
                   "bench_serve_load: %s: repeats disagree on request, hit "
                   "or miss counts\n",
                   name.c_str());
    }
  }
  const PhaseResult& first = runs.front();
  bench::BenchEntry entry;
  entry.name = name;
  entry.ns_per_op = percentile(means, 0.50) * 1e6;
  entry.extra["p50_ms"] = percentile(p50s, 0.50);
  entry.extra["p99_ms"] = percentile(p99s, 0.50);
  entry.extra["repeats"] = static_cast<double>(runs.size());
  entry.extra["requests"] = static_cast<double>(first.requests);
  const double shed = percentile(sheds, 0.50);
  entry.extra["shed"] = shed;
  entry.extra["shed_rate"] =
      first.requests == 0 ? 0.0
                          : shed / static_cast<double>(first.requests);
  return entry;
}

void print_phase(const char* label, const std::vector<PhaseResult>& runs) {
  std::vector<double> p50s;
  for (const PhaseResult& run : runs) {
    p50s.push_back(percentile(run.latencies_ms, 0.50));
  }
  const PhaseResult& first = runs.front();
  std::printf("  %-10s %3zu req x %zu  p50 median %8.2f ms (min %.2f, max "
              "%.2f)  shed %zu  cache %zu/%zu hit/miss\n",
              label, first.requests, runs.size(), percentile(p50s, 0.50),
              *std::min_element(p50s.begin(), p50s.end()),
              *std::max_element(p50s.begin(), p50s.end()), first.shed,
              first.unit_hits, first.unit_misses);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli{"bench_serve_load",
                "Latency/shed-rate benchmark for the qhdl serve layer"};
  cli.add_int("cold", 4, "Unique-config study requests (all cache misses)");
  cli.add_int("hot", 32, "Repeated-config study requests (cache-served)");
  cli.add_int("overload", 16, "Sleep requests fired at the tiny server");
  cli.add_int("clients", 4, "Concurrent client threads");
  cli.add_string("out", "BENCH_serve.json", "Output JSON path");
  if (!cli.parse(argc, argv)) return 0;
  util::set_log_level(util::LogLevel::Warn);
  if (!util::sockets_supported()) {
    std::fprintf(stderr, "bench_serve_load: sockets unsupported here\n");
    return 0;
  }

  const std::size_t clients = static_cast<std::size_t>(cli.get_int("clients"));
  std::printf("bench_serve_load: %zu concurrent clients\n", clients);

  const auto cold_count = static_cast<std::size_t>(cli.get_int("cold"));
  const auto hot_count = static_cast<std::size_t>(cli.get_int("hot"));
  const auto overload_count =
      static_cast<std::size_t>(cli.get_int("overload"));
  std::vector<PhaseResult> cold, hot, overload;
  for (std::size_t repeat = 0; repeat < kRepeats; ++repeat) {
    // Phase 1+2: a fresh roomy server (nothing sheds, empty memory-only
    // cache) for cold/hot latency.
    serve::ServerConfig roomy;
    roomy.executors = 2;
    roomy.max_queue = 256;
    serve::Server server{roomy};
    server.start();
    cold.push_back(run_phase(server.port(), cold_count, clients,
                             [](std::size_t i) {
                               return serve::make_study_request(
                                   search::Family::Classical,
                                   tiny_study(1000 + i));
                             }));
    hot.push_back(run_phase(server.port(), hot_count, clients,
                            [](std::size_t) {
                              return serve::make_study_request(
                                  search::Family::Classical,
                                  tiny_study(1000));
                            }));
    server.stop();

    // Phase 3: a deliberately tiny server; most sleep jobs must shed.
    serve::ServerConfig tiny;
    tiny.executors = 1;
    tiny.max_queue = 2;
    serve::Server small{tiny};
    small.start();
    overload.push_back(run_phase(small.port(), overload_count, clients,
                                 [](std::size_t) {
                                   util::Json request = util::Json::object();
                                   request["type"] = "sleep";
                                   request["ms"] = 200;
                                   return request;
                                 }));
    small.stop();
  }
  print_phase("cold", cold);
  print_phase("hot", hot);
  print_phase("overload", overload);

  bench::BenchEntry cold_entry = entry_for("serve_cold_study", cold);
  cold_entry.extra["unit_misses"] =
      static_cast<double>(cold.front().unit_misses);
  bench::BenchEntry hot_entry = entry_for("serve_hot_cached", hot);
  hot_entry.extra["unit_hits"] = static_cast<double>(hot.front().unit_hits);
  hot_entry.extra["unit_misses"] =
      static_cast<double>(hot.front().unit_misses);
  const bench::BenchEntry shed_entry =
      entry_for("serve_overload_shed", overload);

  const std::string out = cli.get_string("out");
  bench::write_bench_json(out, bench::collect_metadata(),
                          {cold_entry, hot_entry, shed_entry});
  std::printf("bench_serve_load: wrote %s\n", out.c_str());
  return 0;
}
