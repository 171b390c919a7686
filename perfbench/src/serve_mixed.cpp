// serve_mixed: an in-process serve::Server over loopback TCP, driven as a
// closed loop by min(4, nproc) clients that each wait for their reply.
//
// Every request is a small classical study. Most repeat one of a set of
// configs twice the size of the result cache's in-memory capacity, drawn
// with a Zipf skew, so the stream exercises cache reads, LRU eviction and
// disk spill/reload; the rest are configs never seen before, which compute
// on the server's pipe workers (pool_workers = 1) and write the cache. The
// constants below say where each share and size comes from.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>

#include "core/config.hpp"
#include "search/results.hpp"
#include "search/worker_pool.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util/backend_registry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace qhdl;

namespace {

constexpr std::size_t kCacheCapacity = 8;
/// Twice what the cache holds in memory, so repeats must also evict,
/// spill and reload.
constexpr std::size_t kRepeatConfigs = 2 * kCacheCapacity;
/// Enough requests for a p99 with at least ten samples beyond it.
constexpr std::size_t kMinRequests = 1000;
/// Computed requests behind computed_mean_ms at the request minimum. The
/// mean of n latencies has a standard error of sd / sqrt(n); at n = 100
/// that is a tenth of the computed latencies' own spread (their sd is about
/// a fifth of their mean on the seed code, so about 2%), which leaves most
/// of the metric's steadiness budget, a third of its 0.25 bound, to
/// machine drift.
constexpr std::size_t kMinComputedRequests = 100;
/// The sparsest unique configs can be and still give kMinComputedRequests
/// at kMinRequests: one in every 10 requests (the repeat set's first
/// requests add up to 16 computed ones). The seed picks which request of
/// each block of 10 is the unique one, so every run computes the same
/// share; a coin per request would swing the computed count, and with it
/// CPU per request, by about 10% between seeds.
constexpr std::size_t kUniqueEvery = kMinRequests / kMinComputedRequests;
/// Repeats are drawn with weight 1/rank^kZipfExponent, the classic Zipf
/// law of request popularity (an assumption, not a measured trace). With
/// exponent 1 the kCacheCapacity most popular configs draw
/// H(8)/H(16) = 80% of the repeats, so most repeats read the in-memory
/// cache, and the other 20% (about 180 at kMinRequests, more than the
/// kMinComputedRequests samples asked of the computed class) go to configs
/// the LRU must spill, which exercises eviction and disk reload.
constexpr double kZipfExponent = 1.0;
/// A study trains one candidate, kStudyRuns times, so that its compute is
/// at least the per-request overhead of a computed request
/// (serve.overhead_ms). Each unit (candidate) of a study crosses the
/// server's worker pool on its own and pays whole 50 ms poll slices there,
/// so that overhead grows with the unit count: four candidates cost about
/// 350 ms of it on the seed code, one about 120 ms. Runs add compute inside
/// the one unit instead: 24 runs train for about 180 ms in process on a
/// 4-vCPU x86 VM. A traced run prints both figures.
constexpr std::size_t kStudyCandidates = 1;
constexpr std::size_t kStudyRuns = 24;
/// The timed phase never runs past this, whatever --seconds asks.
constexpr double kMaxTimedSeconds = 100.0;
constexpr std::uint64_t kReplyTimeoutMs = 60000;

/// The study every request asks for, differing only in its search seed.
search::SweepConfig study_config(std::uint64_t search_seed) {
  search::SweepConfig config = core::test_scale();
  config.spiral.points = 300;
  config.search.train.epochs = 60;
  config.search.max_candidates = kStudyCandidates;
  config.search.runs_per_model = kStudyRuns;
  config.search.seed = search_seed;
  config.search.threads = 1;
  return config;
}

struct PlannedRequest {
  std::uint64_t search_seed = 0;
};

/// The seeded request stream: one fresh config in every kUniqueEvery
/// requests, the rest drawn from the repeat set with probability
/// proportional to 1/rank^kZipfExponent.
std::vector<PlannedRequest> plan_requests(std::uint64_t seed,
                                          std::size_t count) {
  util::Rng rng{seed};
  std::vector<std::uint64_t> repeat_seeds(kRepeatConfigs);
  for (auto& s : repeat_seeds) s = rng.next_u64();
  std::vector<double> cdf(kRepeatConfigs);
  double total = 0.0;
  for (std::size_t i = 0; i < kRepeatConfigs; ++i) {
    total += std::pow(static_cast<double>(i + 1), -kZipfExponent);
    cdf[i] = total;
  }
  std::vector<PlannedRequest> plan(count);
  std::size_t unique_slot = 0;
  for (std::size_t k = 0; k < count; ++k) {
    PlannedRequest& request = plan[k];
    if (k % kUniqueEvery == 0) unique_slot = k + rng.next_u64() % kUniqueEvery;
    if (k == unique_slot) {
      request.search_seed = rng.next_u64();
    } else {
      const double u = rng.uniform() * total;
      std::size_t i = 0;
      while (i + 1 < kRepeatConfigs && cdf[i] < u) ++i;
      request.search_seed = repeat_seeds[i];
    }
  }
  return plan;
}

struct Outcome {
  std::uint64_t search_seed = 0;
  double latency_ms = 0.0;
  bool ok = false;        ///< a "result" reply arrived
  bool computed = false;  ///< the server trained at least one unit
  bool traced = false;
  double traced_ms = 0.0;  ///< round trip plus the client's tracing work
  double codec_ms = 0.0;
  std::string sweep;      ///< the reply's sweep, as JSON text
  std::string error;
};

serve::ServerConfig server_config(const std::string& spill_dir,
                                  std::size_t executors) {
  serve::ServerConfig config;
  config.executors = executors;
  config.cache_dir = spill_dir;
  config.cache_capacity = kCacheCapacity;
  config.pool_workers = 1;
  config.pool.worker_env = {"QHDL_LOG_LEVEL=warn"};
  return config;
}

/// Starts `server` and waits for the answer to its first connection.
void start_server(serve::Server& server) {
  server.start();
  util::Json ping = util::Json::object();
  ping["type"] = "ping";
  const util::Json pong =
      serve::round_trip("127.0.0.1", server.port(), ping, kReplyTimeoutMs);
  if (pong.at("type").as_string() != "pong") {
    throw std::runtime_error("serve: unexpected reply to ping");
  }
}

std::size_t executor_count(std::size_t nproc) {
  return std::min<std::size_t>(2, load_width(nproc));
}

}  // namespace

void serve_setup(const RunOptions& options) {
  (void)util::simd::active_backend();
  auto* server = new serve::Server(
      server_config(options.work_dir, executor_count(options.nproc)));
  start_server(*server);  // left running: the probe process exits next
}

WorkloadResult run_serve_workload(const RunOptions& options) {
  namespace fs = std::filesystem;
  const std::size_t clients = load_width(options.nproc);
  const std::size_t executors = executor_count(options.nproc);
  const std::size_t min_requests = options.tiny ? 20 : kMinRequests;

  reset_layer_state();
  (void)util::ThreadPool::shared();

  const double setup_s = spawned_setup_seconds(options, kSetupProbes);
  // A fresh, empty spill directory: every run starts cold.
  const std::string spill = (fs::path(options.work_dir) / "spill").string();
  fs::create_directories(spill);
  serve::Server server(server_config(spill, executors));
  start_server(server);
  const std::uint16_t port = server.port();

  WorkloadResult out;
  std::vector<double> pool_spawn_ms;
  if (options.trace) {
    for (int i = 0; i < 5; ++i) {
      const auto start = Clock::now();
      search::WorkerPoolConfig pool_config;
      pool_config.workers = 1;
      pool_config.worker_env = {"QHDL_LOG_LEVEL=warn"};
      search::WorkerPool pool(study_config(0), pool_config);
      pool_spawn_ms.push_back(seconds_since(start) * 1e3);
      if (pool.degraded()) {
        ++out.failed;
        out.check_errors.push_back("worker pool came up degraded: " +
                                   pool.degraded_reason());
      }
    }
  }

  const std::vector<PlannedRequest> plan = plan_requests(
      options.seed, static_cast<std::size_t>(kMaxTimedSeconds * 400));
  std::vector<Outcome> outcomes(plan.size());
  std::atomic<std::size_t> next{0};
  Tracer tracer;

  const double cpu_start = cpu_seconds();
  const auto timed_start = Clock::now();
  const auto client_loop = [&] {
    for (;;) {
      const double elapsed = seconds_since(timed_start);
      if ((elapsed >= options.seconds && next.load() >= min_requests) ||
          elapsed >= kMaxTimedSeconds) {
        return;
      }
      const std::size_t k = next.fetch_add(1);
      if (k >= plan.size()) return;
      Outcome& outcome = outcomes[k];
      outcome.search_seed = plan[k].search_seed;
      // In a traced run every other request is traced, so traced and
      // untraced requests see the same cache state and load.
      outcome.traced = options.trace && k % 2 == 0;
      try {
        // A traced request's root spans the client's whole handling of it:
        // building the request, the round trip, and reading the reply.
        const auto start = Clock::now();
        const util::Json request = serve::make_study_request(
            search::Family::Classical, study_config(plan[k].search_seed));
        const auto sent = Clock::now();
        const util::Json reply = serve::round_trip("127.0.0.1", port,
                                                   request, kReplyTimeoutMs);
        const auto replied = Clock::now();
        outcome.latency_ms = seconds_between(sent, replied) * 1e3;
        Clock::time_point codec_start, codec_end;
        if (outcome.traced) {
          codec_start = Clock::now();
          (void)util::Json::parse(reply.dump());
          codec_end = Clock::now();
          outcome.codec_ms = seconds_between(codec_start, codec_end) * 1e3;
        }
        const std::string type = reply.at("type").as_string();
        if (type == "result") {
          outcome.computed =
              reply.at("cache").at("unit_misses").as_number() > 0;
          outcome.sweep = reply.at("sweep").dump();
          outcome.ok = true;
        } else {
          outcome.error = "reply type " + type;
        }
        if (outcome.traced) {
          // traced_ms is the round trip plus the client-side cost of
          // tracing (the codec timing and the span records), next to the
          // untraced requests' round trips.
          const auto records_start = Clock::now();
          const std::int64_t root = tracer.record(
              "request", start, records_start, -1, "req" + std::to_string(k));
          tracer.record("serve.round_trip", sent, replied, root);
          tracer.record("serve.codec", codec_start, codec_end, root);
          outcome.traced_ms = outcome.latency_ms + outcome.codec_ms +
                              seconds_since(records_start) * 1e3;
        }
      } catch (const std::exception& error) {
        outcome.error = error.what();
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client_loop);
  for (std::thread& t : threads) t.join();
  const double timed_s = seconds_since(timed_start);
  const serve::ServerStats stats = server.stats();
  server.stop();
  const double timed_cpu = cpu_seconds() - cpu_start;
  // Peak memory of set-up and the timed phase, before the output check.
  const double rss_mb = rss_peak_mb();
  outcomes.resize(std::min(next.load(), plan.size()));

  // Output check, outside the timed phase: every reply must equal the
  // in-process result for its config. A traced run computes the
  // references `executors` at a time, the server's own compute
  // concurrency, so their times are the in-process cost serve.overhead_ms
  // subtracts.
  std::vector<std::uint64_t> distinct;
  std::map<std::uint64_t, std::size_t> index_of;
  for (const Outcome& o : outcomes) {
    if (index_of.emplace(o.search_seed, distinct.size()).second) {
      distinct.push_back(o.search_seed);
    }
  }
  std::vector<std::string> reference(distinct.size());
  std::vector<double> reference_ms(distinct.size());
  util::parallel_for(0, distinct.size(), options.trace ? executors : clients,
                     [&](std::size_t i) {
                       const auto start = Clock::now();
                       const search::SweepResult sweep =
                           search::run_complexity_sweep(
                               search::Family::Classical,
                               study_config(distinct[i]));
                       reference_ms[i] = seconds_since(start) * 1e3;
                       reference[i] = search::sweep_to_json(sweep).dump();
                     });

  std::vector<double> all_ms, hit_ms, miss_ms, traced_ms, untraced_ms,
      codec_ms, miss_reference_ms;
  std::size_t mismatches = 0;
  for (const Outcome& o : outcomes) {
    ++out.attempted;
    const std::size_t ref = index_of.at(o.search_seed);
    if (!o.ok) {
      ++out.failed;
      if (out.check_errors.size() < 5) {
        out.check_errors.push_back("request failed: " + o.error);
      }
      continue;
    }
    if (o.sweep != reference[ref]) {
      ++out.failed;
      if (++mismatches <= 5) {
        out.check_errors.push_back(
            "reply differs from the in-process result for search seed " +
            std::to_string(o.search_seed));
      }
      continue;
    }
    all_ms.push_back(o.latency_ms);
    (o.computed ? miss_ms : hit_ms).push_back(o.latency_ms);
    if (o.computed) miss_reference_ms.push_back(reference_ms[ref]);
    if (o.traced) {
      traced_ms.push_back(o.traced_ms);
      codec_ms.push_back(o.codec_ms);
    } else if (options.trace) {
      untraced_ms.push_back(o.latency_ms);
    }
  }

  const double p99 = percentile(all_ms, 0.99);
  std::size_t tail = 0;
  for (double ms : all_ms) tail += ms > p99 ? 1 : 0;
  out.notes.push_back(
      "serve: " + std::to_string(clients) + " closed-loop clients, " +
      std::to_string(executors) + " executors, pool_workers=1, cache " +
      std::to_string(kCacheCapacity) + " in memory, " +
      std::to_string(kRepeatConfigs) + " repeat configs, " +
      std::to_string(distinct.size()) + " distinct configs sent");
  out.notes.push_back("replies checked against in-process results");
  const auto spread = [](const char* what, const std::vector<double>& ms) {
    const double m = mean(ms);
    double squares = 0.0;
    for (double v : ms) squares += (v - m) * (v - m);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%s latency (ms): p10 %.1f p25 %.1f p50 %.1f p75 %.1f "
                  "p90 %.1f, mean %.1f sd %.1f",
                  what, percentile(ms, 0.10), percentile(ms, 0.25),
                  percentile(ms, 0.50), percentile(ms, 0.75),
                  percentile(ms, 0.90), m,
                  std::sqrt(squares / static_cast<double>(
                                          std::max<std::size_t>(ms.size(), 1))));
    return std::string{line};
  };
  out.notes.push_back(spread("request", all_ms));
  out.notes.push_back(spread("computed request", miss_ms));

  if (!options.trace) {
    out.metrics = {
        {"setup_s", setup_s, "s"},
        {"op_mean_ms", mean(all_ms), "ms"},
        {"computed_mean_ms", mean(miss_ms), "ms"},
        {"ops_per_s", static_cast<double>(all_ms.size()) / timed_s, "1/s"},
        {"cpu_s_per_op",
         ratio_or_zero(timed_cpu, static_cast<double>(all_ms.size())), "s"},
        {"rss_peak_mb", rss_mb, "MB"},
    };
  } else {
    out.metrics = layer_metric_template();
    const auto set = [&](const char* name, double value) {
      set_metric(out.metrics, name, value);
    };
    const double lookups =
        static_cast<double>(stats.cache.unit_hits + stats.cache.unit_misses);
    set("search.pool_spawn_ms", median(pool_spawn_ms));
    set("search.pool_restarts", static_cast<double>(stats.pool_restarts));
    set("search.pool_steals", static_cast<double>(stats.pool_steals));
    set("serve.cache_hit_ratio",
        ratio_or_zero(static_cast<double>(stats.cache.unit_hits), lookups));
    set("serve.cache_lookups", lookups);
    set("serve.cache_evictions", static_cast<double>(stats.cache.evictions));
    set("serve.cache_disk_loads", static_cast<double>(stats.cache.disk_loads));
    set("serve.jobs_completed", static_cast<double>(stats.jobs_completed));
    set("serve.rejected", static_cast<double>(stats.rejected_overloaded +
                                              stats.rejected_draining));
    set("serve.protocol_errors", static_cast<double>(stats.protocol_errors));
    set("serve.codec_ms", median(codec_ms));
    set("serve.overhead_ms", median(miss_ms) - median(miss_reference_ms));
    set("trace.overhead_frac", median(traced_ms) / median(untraced_ms) - 1.0);
    set("trace.coverage_frac", tracer.coverage());
    char compute[160];
    std::snprintf(compute, sizeof(compute),
                  "computed configs: in-process p50 %.1f ms, "
                  "serve.overhead_ms %.1f ms",
                  median(miss_reference_ms),
                  median(miss_ms) - median(miss_reference_ms));
    out.notes.push_back(compute);
    tracer.write_jsonl(options.trace_path);
    out.notes.push_back("spans written to " + options.trace_path);
  }
  out.report = {
      {"req_per_s", static_cast<double>(all_ms.size()) / timed_s, "1/s"},
      {"hit_p50_ms", median(hit_ms), "ms"},
      {"miss_p50_ms", median(miss_ms), "ms"},
      {"req_p99_ms", p99, "ms"},
      {"req_p99_tail_samples", static_cast<double>(tail), "count"},
      {"requests", static_cast<double>(outcomes.size()), "count"},
      {"hits", static_cast<double>(hit_ms.size()), "count"},
      {"misses", static_cast<double>(miss_ms.size()), "count"},
      {"cpu_s", timed_cpu, "s"},
      {"failed_frac",
       ratio_or_zero(static_cast<double>(out.failed),
                     static_cast<double>(out.attempted)),
       "ratio"},
  };
  return out;
}

}  // namespace perfbench
