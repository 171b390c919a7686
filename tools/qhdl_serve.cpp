// qhdl_serve: the long-running study/train service (DESIGN.md §15).
//
//   ./qhdl_serve --port 7117 --executors 2 --workers 2 --cache-dir /tmp/qc
//
// Serves study/train jobs over TCP (length-prefixed JSON frames, one
// request per connection — see src/serve/protocol.hpp) with bounded
// admission, per-job deadlines, client-disconnect cancellation, and a
// content-addressed result cache. SIGTERM (or the first SIGINT) starts a
// graceful drain: in-flight jobs finish, queued and new work is rejected,
// the cache is flushed, and the process exits 0. A second SIGINT escalates
// to immediate exit 130, mirroring the study drivers.
//
// With --workers N, studies share executors x N worker processes in one
// pool that the first study starts and the server keeps; --listen
// host:port --workers-remote M adds qhdl_worker daemons to it.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "search/worker_pool.hpp"
#include "serve/server.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace {

// NOTE: deliberately NOT util::install_interrupt_handler() — that flag is
// process-global and the worker-pool dispatcher aborts in-flight units when
// it is set, which would contradict "finish in-flight jobs" drain
// semantics. The server gets its own flag; only the signal watcher in
// main() reads it.
volatile std::sig_atomic_t g_drain = 0;
volatile std::sig_atomic_t g_sigint_count = 0;

void handle_signal(int sig) {
  if (sig == SIGINT) {
    g_sigint_count = g_sigint_count + 1;
    if (g_sigint_count >= 2) {
      std::_Exit(130);  // second Ctrl-C: the user means now
    }
  }
  g_drain = 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qhdl;
  // The server's worker pool re-execs this binary; dispatch before CLI
  // parsing.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--worker-mode") == 0) {
      return search::worker_main();
    }
  }
  util::Cli cli{"qhdl_serve",
                "Serve study/train jobs over TCP with admission control, "
                "deadlines, and a content-addressed result cache"};
  cli.add_string("host", "127.0.0.1", "Bind address (numeric IPv4)");
  cli.add_int("port", 7117, "TCP port (0 = ephemeral; see --port-file)");
  cli.add_string("port-file", "",
                 "Write the bound port to this file once listening "
                 "(atomic; lets scripts use --port 0)");
  cli.add_int("executors", 1, "Concurrent job executor threads");
  cli.add_int("max-queue", 8,
              "Jobs allowed to wait beyond the executing ones; excess is "
              "rejected with reason 'overloaded'");
  cli.add_int("max-connections", 64, "Concurrent client connections");
  cli.add_double("job-timeout", 0.0,
                 "Per-job wall-clock budget in seconds (0 = none); an "
                 "expired job replies 'cancelled: deadline exceeded'");
  cli.add_double("read-timeout", 5.0,
                 "Budget for reading one request frame in seconds");
  cli.add_string("cache-dir", "",
                 "Result-cache spill directory (empty = memory-only)");
  cli.add_int("cache-capacity", 8, "In-memory result-cache entries (LRU)");
  search::add_worker_pool_options(
      cli,
      "Crash-isolated worker processes per executor, in one pool that "
      "lives as long as the server (0 = in-process execution)");
  cli.add_flag("quiet", "Suppress progress logging");
  try {
    if (!cli.parse(argc, argv)) return 0;
    if (!cli.flag("quiet")) util::set_log_level(util::LogLevel::Info);

    serve::ServerConfig config;
    config.host = cli.get_string("host");
    config.port = static_cast<std::uint16_t>(cli.get_int("port"));
    config.executors = static_cast<std::size_t>(cli.get_int("executors"));
    config.max_queue = static_cast<std::size_t>(cli.get_int("max-queue"));
    config.max_connections =
        static_cast<std::size_t>(cli.get_int("max-connections"));
    config.job_timeout_ms =
        static_cast<std::uint64_t>(cli.get_double("job-timeout") * 1000.0);
    config.read_timeout_ms =
        static_cast<std::uint64_t>(cli.get_double("read-timeout") * 1000.0);
    config.cache_dir = cli.get_string("cache-dir");
    config.cache_capacity =
        static_cast<std::size_t>(cli.get_int("cache-capacity"));
    config.pool_workers = static_cast<std::size_t>(cli.get_int("workers"));
    if (const auto pool = search::worker_pool_config_from_cli(cli)) {
      config.pool = *pool;
    }

    serve::Server server{std::move(config)};
    server.start();
    std::printf("qhdl_serve: listening on %s:%u\n",
                cli.get_string("host").c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    const std::string port_file = cli.get_string("port-file");
    if (!port_file.empty()) {
      util::atomic_write_file(port_file,
                              std::to_string(server.port()) + "\n");
    }

    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    while (g_drain == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    util::log_info("qhdl_serve: drain requested, finishing in-flight jobs");
    server.stop();

    const serve::ServerStats stats = server.stats();
    std::printf(
        "qhdl_serve: done — %zu completed, %zu failed, %zu cancelled, "
        "%zu shed; cache %zu hits / %zu misses\n",
        stats.jobs_completed, stats.jobs_failed, stats.jobs_cancelled,
        stats.rejected_overloaded, stats.cache.unit_hits,
        stats.cache.unit_misses);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qhdl_serve: error: %s\n", e.what());
    return 1;
  }
}
