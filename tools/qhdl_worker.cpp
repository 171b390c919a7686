// qhdl_worker: remote worker daemon for distributed sweeps (DESIGN.md §16).
//
//   ./qhdl_worker --connect 10.0.0.5:7200 --slots 4
//
// Dials the supervisor (a WorkerPool listening via --listen / remote
// workers), registers each slot with a handshake frame, and then runs the
// standard worker loop — init, units, heartbeats, results — over the
// connection. A lost connection is retried forever (or until --max-retries)
// with seeded, jittered exponential backoff; every reconnect is a fresh
// registration, so the supervisor sees the slot come back on its own.
//
// One daemon serves one supervisor: a run_study/model_search run, or a
// qhdl_serve server for its whole life (its pool outlives every study job).
//
// Exit codes: 0 once every slot has received a shutdown frame (the
// supervisor finished or stopped), 1 when any slot ran out of
// --max-retries. A connection lost without a shutdown frame is never an
// exit: the slot reconnects.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "search/worker_protocol.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  using namespace qhdl;
  util::Cli cli{"qhdl_worker",
                "Worker daemon: connect to a supervisor and evaluate units"};
  cli.add_string("connect", "",
                 "Supervisor address as host:port (required; the port a "
                 "driver printed for --listen)");
  cli.add_int("slots", 1,
              "Parallel worker slots — independent connections, each "
              "registered separately and dispatched one unit at a time");
  cli.add_double("connect-timeout", 5.0,
                 "Per-attempt connect timeout in seconds");
  cli.add_double("reconnect-initial", 0.2,
                 "Initial reconnect backoff in seconds (jittered "
                 "exponential, doubling up to --reconnect-max)");
  cli.add_double("reconnect-max", 10.0, "Reconnect backoff cap in seconds");
  cli.add_int("jitter-seed", 0,
              "Seed for the backoff jitter (0 = fixed default; any value "
              "makes the retry schedule reproducible)");
  cli.add_int("max-retries", 0,
              "Consecutive connection failures per slot before giving up "
              "(0 = retry forever)");
  cli.add_flag("quiet", "Suppress progress logging");
  try {
    if (!cli.parse(argc, argv)) return 0;
    if (cli.flag("quiet")) util::set_log_level(util::LogLevel::Warn);

    search::RemoteWorkerOptions options;
    if (!search::parse_host_port(cli.get_string("connect"), &options.host,
                                 &options.port)) {
      throw std::runtime_error(
          "--connect requires host:port (e.g. --connect 127.0.0.1:7200)");
    }
    options.slots =
        static_cast<std::size_t>(std::max<long>(1, cli.get_int("slots")));
    options.connect_timeout_ms = static_cast<std::uint64_t>(
        cli.get_double("connect-timeout") * 1000.0);
    options.reconnect_initial_ms = static_cast<std::uint64_t>(
        cli.get_double("reconnect-initial") * 1000.0);
    options.reconnect_max_ms =
        static_cast<std::uint64_t>(cli.get_double("reconnect-max") * 1000.0);
    if (cli.get_int("jitter-seed") != 0) {
      options.jitter_seed =
          static_cast<std::uint64_t>(cli.get_int("jitter-seed"));
    }
    options.max_reconnect_failures = static_cast<std::size_t>(
        std::max<long>(0, cli.get_int("max-retries")));
    return search::remote_worker_main(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qhdl_worker: error: %s\n", e.what());
    return 1;
  }
}
