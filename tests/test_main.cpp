// Shared gtest entry point for every test binary. It intercepts
// --worker-mode / --worker-connect before gtest sees the argv, so any test
// binary can serve as its own worker-pool child process (the pool's default
// command re-execs the current executable —
// util::current_executable_path()) or as a remote qhdl_worker daemon for
// the distributed-pool tests. This is what lets those tests spawn real
// supervised OS processes without a separate worker binary.
// --interrupt-probe runs the signal-delivery checks of the Interrupt.*
// tests in a freshly exec'd process.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "search/worker_protocol.hpp"
#include "util/interrupt.hpp"

namespace {

/// Raises two signals at a process with the interrupt handler installed.
/// "sigint-twice" must end in the handler's _exit(130) (returns 1 if the
/// first SIGINT did not set the flag, 2 if the second did not escalate);
/// "sigterm-twice" returns 42 when both SIGTERMs stayed cooperative.
int interrupt_probe(const std::string& mode) {
  qhdl::util::install_interrupt_handler();
  if (mode == "sigint-twice") {
    std::raise(SIGINT);
    if (!qhdl::util::interrupt_requested()) return 1;
    std::raise(SIGINT);
    return 2;
  }
  if (mode == "sigterm-twice") {
    std::raise(SIGTERM);
    std::raise(SIGTERM);
    return qhdl::util::interrupt_requested() ? 42 : 1;
  }
  std::fprintf(stderr, "--interrupt-probe: unknown mode %s\n", mode.c_str());
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--interrupt-probe") == 0 && i + 1 < argc) {
      return interrupt_probe(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--worker-mode") == 0) {
      return qhdl::search::worker_main();
    }
    if (std::strcmp(argv[i], "--worker-connect") == 0 && i + 1 < argc) {
      qhdl::search::RemoteWorkerOptions options;
      if (!qhdl::search::parse_host_port(argv[i + 1], &options.host,
                                         &options.port)) {
        std::fprintf(stderr, "--worker-connect needs host:port\n");
        return 2;
      }
      // Tests want fast turnarounds, not production backoff curves.
      options.connect_timeout_ms = 2000;
      options.reconnect_initial_ms = 50;
      options.reconnect_max_ms = 500;
      for (int j = 1; j < argc; ++j) {
        if (std::strcmp(argv[j], "--worker-slots") == 0 && j + 1 < argc) {
          options.slots = static_cast<std::size_t>(std::atoi(argv[j + 1]));
        } else if (std::strcmp(argv[j], "--worker-max-retries") == 0 &&
                   j + 1 < argc) {
          options.max_reconnect_failures =
              static_cast<std::size_t>(std::atoi(argv[j + 1]));
        }
      }
      if (options.slots == 0) options.slots = 1;
      return qhdl::search::remote_worker_main(options);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
