// Cooperative SIGINT/SIGTERM handling for the long-running drivers.
//
// The study is an hours-long sweep; a Ctrl-C or a scheduler's SIGTERM must
// not lose work. The async-signal handler only sets a flag; the unit
// scheduler polls it at every unit dispatch and raises Interrupted once
// its running units have returned, past the checkpoint — already flushed at every unit
// boundary — and up to the driver, which reports the resume command and
// exits cleanly with status 130. When a worker pool is active, the
// supervisor observes the flag and forwards SIGTERM to every live worker so
// in-flight training stops promptly (search/worker_pool.cpp).
//
// A SECOND SIGINT escalates: the handler calls _exit(130) immediately, so a
// wedged cooperative path (e.g. a hung worker still being drained) can never
// trap the user at the terminal.
#pragma once

#include <stdexcept>

namespace qhdl::util {

/// Raised by throw_if_interrupted() once a handled signal has arrived.
class Interrupted : public std::runtime_error {
 public:
  Interrupted() : std::runtime_error("interrupted (SIGINT/SIGTERM)") {}
};

/// Installs the flag-setting handler for SIGINT and SIGTERM. Idempotent.
/// Only drivers call this; the library and tests never take over signals.
void install_interrupt_handler();

/// True once a handled signal has arrived.
bool interrupt_requested();

/// Requests cooperative shutdown programmatically (what the signal handler
/// does); exists for tests.
void request_interrupt();

/// Clears the flag (tests).
void clear_interrupt();

/// Throws Interrupted when the flag is set. Called at unit boundaries.
void throw_if_interrupted();

}  // namespace qhdl::util
