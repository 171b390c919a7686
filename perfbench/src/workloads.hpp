// The benchmark's workloads (see perfbench/README.md for why each exists).
#pragma once

#include "common.hpp"

namespace perfbench {

/// sweep_classical (hybrid = false) or sweep_hybrid (hybrid = true).
WorkloadResult run_sweep_workload(const RunOptions& options, bool hybrid);

/// serve_mixed: closed-loop clients against an in-process serve::Server.
WorkloadResult run_serve_workload(const RunOptions& options);

/// The in-process part of a workload's set-up, run by a --setup-probe
/// child before it reports ready (see spawned_setup_seconds).
void sweep_setup();
/// Starts the workload's server until its first accepted connection is
/// answered. The server is left running: the probe exits right after.
void serve_setup(const RunOptions& options);

}  // namespace perfbench
