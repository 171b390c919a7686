// Figure-level benchmark report: times the hybrid-layer workloads the
// figures lean on (batch forward/backward, adjoint VJP) on the active
// backend's compiled plans, and writes BENCH_figs.json via the shared JSON
// reporter — the figure-scale counterpart of tools/bench_report.py's
// BENCH_micro.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/json_report.hpp"
#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "qnn/quantum_layer.hpp"
#include "quantum/adjoint_diff.hpp"
#include "quantum/circuit.hpp"
#include "quantum/observable.hpp"
#include "quantum/statevector.hpp"
#include "quantum/exec_plan.hpp"
#include "quantum/kernels.hpp"
#include "tensor/tensor.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace qhdl;

double median(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Times `fn` and reports the median ns/call over `repeat` samples. Each
/// sample is a timed block of `inner` calls, which amortizes timer
/// granularity; one untimed call first primes thread-local scratch and the
/// plan cache. The entry carries the cumulative plan-cache counters at the
/// time the workload finished, proving the timed calls hit the cache
/// instead of recompiling.
bench::BenchEntry time_workload(const std::string& name, std::size_t repeat,
                                std::size_t inner, double amps_per_op,
                                const std::function<void()>& fn) {
  fn();
  std::vector<double> samples;
  for (std::size_t r = 0; r < repeat; ++r) {
    const auto begin = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < inner; ++i) fn();
    const auto end = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::nano>(end - begin).count() /
        static_cast<double>(inner));
  }
  bench::BenchEntry entry;
  entry.name = name;
  entry.ns_per_op = median(samples);
  if (amps_per_op > 0.0) {
    entry.amps_per_sec = amps_per_op / (entry.ns_per_op * 1e-9);
  }
  const auto stats = quantum::plan_cache::stats();
  entry.extra["plan_cache_hits"] = static_cast<double>(stats.hits);
  entry.extra["plan_cache_misses"] = static_cast<double>(stats.misses);
  entry.extra["plan_cache_compiled"] = static_cast<double>(stats.compiled);
  return entry;
}

struct LayerWorkload {
  qnn::QuantumLayer layer;
  tensor::Tensor input;
  tensor::Tensor upstream;
  double amps_per_call = 0.0;
};

// Scalar (per-sample) workload over the raw circuit: the path taken by
// parameter-shift, shots, and noisy evaluation.
struct ScalarWorkload {
  quantum::Circuit circuit;
  std::vector<double> params;
  std::vector<quantum::Observable> observables;
  std::vector<double> upstream;
  double amps_per_call = 0.0;
};

ScalarWorkload make_scalar_workload(std::size_t qubits, std::size_t depth,
                                    util::Rng& rng) {
  ScalarWorkload workload{quantum::Circuit{qubits}, {}, {}, {}, 0.0};
  qnn::AngleEncoding encoding;
  std::size_t count = encoding.append(workload.circuit, qubits);
  count += qnn::append_ansatz(workload.circuit,
                              qnn::AnsatzKind::StronglyEntangling, qubits,
                              depth, count);
  workload.params = rng.uniform_vector(count, -2.0, 2.0);
  for (std::size_t w = 0; w < qubits; ++w) {
    workload.observables.push_back(quantum::Observable::pauli_z(w));
    workload.upstream.push_back(rng.uniform(-1.0, 1.0));
  }
  workload.amps_per_call =
      static_cast<double>(workload.circuit.op_count()) *
      static_cast<double>(std::size_t{1} << qubits);
  return workload;
}

LayerWorkload make_layer_workload(std::size_t qubits, std::size_t depth,
                                  std::size_t batch, util::Rng& rng) {
  qnn::QuantumLayerConfig config;
  config.qubits = qubits;
  config.depth = depth;
  config.threads = 1;
  LayerWorkload workload{qnn::QuantumLayer{config, rng},
                         tensor::Tensor{tensor::Shape{batch, qubits}},
                         tensor::Tensor{tensor::Shape{batch, qubits}}, 0.0};
  for (std::size_t i = 0; i < workload.input.size(); ++i) {
    workload.input[i] = rng.uniform(-1.0, 1.0);
    workload.upstream[i] = rng.uniform(-1.0, 1.0);
  }
  workload.amps_per_call =
      static_cast<double>(batch) *
      static_cast<double>(workload.layer.executor().circuit().op_count()) *
      static_cast<double>(std::size_t{1} << qubits);
  return workload;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli{"bench_figs_report",
                "Times figure-level hybrid workloads on compiled plans and "
                "writes BENCH_figs.json"};
  cli.add_string("out", "BENCH_figs.json", "output JSON path");
  cli.add_int("repeat", 9, "timed repetitions per workload");
  if (!cli.parse(argc, argv)) return 0;
  const std::string out_path = cli.get_string("out");
  const auto repeat = static_cast<std::size_t>(cli.get_int("repeat"));

  util::Rng rng{29};
  std::vector<bench::BenchEntry> entries;
  quantum::plan_cache::reset_stats();

  auto sel5 = make_layer_workload(5, 10, 16, rng);
  entries.push_back(time_workload(
      "figs/sel_q5_d10_b16_forward", repeat, 16, sel5.amps_per_call,
      [&] { sel5.layer.forward(sel5.input); }));
  sel5.layer.forward(sel5.input);
  entries.push_back(time_workload(
      "figs/sel_q5_d10_b16_backward", repeat, 4, sel5.amps_per_call,
      [&] { sel5.layer.backward(sel5.upstream); }));

  auto sel8 = make_layer_workload(8, 2, 16, rng);
  entries.push_back(time_workload(
      "figs/sel_q8_d2_b16_forward", repeat, 8, sel8.amps_per_call,
      [&] { sel8.layer.forward(sel8.input); }));

  // Scalar per-sample path (parameter-shift / shots / noise route).
  auto scalar5 = make_scalar_workload(5, 10, rng);
  entries.push_back(time_workload(
      "figs/sel_q5_d10_scalar_forward", repeat, 64, scalar5.amps_per_call,
      [&] {
        quantum::StateVector state{5};
        scalar5.circuit.run(state, scalar5.params);
      }));
  entries.push_back(time_workload(
      "figs/sel_q5_d10_scalar_backward", repeat, 24, scalar5.amps_per_call,
      [&] {
        quantum::adjoint_vjp(scalar5.circuit, scalar5.params,
                             scalar5.observables, scalar5.upstream);
      }));

  // Small-state scalar workload: at q3 the per-op bookkeeping is
  // comparable to the kernel arithmetic.
  auto scalar3 = make_scalar_workload(3, 10, rng);
  entries.push_back(time_workload(
      "figs/sel_q3_d10_scalar_forward", repeat, 128, scalar3.amps_per_call,
      [&] {
        quantum::StateVector state{3};
        scalar3.circuit.run(state, scalar3.params);
      }));

  bench::write_bench_json(out_path, bench::collect_metadata(), entries);
  std::printf("wrote %s (%zu workloads)\n", out_path.c_str(),
              entries.size());
  const auto stats = quantum::kernels::stats();
  std::printf("%s\n", stats.to_string().c_str());
  std::printf("%s\n", quantum::plan_cache::stats().to_string().c_str());
  return 0;
}
