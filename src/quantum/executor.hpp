// QNode-style executor: a circuit plus a list of observables, runnable on a
// parameter vector, with gradients via adjoint (default) or parameter-shift.
// This is the seam between the quantum simulator and the QNN layer.
#pragma once

#include <span>
#include <vector>

#include "quantum/adjoint_diff.hpp"
#include "quantum/circuit.hpp"
#include "quantum/observable.hpp"

namespace qhdl::quantum {

enum class DiffMethod { Adjoint, ParameterShift };

class Executor {
 public:
  Executor(Circuit circuit, std::vector<Observable> observables,
           DiffMethod diff_method = DiffMethod::Adjoint);

  const Circuit& circuit() const { return circuit_; }
  std::size_t observable_count() const { return observables_.size(); }
  std::span<const Observable> observables() const { return observables_; }
  std::size_t parameter_count() const { return circuit_.parameter_count(); }
  DiffMethod diff_method() const { return diff_method_; }

  /// Forward only: ⟨O_k⟩ for each observable.
  std::vector<double> run(std::span<const double> params) const;

  /// Forward + VJP: expectations and dL/dθ given upstream dL/d⟨O_k⟩.
  AdjointVjpResult run_with_vjp(std::span<const double> params,
                                std::span<const double> upstream) const;

  /// Full Jacobian d⟨O_k⟩/dθ_j (row per observable).
  std::vector<std::vector<double>> jacobian(
      std::span<const double> params) const;

  /// True when the batched SoA path can serve this executor: adjoint
  /// differentiation, all-diagonal observables, and a production (not the
  /// reference) kernel backend.
  bool batch_path_available() const;

  /// Forward for `batch_rows` parameter rows at once through the SoA
  /// kernels. Row b reads params[b*param_stride, (b+1)*param_stride).
  /// Returns expectations [b * observable_count + k]. Falls back to per-row
  /// run() when batch_path_available() is false.
  std::vector<double> run_batch(std::span<const double> params,
                                std::size_t param_stride,
                                std::size_t batch_rows) const;

  /// Batched forward + VJP; upstream is [b * observable_count + k]. Falls
  /// back to per-row run_with_vjp when batch_path_available() is false.
  BatchAdjointVjpResult run_with_vjp_batch(
      std::span<const double> params, std::size_t param_stride,
      std::size_t batch_rows, std::span<const double> upstream) const;

 private:
  Circuit circuit_;
  std::vector<Observable> observables_;
  DiffMethod diff_method_;
};

}  // namespace qhdl::quantum
