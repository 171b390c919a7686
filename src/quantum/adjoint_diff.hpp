// Adjoint differentiation (Jones & Gacon, arXiv:2009.02823) — the same
// algorithm PennyLane's default.qubit uses for simulator gradients.
//
// For a circuit U = U_n … U_1 and Hermitian observable O, the gradient of
// E(θ) = ⟨0|U† O U|0⟩ w.r.t. the angle of gate k is
//     dE/dθ_k = 2 Re ⟨λ_k | (dU_k/dθ_k) | φ_{k-1}⟩,
// computed in a single reverse sweep that maintains |φ⟩ (the forward state
// with gates peeled off) and |λ⟩ (O|ψ⟩ pulled back through the circuit).
// Cost: O(ops · 2^q) — independent of the parameter count, unlike
// parameter-shift.
//
// The VJP variant fuses multiple observables: given upstream weights w_k
// (dL/d⟨O_k⟩ from classical backprop), it runs ONE sweep with the effective
// observable Σ_k w_k O_k, yielding dL/dθ directly. This is what the hybrid
// QuantumLayer calls in its backward pass.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "quantum/circuit.hpp"
#include "quantum/gates.hpp"
#include "quantum/observable.hpp"
#include "quantum/statevector_batch.hpp"

namespace qhdl::quantum {

struct AdjointResult {
  double expectation = 0.0;
  std::vector<double> gradient;  ///< dE/dθ per runtime parameter
};

struct AdjointVjpResult {
  std::vector<double> expectations;  ///< ⟨O_k⟩ per observable
  std::vector<double> gradient;      ///< dL/dθ per runtime parameter
};

/// Gradient of a single observable's expectation w.r.t. every runtime
/// parameter. Parameters shared across ops accumulate (product rule).
AdjointResult adjoint_gradient(const Circuit& circuit,
                               std::span<const double> params,
                               const Observable& observable);

/// Single-sweep vector-Jacobian product over multiple observables.
/// `upstream_weights[k]` multiplies observable k; the returned gradient is
/// Σ_k upstream_weights[k] · d⟨O_k⟩/dθ. Also returns each raw ⟨O_k⟩.
AdjointVjpResult adjoint_vjp(const Circuit& circuit,
                             std::span<const double> params,
                             std::span<const Observable> observables,
                             std::span<const double> upstream_weights);

/// Same, but the circuit starts from `initial_state` instead of |0...0⟩ —
/// needed by amplitude-encoded layers whose state preparation is data, not
/// gates. The gradient covers the circuit parameters only (the caller owns
/// the chain rule through the initial state; see initial_state_cogradient).
AdjointVjpResult adjoint_vjp_from_state(
    const Circuit& circuit, std::span<const double> params,
    const StateVector& initial_state,
    std::span<const Observable> observables,
    std::span<const double> upstream_weights);

/// Co-gradient of the weighted expectation with respect to the REAL part of
/// each initial amplitude: returns v with
///   v_i = 2 Re[ (U† O_eff U |φ⟩)_i ],   O_eff = Σ_k w_k O_k,
/// so that for real amplitude vectors dE/dφ_i = v_i. Used by amplitude
/// encoding to backpropagate into the data register.
std::vector<double> initial_state_cogradient(
    const Circuit& circuit, std::span<const double> params,
    const StateVector& initial_state,
    std::span<const Observable> observables,
    std::span<const double> upstream_weights);

/// Full Jacobian d⟨O_k⟩/dθ_j as rows per observable (one adjoint sweep per
/// observable; used in tests and for Fisher-style analyses).
std::vector<std::vector<double>> adjoint_jacobian(
    const Circuit& circuit, std::span<const double> params,
    std::span<const Observable> observables);

// --- batched (SoA) adjoint VJP --------------------------------------------

struct BatchAdjointVjpResult {
  std::size_t batch = 0;
  std::size_t observable_count = 0;
  std::vector<double> expectations;  ///< [b * observable_count + k]
  std::vector<double> gradient;      ///< [b * parameter_count + p]
};

/// The batched adjoint's working set, sized once: the forward state φ, the
/// co-state λ, the derivative scratch μ, the angle/trig table and the
/// gradient rows. forward() evolves φ = U|0⟩ for a batch of parameter rows
/// and reads off the expectations; sweep() then runs the reverse pass
/// seeded from that φ — no second forward — and consumes it. Once warm
/// (the first forward and sweep at the largest row counts), neither
/// allocates.
///
/// Requires every observable to be diagonal (all-Z) so the co-state seed is
/// a per-amplitude multiply — the hybrid layer's ⟨Z_w⟩ heads satisfy this;
/// callers with X/Y observables fall back to the per-row adjoint_vjp.
/// Throws std::invalid_argument otherwise. The circuit must outlive the
/// state.
class BatchAdjointState {
 public:
  /// Sized for forwards of up to `max_rows` rows and sweeps of up to
  /// `max_sweep_rows` (0 for a forward-only state).
  BatchAdjointState(const Circuit& circuit,
                    std::span<const Observable> observables,
                    std::size_t max_rows, std::size_t max_sweep_rows);

  /// Evolves φ for `rows` parameter rows (row b at params[b * stride]) and
  /// writes ⟨O_k⟩ of row b to expectations[b * K + k]; an empty
  /// `expectations` skips the readout.
  void forward(std::span<const double> params, std::size_t stride,
               std::size_t rows, std::span<double> expectations);

  /// True between a forward() and the sweep() that consumes its φ.
  bool holds_forward_state() const { return holds_state_; }

  /// Reverse sweep from the held φ with upstream weights
  /// upstream[b * K + k]; afterwards gradient() holds dL/dθ of row b at
  /// [b * P + p] (P = circuit parameters). Throws std::logic_error when no
  /// forward state is held: a consumed φ is never swept twice.
  void sweep(std::span<const double> upstream);

  /// The last sweep's gradient rows.
  std::span<const double> gradient() const {
    return {gradient_.data(),
            std::min(gradient_.size(), rows_ * parameter_count_)};
  }

 private:
  const Circuit* circuit_;
  std::size_t observable_count_;
  std::size_t parameter_count_;
  std::vector<double> diagonals_;  ///< [k * 2^q + i]
  BatchAngleTable angles_;
  StateVectorBatch phi_, lambda_, mu_;
  std::vector<double> row_inner_;
  std::vector<double> gradient_;
  std::size_t rows_ = 0;
  bool holds_state_ = false;
};

/// One reverse sweep over a whole SoA batch of rows: a BatchAdjointState
/// forward, then its sweep from that state. Row b reads its circuit
/// parameters from params[b*param_stride, (b+1)*param_stride) and its
/// upstream weights from upstream_weights[b*K, (b+1)*K) with
/// K = observables.size(). Same diagonal-observable requirement.
BatchAdjointVjpResult adjoint_vjp_batch(
    const Circuit& circuit, std::span<const double> params,
    std::size_t param_stride, std::size_t batch_rows,
    std::span<const Observable> observables,
    std::span<const double> upstream_weights);

}  // namespace qhdl::quantum
