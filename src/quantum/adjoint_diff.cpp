#include "quantum/adjoint_diff.hpp"

#include <algorithm>
#include <stdexcept>

#include "quantum/exec_plan.hpp"
#include "quantum/kernels.hpp"
#include "quantum/statevector_batch.hpp"

namespace qhdl::quantum {

namespace {

// The sweeps below run over the compiled plan's flat op stream (the op list
// minus exactly-cancelled involution pairs — see exec_plan.hpp), or over
// the circuit's raw op list on the reference backend, which never plans.
// These shims give both op types one parameter-slot interface.
inline bool op_has_param(const Op& op) { return op.param_index.has_value(); }
inline std::size_t op_param(const Op& op) { return *op.param_index; }
inline bool op_has_param(const PlanOp& op) { return op.param_slot >= 0; }
inline std::size_t op_param(const PlanOp& op) {
  return static_cast<std::size_t>(op.param_slot);
}

/// Core reverse sweep shared by the scalar and VJP entry points.
/// `lambda` must hold O_eff|ψ⟩ on entry; `phi` must hold |ψ⟩.
template <typename OpT>
std::vector<double> reverse_sweep_ops(std::span<const OpT> ops,
                                      std::size_t parameter_count,
                                      std::size_t num_qubits,
                                      std::span<const double> params,
                                      StateVector& phi, StateVector& lambda) {
  std::vector<double> gradient(parameter_count, 0.0);
  StateVector mu{num_qubits};

  for (std::size_t idx = ops.size(); idx-- > 0;) {
    const OpT& op = ops[idx];
    const double angle = op.angle(params);
    // Peel the gate off the forward state: φ ← U_k† φ.
    apply_gate_inverse(phi, op.type, angle, op.wire0, op.wire1);

    if (op_has_param(op)) {
      // μ = (dU_k/dθ) φ_{k-1}; contribution = 2 Re⟨λ|μ⟩.
      mu = phi;
      apply_gate_derivative(mu, op.type, angle, op.wire0, op.wire1);
      gradient[op_param(op)] += 2.0 * lambda.inner_product(mu).real();
    }

    // Pull the co-state back: λ ← U_k† λ.
    apply_gate_inverse(lambda, op.type, angle, op.wire0, op.wire1);
  }
  return gradient;
}

/// Calls `fn` with the op stream the sweeps walk: the plan's flat ops on a
/// production backend, the raw op list on the reference backend.
template <typename Fn>
decltype(auto) with_sweep_ops(const Circuit& circuit, Fn&& fn) {
  if (kernels::force_generic()) return fn(std::span<const Op>{circuit.ops()});
  return fn(circuit.compiled_plan()->flat_ops());
}

std::vector<double> reverse_sweep(const Circuit& circuit,
                                  std::span<const double> params,
                                  StateVector& phi, StateVector& lambda) {
  return with_sweep_ops(circuit, [&](auto ops) {
    return reverse_sweep_ops(ops, circuit.parameter_count(),
                             circuit.num_qubits(), params, phi, lambda);
  });
}

}  // namespace

AdjointResult adjoint_gradient(const Circuit& circuit,
                               std::span<const double> params,
                               const Observable& observable) {
  StateVector psi = circuit.execute(params);
  AdjointResult result;
  result.expectation = observable.expectation(psi);

  StateVector lambda{circuit.num_qubits()};
  observable.apply(psi, lambda);
  result.gradient = reverse_sweep(circuit, params, psi, lambda);
  return result;
}

namespace {

/// λ = Σ_k w_k (O_k ψ) — the adjoint co-state seed.
StateVector weighted_observable_state(
    const StateVector& psi, std::span<const Observable> observables,
    std::span<const double> upstream_weights) {
  StateVector lambda{psi.num_qubits()};
  StateVector scratch{psi.num_qubits()};
  for (auto& a : lambda.amplitudes()) a = Complex{0.0, 0.0};
  for (std::size_t k = 0; k < observables.size(); ++k) {
    if (upstream_weights[k] == 0.0) continue;
    observables[k].apply(psi, scratch);
    auto lam = lambda.amplitudes();
    auto scr = scratch.amplitudes();
    for (std::size_t i = 0; i < lam.size(); ++i) {
      lam[i] += upstream_weights[k] * scr[i];
    }
  }
  return lambda;
}

AdjointVjpResult adjoint_vjp_impl(const Circuit& circuit,
                                  std::span<const double> params,
                                  StateVector psi,
                                  std::span<const Observable> observables,
                                  std::span<const double> upstream_weights) {
  AdjointVjpResult result;
  result.expectations.reserve(observables.size());
  for (const Observable& obs : observables) {
    result.expectations.push_back(obs.expectation(psi));
  }
  StateVector lambda =
      weighted_observable_state(psi, observables, upstream_weights);
  result.gradient = reverse_sweep(circuit, params, psi, lambda);
  return result;
}

}  // namespace

AdjointVjpResult adjoint_vjp(const Circuit& circuit,
                             std::span<const double> params,
                             std::span<const Observable> observables,
                             std::span<const double> upstream_weights) {
  if (observables.size() != upstream_weights.size()) {
    throw std::invalid_argument(
        "adjoint_vjp: observables/upstream size mismatch");
  }
  return adjoint_vjp_impl(circuit, params, circuit.execute(params),
                          observables, upstream_weights);
}

AdjointVjpResult adjoint_vjp_from_state(
    const Circuit& circuit, std::span<const double> params,
    const StateVector& initial_state,
    std::span<const Observable> observables,
    std::span<const double> upstream_weights) {
  if (observables.size() != upstream_weights.size()) {
    throw std::invalid_argument(
        "adjoint_vjp_from_state: observables/upstream size mismatch");
  }
  StateVector psi = initial_state;
  circuit.run(psi, params);
  return adjoint_vjp_impl(circuit, params, std::move(psi), observables,
                          upstream_weights);
}

std::vector<double> initial_state_cogradient(
    const Circuit& circuit, std::span<const double> params,
    const StateVector& initial_state,
    std::span<const Observable> observables,
    std::span<const double> upstream_weights) {
  if (observables.size() != upstream_weights.size()) {
    throw std::invalid_argument(
        "initial_state_cogradient: observables/upstream size mismatch");
  }
  // v = U† O_eff U |φ⟩: run forward, seed with O_eff, pull back through U†.
  StateVector psi = initial_state;
  circuit.run(psi, params);
  StateVector lambda =
      weighted_observable_state(psi, observables, upstream_weights);
  const auto pull_back = [&](auto ops) {
    for (std::size_t idx = ops.size(); idx-- > 0;) {
      const auto& op = ops[idx];
      apply_gate_inverse(lambda, op.type, op.angle(params), op.wire0,
                         op.wire1);
    }
  };
  with_sweep_ops(circuit, pull_back);
  std::vector<double> cogradient(lambda.dimension());
  const auto amps = lambda.amplitudes();
  for (std::size_t i = 0; i < cogradient.size(); ++i) {
    cogradient[i] = 2.0 * amps[i].real();
  }
  return cogradient;
}

BatchAdjointVjpResult adjoint_vjp_batch(
    const Circuit& circuit, std::span<const double> params,
    std::size_t param_stride, std::size_t batch_rows,
    std::span<const Observable> observables,
    std::span<const double> upstream_weights) {
  const std::size_t obs_count = observables.size();
  if (upstream_weights.size() != batch_rows * obs_count) {
    throw std::invalid_argument(
        "adjoint_vjp_batch: upstream_weights size must be batch * "
        "observables");
  }
  if (batch_rows == 0) {
    throw std::invalid_argument("adjoint_vjp_batch: batch must be >= 1");
  }
  // Same strictness as Circuit::run/run_batch: a stride or size mismatch in
  // either direction is a packing-layout bug, not something to read past.
  if (param_stride < circuit.parameter_count()) {
    throw std::invalid_argument(
        "adjoint_vjp_batch: param_stride " + std::to_string(param_stride) +
        " < " + std::to_string(circuit.parameter_count()) +
        " circuit parameters");
  }
  if (params.size() != batch_rows * param_stride) {
    throw std::invalid_argument(
        "adjoint_vjp_batch: got " + std::to_string(params.size()) +
        " params, need exactly " + std::to_string(batch_rows * param_stride));
  }

  BatchAdjointVjpResult result;
  result.batch = batch_rows;
  result.observable_count = obs_count;
  result.expectations.resize(batch_rows * obs_count);
  BatchAdjointState state{circuit, observables, batch_rows, batch_rows};
  state.forward(params, param_stride, batch_rows, result.expectations);
  state.sweep(upstream_weights);
  const std::span<const double> gradient = state.gradient();
  result.gradient.assign(gradient.begin(), gradient.end());
  return result;
}

BatchAdjointState::BatchAdjointState(const Circuit& circuit,
                                     std::span<const Observable> observables,
                                     std::size_t max_rows,
                                     std::size_t max_sweep_rows)
    : circuit_(&circuit),
      observable_count_(observables.size()),
      parameter_count_(circuit.parameter_count()),
      phi_{circuit.num_qubits(), max_rows},
      lambda_{circuit.num_qubits(), std::max<std::size_t>(1, max_sweep_rows)},
      mu_{circuit.num_qubits(), std::max<std::size_t>(1, max_sweep_rows)},
      row_inner_(max_sweep_rows),
      gradient_(max_sweep_rows * circuit.parameter_count()) {
  // Each diagonal entry matches expectation()'s fast-path sign_weight, so
  // the per-row expectations are bit-identical to the scalar path.
  const std::size_t dimension = phi_.dimension();
  diagonals_.reserve(observables.size() * dimension);
  for (const Observable& obs : observables) {
    if (!obs.is_diagonal()) {
      throw std::invalid_argument(
          "adjoint_vjp_batch: all observables must be diagonal (all-Z); "
          "fall back to per-row adjoint_vjp for " +
          obs.to_string());
    }
    const std::vector<double> diagonal = obs.diagonal(circuit.num_qubits());
    diagonals_.insert(diagonals_.end(), diagonal.begin(), diagonal.end());
  }
}

void BatchAdjointState::forward(std::span<const double> params,
                                std::size_t stride, std::size_t rows,
                                std::span<double> expectations) {
  if (rows == 0 || stride < parameter_count_ ||
      params.size() != rows * stride) {
    throw std::invalid_argument(
        "BatchAdjointState::forward: need rows >= 1 and exactly rows * "
        "stride params with stride >= the circuit's parameters");
  }
  if (!expectations.empty() &&
      expectations.size() != rows * observable_count_) {
    throw std::invalid_argument(
        "BatchAdjointState::forward: expectations size must be rows * "
        "observables");
  }
  holds_state_ = false;
  angles_.load(params, stride, rows, parameter_count_);
  phi_.reset(rows);
  circuit_->run_batch(phi_, angles_);
  rows_ = rows;
  holds_state_ = true;
  if (expectations.empty()) return;

  std::fill(expectations.begin(), expectations.end(), 0.0);
  const std::size_t dimension = phi_.dimension();
  const std::size_t obs_count = observable_count_;
  const std::span<const Complex> amps = phi_.amplitudes();
  for (std::size_t i = 0; i < dimension; ++i) {
    for (std::size_t b = 0; b < rows; ++b) {
      const double p = std::norm(amps[i * rows + b]);
      for (std::size_t k = 0; k < obs_count; ++k) {
        expectations[b * obs_count + k] += diagonals_[k * dimension + i] * p;
      }
    }
  }
}

void BatchAdjointState::sweep(std::span<const double> upstream) {
  if (!holds_state_) {
    throw std::logic_error(
        "BatchAdjointState::sweep: no forward state held (a sweep consumes "
        "the forward's state; run forward again)");
  }
  // Consumed from here on, even if the sweep throws part-way.
  holds_state_ = false;
  const std::size_t rows = rows_;
  const std::size_t obs_count = observable_count_;
  if (upstream.size() != rows * obs_count) {
    throw std::invalid_argument(
        "BatchAdjointState::sweep: upstream size must be rows * "
        "observables");
  }
  const std::size_t dimension = phi_.dimension();
  if (row_inner_.size() < rows) row_inner_.resize(rows);
  if (gradient_.size() < rows * parameter_count_) {
    gradient_.resize(rows * parameter_count_);
  }

  // Co-state seed: λ_b = Σ_k w_{b,k} (O_k ψ_b), accumulated term-by-term in
  // the same order as the scalar weighted_observable_state (k outer,
  // ascending i, w == 0 terms skipped) — bit-identical per row for the
  // single-term observables the hybrid layer emits.
  lambda_.reset(rows);
  {
    const std::span<const Complex> amps = phi_.amplitudes();
    const std::span<Complex> lam = lambda_.amplitudes();
    std::fill(lam.begin(), lam.end(), Complex{0.0, 0.0});
    for (std::size_t k = 0; k < obs_count; ++k) {
      const double* diag = diagonals_.data() + k * dimension;
      for (std::size_t i = 0; i < dimension; ++i) {
        for (std::size_t b = 0; b < rows; ++b) {
          const double w = upstream[b * obs_count + k];
          if (w == 0.0) continue;
          lam[i * rows + b] += w * (diag[i] * amps[i * rows + b]);
        }
      }
    }
  }

  // Reverse sweep, batched: peel φ, form μ = (dU/dθ)φ, take per-row
  // Re⟨λ|μ⟩, pull λ back. RX/RY/RZ read the forward's trig table: the
  // inverse is the rotation with the negated sine.
  const std::size_t parameter_count = parameter_count_;
  std::fill_n(gradient_.begin(), rows * parameter_count, 0.0);
  mu_.reset(rows);
  const std::span<double> row_inner{row_inner_.data(), rows};
  const auto accumulate = [&](std::size_t slot) {
    lambda_.inner_products_real(mu_, row_inner);
    for (std::size_t b = 0; b < rows; ++b) {
      gradient_[b * parameter_count + slot] += 2.0 * row_inner[b];
    }
  };
  const auto sweep_ops = [&](auto ops) {
    for (std::size_t idx = ops.size(); idx-- > 0;) {
      const auto& op = ops[idx];
      if (!op_has_param(op)) {
        const std::span<const double> fixed{&op.fixed_angle, 1};
        apply_gate_inverse_batch(phi_, op.type, fixed, op.wire0, op.wire1);
        apply_gate_inverse_batch(lambda_, op.type, fixed, op.wire0,
                                 op.wire1);
        continue;
      }
      const std::size_t slot = op_param(op);
      if (is_half_angle_rotation(op.type)) {
        const auto c = angles_.cos_half(slot);
        const auto s = angles_.sin_half(slot);
        const auto neg_s = angles_.neg_sin_half(slot);
        apply_rotation_batch(phi_, op.type, c, neg_s, op.wire0);
        mu_.assign_from(phi_);
        apply_rotation_derivative_batch(mu_, op.type, c, s, op.wire0);
        accumulate(slot);
        apply_rotation_batch(lambda_, op.type, c, neg_s, op.wire0);
      } else {
        const auto angles = angles_.angles(slot);
        apply_gate_inverse_batch(phi_, op.type, angles, op.wire0, op.wire1);
        mu_.assign_from(phi_);
        apply_gate_derivative_batch(mu_, op.type, angles, op.wire0,
                                    op.wire1);
        accumulate(slot);
        apply_gate_inverse_batch(lambda_, op.type, angles, op.wire0,
                                 op.wire1);
      }
    }
  };
  // The flat plan stream is the op list minus exactly-cancelled involution
  // pairs (bit-identical, and never parameterized), so gradients match a
  // sweep over the raw op list exactly.
  with_sweep_ops(*circuit_, sweep_ops);
}

std::vector<std::vector<double>> adjoint_jacobian(
    const Circuit& circuit, std::span<const double> params,
    std::span<const Observable> observables) {
  std::vector<std::vector<double>> jacobian;
  jacobian.reserve(observables.size());
  for (const Observable& obs : observables) {
    jacobian.push_back(adjoint_gradient(circuit, params, obs).gradient);
  }
  return jacobian;
}

}  // namespace qhdl::quantum
