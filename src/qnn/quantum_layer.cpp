#include "qnn/quantum_layer.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>
#include <stdexcept>

#include "quantum/sampling.hpp"
#include "tensor/init.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace qhdl::qnn {

using quantum::Circuit;
using quantum::Executor;
using quantum::Observable;
using tensor::Shape;
using tensor::Tensor;

Executor make_quantum_executor(const QuantumLayerConfig& config) {
  Circuit circuit{config.qubits};
  std::size_t offset =
      config.encoding.append(circuit, config.qubits, /*param_offset=*/0);
  append_ansatz(circuit, config.ansatz, config.qubits, config.depth, offset);

  std::vector<Observable> observables;
  observables.reserve(config.qubits);
  for (std::size_t w = 0; w < config.qubits; ++w) {
    observables.push_back(Observable::pauli_z(w));
  }
  return Executor{std::move(circuit), std::move(observables),
                  config.diff_method};
}

QuantumLayer::QuantumLayer(const QuantumLayerConfig& config, util::Rng& rng)
    : config_(config),
      executor_(make_quantum_executor(config)),
      weights_("theta",
               tensor::uniform(
                   Shape{ansatz_weight_count(config.ansatz, config.qubits,
                                             config.depth)},
                   0.0, 2.0 * std::numbers::pi, rng)),
      sample_rng_(rng.split()) {
  if (config.qubits == 0) {
    throw std::invalid_argument("QuantumLayer: qubits must be >= 1");
  }
  if (config.shots > 0 && !config.noise.empty()) {
    throw std::invalid_argument(
        "QuantumLayer: shots with noise channels is not supported");
  }
}

std::vector<double> QuantumLayer::pack_params(const Tensor& input,
                                              std::size_t row) const {
  const std::size_t q = config_.qubits;
  std::vector<double> params(q + weights_.value.size());
  for (std::size_t i = 0; i < q; ++i) {
    params[i] = config_.encoding.scale * input.at(row, i);
  }
  for (std::size_t i = 0; i < weights_.value.size(); ++i) {
    params[q + i] = weights_.value[i];
  }
  return params;
}

std::vector<double> QuantumLayer::pack_batch(const Tensor& input) const {
  const std::size_t stride = config_.qubits + weights_.value.size();
  std::vector<double> params(input.rows() * stride);
  for (std::size_t b = 0; b < input.rows(); ++b) {
    const auto row = pack_params(input, b);
    std::copy(row.begin(), row.end(), params.begin() + b * stride);
  }
  return params;
}

void QuantumLayer::for_each_chunk(
    std::size_t batch,
    const std::function<void(std::size_t, std::size_t)>& work) const {
  // Per-row arithmetic is independent of the chunk boundaries, so results
  // stay bit-identical across thread counts. The pool is the shared
  // persistent one: forward/backward run once per training batch.
  const std::size_t chunks =
      std::min(std::max<std::size_t>(1, config_.threads), batch);
  util::parallel_for(0, chunks, chunks, [&](std::size_t c) {
    const std::size_t begin = c * batch / chunks;
    work(begin, (c + 1) * batch / chunks - begin);
  });
}

Tensor QuantumLayer::forward(const Tensor& input) {
  const std::size_t q = config_.qubits;
  if (input.rank() != 2 || input.cols() != q) {
    throw std::invalid_argument("QuantumLayer::forward: expected [B, " +
                                std::to_string(q) + "], got " +
                                input.shape().to_string());
  }
  cached_input_ = input;
  has_cached_input_ = true;

  Tensor output{Shape{input.rows(), q}};

  // Noise and shots run row by row, in order (sampling shares an RNG).
  if (!config_.noise.empty() || config_.shots > 0) {
    std::vector<std::size_t> wires(q);
    for (std::size_t w = 0; w < q; ++w) wires[w] = w;
    for (std::size_t b = 0; b < input.rows(); ++b) {
      const auto params = pack_params(input, b);
      std::vector<double> expectations;
      if (!config_.noise.empty()) {
        expectations = quantum::noisy_expvals(executor_.circuit(), params,
                                              config_.noise, wires);
      } else {
        const quantum::StateVector psi = executor_.circuit().execute(params);
        expectations = quantum::estimate_expvals_z(psi, wires, config_.shots,
                                                   sample_rng_);
      }
      for (std::size_t w = 0; w < q; ++w) output.at(b, w) = expectations[w];
    }
    return output;
  }

  // Exact: each chunk of rows marches through the gate kernels together,
  // hitting contiguous memory (see StateVectorBatch); the executor falls
  // back row by row where it has no batched kernels.
  const std::size_t stride = q + weights_.value.size();
  const std::vector<double> params = pack_batch(input);
  for_each_chunk(input.rows(), [&](std::size_t begin, std::size_t rows) {
    const auto expectations = executor_.run_batch(
        std::span<const double>{params}.subspan(begin * stride,
                                                rows * stride),
        stride, rows);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t w = 0; w < q; ++w) {
        output.at(begin + r, w) = expectations[r * q + w];
      }
    }
  });
  return output;
}

Tensor QuantumLayer::backward(const Tensor& grad_output) {
  if (!has_cached_input_) {
    throw std::logic_error("QuantumLayer::backward before forward");
  }
  const std::size_t q = config_.qubits;
  if (grad_output.rank() != 2 || grad_output.cols() != q ||
      grad_output.rows() != cached_input_.rows()) {
    // Invalidate the cache before throwing: a mismatched upstream means the
    // caller's forward/backward pairing is broken, and letting the next
    // backward silently reuse this stale batch would hide the bug.
    has_cached_input_ = false;
    throw std::invalid_argument("QuantumLayer::backward: grad shape " +
                                grad_output.shape().to_string());
  }

  const std::size_t batch = cached_input_.rows();
  const std::size_t stride = q + weights_.value.size();
  std::vector<double> upstream(batch * q);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t w = 0; w < q; ++w) {
      upstream[b * q + w] = grad_output.at(b, w);
    }
  }

  // Row b's gradient over [angles | weights] lands at b * stride.
  std::vector<double> all_grads(batch * stride);
  if (!config_.noise.empty()) {
    std::vector<std::size_t> wires(q);
    for (std::size_t w = 0; w < q; ++w) wires[w] = w;
    for (std::size_t b = 0; b < batch; ++b) {
      const auto gradient =
          quantum::noisy_parameter_shift_vjp(
              executor_.circuit(), pack_params(cached_input_, b),
              config_.noise, wires,
              std::span<const double>{upstream}.subspan(b * q, q))
              .gradient;
      std::copy(gradient.begin(), gradient.end(),
                all_grads.begin() + b * stride);
    }
  } else {
    // Exact: one adjoint sweep per chunk covers every row in it.
    const std::vector<double> params = pack_batch(cached_input_);
    for_each_chunk(batch, [&](std::size_t begin, std::size_t rows) {
      const auto vjp = executor_.run_with_vjp_batch(
          std::span<const double>{params}.subspan(begin * stride,
                                                  rows * stride),
          stride, rows,
          std::span<const double>{upstream}.subspan(begin * q, rows * q));
      std::copy(vjp.gradient.begin(), vjp.gradient.end(),
                all_grads.begin() + begin * stride);
    });
  }

  // The first q entries of a row are encoding-angle gradients; the chain
  // rule through angle = scale * input multiplies by the encoding scale.
  Tensor grad_input{Shape{batch, q}};
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t w = 0; w < q; ++w) {
      grad_input.at(b, w) = config_.encoding.scale * all_grads[b * stride + w];
    }
    for (std::size_t i = 0; i < weights_.value.size(); ++i) {
      weights_.grad[i] += all_grads[b * stride + q + i];
    }
  }
  return grad_input;
}

std::vector<nn::Parameter*> QuantumLayer::parameters() { return {&weights_}; }

nn::LayerInfo QuantumLayer::info() const {
  nn::LayerInfo li;
  li.kind = "quantum";
  li.inputs = config_.qubits;
  li.outputs = config_.qubits;
  li.parameter_count = weights_.value.size();
  li.qubits = config_.qubits;
  li.depth = config_.depth;
  li.ansatz = util::to_lower(ansatz_name(config_.ansatz));
  const auto counts =
      ansatz_op_counts(config_.ansatz, config_.qubits, config_.depth);
  li.encoding_gate_count = config_.qubits;
  li.gate_count =
      li.encoding_gate_count + counts.rotation_ops + counts.entangling_ops;
  li.param_gate_count = li.encoding_gate_count + counts.rotation_ops;
  return li;
}

std::string QuantumLayer::name() const {
  return "Quantum" + ansatz_name(config_.ansatz) + "(q=" +
         std::to_string(config_.qubits) + ", d=" +
         std::to_string(config_.depth) + ")";
}

std::vector<double> QuantumLayer::run_single(
    std::span<const double> angles) const {
  if (angles.size() != config_.qubits) {
    throw std::invalid_argument("QuantumLayer::run_single: angle count");
  }
  std::vector<double> params(config_.qubits + weights_.value.size());
  for (std::size_t i = 0; i < angles.size(); ++i) params[i] = angles[i];
  for (std::size_t i = 0; i < weights_.value.size(); ++i) {
    params[config_.qubits + i] = weights_.value[i];
  }
  return executor_.run(params);
}

}  // namespace qhdl::qnn
