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

namespace {

/// Inference passes (the workspace's eval) run the row stage in chunks of
/// this many rows: enough to amortize per-op dispatch over the batch,
/// small enough that φ stays at most a few hundred KB for the search's
/// qubit counts.
constexpr std::size_t kInferChunkRows = 256;

}  // namespace

/// The exact path's one implementation. Rows of [scale·x | weights] are
/// packed into a buffer sized once; each of up to config.threads contiguous
/// chunks of rows owns a BatchAdjointState, whose forward leaves φ behind
/// for the backward's sweep. Per-row arithmetic does not depend on the
/// chunking, so results are bit-identical for every thread count.
class QuantumLayer::RowStage final : public nn::LayerStage {
 public:
  RowStage(QuantumLayer& layer, std::size_t max_batch_rows,
           std::size_t max_eval_rows)
      : layer_(layer),
        qubits_(layer.config_.qubits),
        stride_(layer.executor_.parameter_count()),
        max_batch_rows_(std::max<std::size_t>(1, max_batch_rows)),
        infer_rows_(std::clamp(max_eval_rows, max_batch_rows_,
                               std::max(max_batch_rows_, kInferChunkRows))),
        params_(std::max(max_batch_rows_, infer_rows_) * stride_) {
    const std::size_t chunk_count = std::min(
        std::max<std::size_t>(1, layer.config_.threads), max_batch_rows_);
    chunks_.reserve(chunk_count);
    for (std::size_t c = 0; c < chunk_count; ++c) {
      // Chunk 0 also runs the inference chunks.
      chunks_.push_back(Chunk{
          0, 0,
          quantum::BatchAdjointState{
              layer.executor_.circuit(), layer.executor_.observables(),
              c == 0 ? infer_rows_ : max_batch_rows_, max_batch_rows_}});
    }
  }

  bool fits(std::size_t rows) const { return rows <= max_batch_rows_; }
  /// Rows of the forward a backward would differentiate (0: none).
  std::size_t pending_rows() const { return rows_; }

  void forward(const double* input, std::size_t rows,
               double* output) override {
    if (rows > max_batch_rows_) {
      throw std::invalid_argument(
          "QuantumLayer row stage: batch larger than the stage was sized "
          "for");
    }
    rows_ = 0;
    chunk_rows(rows);
    for_each_chunk([&](Chunk& chunk) {
      double* params = params_.data() + chunk.begin * stride_;
      pack(input + chunk.begin * qubits_, chunk.rows, params);
      chunk.state.forward({params, chunk.rows * stride_}, stride_,
                          chunk.rows,
                          {output + chunk.begin * qubits_,
                           chunk.rows * qubits_});
    });
    rows_ = rows;
  }

  void backward(const double* grad_output, double* grad_input) override {
    if (rows_ == 0) {
      throw std::logic_error("QuantumLayer::backward before forward");
    }
    for_each_chunk([&](Chunk& chunk) {
      // A sweep consumes φ. A second backward of the same forward evolves
      // it again from the held parameter rows instead of reusing it.
      if (!chunk.state.holds_forward_state()) {
        chunk.state.forward(
            {params_.data() + chunk.begin * stride_, chunk.rows * stride_},
            stride_, chunk.rows, {});
      }
      chunk.state.sweep(
          {grad_output + chunk.begin * qubits_, chunk.rows * qubits_});
    });
    // The first q entries of a row are encoding-angle gradients; the chain
    // rule through angle = scale * input multiplies by the encoding scale.
    // Weight gradients accumulate in ascending row order.
    const double scale = layer_.config_.encoding.scale;
    const std::size_t weight_count = stride_ - qubits_;
    double* weight_grad = layer_.weights_.grad.data().data();
    for (std::size_t c = 0; c < used_chunks_; ++c) {
      const Chunk& chunk = chunks_[c];
      const std::span<const double> gradient = chunk.state.gradient();
      for (std::size_t r = 0; r < chunk.rows; ++r) {
        const double* row = gradient.data() + r * stride_;
        if (grad_input != nullptr) {
          double* out = grad_input + (chunk.begin + r) * qubits_;
          for (std::size_t w = 0; w < qubits_; ++w) out[w] = scale * row[w];
        }
        for (std::size_t i = 0; i < weight_count; ++i) {
          weight_grad[i] += row[qubits_ + i];
        }
      }
    }
  }

  void infer(const double* input, std::size_t rows, double* output) override {
    rows_ = 0;
    Chunk& chunk = chunks_.front();
    for (std::size_t begin = 0; begin < rows; begin += infer_rows_) {
      const std::size_t count = std::min(infer_rows_, rows - begin);
      pack(input + begin * qubits_, count, params_.data());
      chunk.state.forward({params_.data(), count * stride_}, stride_, count,
                          {output + begin * qubits_, count * qubits_});
    }
  }

 private:
  struct Chunk {
    std::size_t begin = 0;
    std::size_t rows = 0;
    quantum::BatchAdjointState state;
  };

  /// Splits [0, rows) into contiguous chunks, one per state in use.
  void chunk_rows(std::size_t rows) {
    used_chunks_ = std::min(chunks_.size(), rows);
    for (std::size_t c = 0; c < used_chunks_; ++c) {
      chunks_[c].begin = c * rows / used_chunks_;
      chunks_[c].rows = (c + 1) * rows / used_chunks_ - chunks_[c].begin;
    }
  }

  /// Runs `work` for every chunk in use, on the shared pool when there are
  /// several (forward/backward run once per training batch).
  template <typename Work>
  void for_each_chunk(Work&& work) {
    if (used_chunks_ == 0) return;
    if (used_chunks_ == 1) {
      work(chunks_.front());
      return;
    }
    util::parallel_for(0, used_chunks_, used_chunks_,
                       [&](std::size_t c) { work(chunks_[c]); });
  }

  /// [scale·x | weights] for `rows` input rows into `params`.
  void pack(const double* input, std::size_t rows, double* params) const {
    const double scale = layer_.config_.encoding.scale;
    const double* weights = layer_.weights_.value.data().data();
    for (std::size_t b = 0; b < rows; ++b) {
      double* row = params + b * stride_;
      for (std::size_t i = 0; i < qubits_; ++i) {
        row[i] = scale * input[b * qubits_ + i];
      }
      std::copy(weights, weights + (stride_ - qubits_), row + qubits_);
    }
  }

  QuantumLayer& layer_;
  std::size_t qubits_;
  std::size_t stride_;
  std::size_t max_batch_rows_;
  std::size_t infer_rows_;
  std::vector<double> params_;
  std::vector<Chunk> chunks_;
  std::size_t used_chunks_ = 0;
  std::size_t rows_ = 0;
};

QuantumLayer::StageSlot::StageSlot() = default;
QuantumLayer::StageSlot::StageSlot(const StageSlot&) {}
QuantumLayer::StageSlot& QuantumLayer::StageSlot::operator=(
    const StageSlot&) {
  stage.reset();
  return *this;
}
QuantumLayer::StageSlot::~StageSlot() = default;

bool QuantumLayer::row_stage_path() const {
  return config_.noise.empty() && config_.shots == 0 &&
         executor_.batch_path_available();
}

std::unique_ptr<nn::LayerStage> QuantumLayer::make_stage(
    std::size_t max_batch_rows, std::size_t max_eval_rows) {
  if (!row_stage_path()) return nullptr;
  return std::make_unique<RowStage>(*this, max_batch_rows, max_eval_rows);
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

Tensor QuantumLayer::forward(const Tensor& input) {
  const std::size_t q = config_.qubits;
  if (input.rank() != 2 || input.cols() != q) {
    throw std::invalid_argument("QuantumLayer::forward: expected [B, " +
                                std::to_string(q) + "], got " +
                                input.shape().to_string());
  }
  const std::size_t rows = input.rows();
  Tensor output{Shape{rows, q}};
  forward_pending_ = true;
  pending_on_stage_ = row_stage_path();
  if (pending_on_stage_) {
    std::unique_ptr<RowStage>& stage = module_stage_.stage;
    if (!stage || !stage->fits(rows)) {
      stage = std::make_unique<RowStage>(*this, rows, 0);
    }
    stage->forward(input.data().data(), rows, output.data().data());
    return output;
  }
  cached_input_ = input;

  // Noise and shots run row by row, in order (sampling shares an RNG).
  if (!config_.noise.empty() || config_.shots > 0) {
    std::vector<std::size_t> wires(q);
    for (std::size_t w = 0; w < q; ++w) wires[w] = w;
    for (std::size_t b = 0; b < rows; ++b) {
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

  // The oracle path (reference backend, parameter-shift): the executor's
  // per-row execution.
  if (rows == 0) return output;
  const std::vector<double> expectations =
      executor_.run_batch(pack_batch(input), q + weights_.value.size(), rows);
  std::copy(expectations.begin(), expectations.end(), output.data().begin());
  return output;
}

Tensor QuantumLayer::backward(const Tensor& grad_output) {
  RowStage* stage = module_stage_.stage.get();
  if (!forward_pending_ || (pending_on_stage_ && stage == nullptr)) {
    throw std::logic_error("QuantumLayer::backward before forward");
  }
  const std::size_t q = config_.qubits;
  const std::size_t batch =
      pending_on_stage_ ? stage->pending_rows() : cached_input_.rows();
  if (grad_output.rank() != 2 || grad_output.cols() != q ||
      grad_output.rows() != batch) {
    // Invalidate the pending forward before throwing: a mismatched upstream
    // means the caller's forward/backward pairing is broken, and letting
    // the next backward silently reuse this stale batch would hide the bug.
    forward_pending_ = false;
    throw std::invalid_argument("QuantumLayer::backward: grad shape " +
                                grad_output.shape().to_string());
  }
  Tensor grad_input{Shape{batch, q}};
  if (pending_on_stage_) {
    if (batch > 0) {
      stage->backward(grad_output.data().data(), grad_input.data().data());
    }
    return grad_input;
  }

  // Row b's gradient over [angles | weights] lands at b * stride.
  const std::size_t stride = q + weights_.value.size();
  std::vector<double> all_grads(batch * stride);
  const std::span<const double> upstream = grad_output.data();
  if (!config_.noise.empty()) {
    std::vector<std::size_t> wires(q);
    for (std::size_t w = 0; w < q; ++w) wires[w] = w;
    for (std::size_t b = 0; b < batch; ++b) {
      const auto gradient =
          quantum::noisy_parameter_shift_vjp(
              executor_.circuit(), pack_params(cached_input_, b),
              config_.noise, wires, upstream.subspan(b * q, q))
              .gradient;
      std::copy(gradient.begin(), gradient.end(),
                all_grads.begin() + b * stride);
    }
  } else if (batch > 0) {
    const auto vjp = executor_.run_with_vjp_batch(pack_batch(cached_input_),
                                                  stride, batch, upstream);
    std::copy(vjp.gradient.begin(), vjp.gradient.end(), all_grads.begin());
  }

  // The first q entries of a row are encoding-angle gradients; the chain
  // rule through angle = scale * input multiplies by the encoding scale.
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
