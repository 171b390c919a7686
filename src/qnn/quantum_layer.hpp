// QuantumLayer: an nn::Module wrapping a parameterized quantum circuit,
// equivalent to the paper's PennyLane KerasLayer (footnote 2).
//
// Per sample: the q input activations are scaled by the encoding scale and
// bound as encoding-gate angles; the trainable weights fill the ansatz
// angles; the outputs are ⟨Z_w⟩ for each wire. Backward runs a single
// adjoint-differentiation sweep per sample that yields BOTH dL/d(input) and
// dL/d(weights), so the hybrid network trains end-to-end exactly like the
// paper's TensorFlow+PennyLane models.
//
// Exact execution (no noise, no shots) on a production backend has one
// implementation, the layer's row stage: packed parameter rows, the forward
// state φ and the adjoint buffers live in a quantum::BatchAdjointState
// sized once, and backward sweeps from the φ its forward left behind. The
// Module forward/backward wrap that stage, and make_stage() hands the same
// stage to nn::TrainWorkspace. The reference backend and parameter-shift
// gradients keep the executor's per-row path, the oracle.
//
// Circuit parameter layout: [inputs (q) | ansatz weights (weight_count)].
#pragma once

#include <memory>

#include "nn/module.hpp"
#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "quantum/channels.hpp"
#include "quantum/executor.hpp"
#include "util/rng.hpp"

namespace qhdl::qnn {

struct QuantumLayerConfig {
  std::size_t qubits = 3;
  std::size_t depth = 2;
  AnsatzKind ansatz = AnsatzKind::StronglyEntangling;
  AngleEncoding encoding{};
  quantum::DiffMethod diff_method = quantum::DiffMethod::Adjoint;
  /// Non-empty = NISQ-style noisy execution: forward runs on a density
  /// matrix with the model's channels applied after every gate, and backward
  /// uses parameter-shift rules (adjoint differentiation needs pure states).
  quantum::NoiseModel noise{};
  /// Finite-shot forward inference: > 0 estimates each ⟨Z⟩ from this many
  /// basis-state samples (std dev ~ 1/√shots) instead of the exact value.
  /// Gradients remain exact (the layer models shot noise at inference time;
  /// combine with `noise` for channels + shots together is not supported).
  std::size_t shots = 0;
  /// Concurrency over the batch dimension for the exact (noiseless,
  /// shot-free) forward/backward paths, dispatched on the shared
  /// util::ThreadPool. 1 = sequential. Results are bit-identical
  /// regardless of the thread count.
  std::size_t threads = 1;
};

class QuantumLayer : public nn::Module {
 public:
  /// Weights initialized U(0, 2π) per PennyLane template convention.
  QuantumLayer(const QuantumLayerConfig& config, util::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::vector<nn::Parameter*> parameters() override;
  nn::LayerInfo info() const override;
  std::string name() const override;

  /// The row stage, when the layer runs exactly on the batched adjoint
  /// path; nullptr otherwise (noise, shots, parameter-shift gradients, the
  /// reference backend).
  std::unique_ptr<nn::LayerStage> make_stage(
      std::size_t max_batch_rows, std::size_t max_eval_rows) override;

  std::size_t qubits() const { return config_.qubits; }
  std::size_t depth() const { return config_.depth; }
  AnsatzKind ansatz() const { return config_.ansatz; }
  std::size_t weight_count() const { return weights_.value.size(); }
  const quantum::Executor& executor() const { return executor_; }

  /// Expectations for one pre-scaled angle vector (size = qubits). Used by
  /// tests and the pure-quantum examples.
  std::vector<double> run_single(std::span<const double> angles) const;

 private:
  class RowStage;

  /// True when forward/backward run on the row stage.
  bool row_stage_path() const;

  /// Builds [angles | weights] for one sample row.
  std::vector<double> pack_params(const tensor::Tensor& input,
                                  std::size_t row) const;

  /// pack_params for every row of `input`, rows back to back.
  std::vector<double> pack_batch(const tensor::Tensor& input) const;

  QuantumLayerConfig config_;
  quantum::Executor executor_;
  nn::Parameter weights_;
  util::Rng sample_rng_;  ///< drives finite-shot sampling when shots > 0
  /// Holds the Module path's row stage, regrown to the largest batch seen.
  /// The stage points back into its layer, so a copied or moved layer
  /// starts without one.
  struct StageSlot {
    StageSlot();
    StageSlot(const StageSlot&);
    StageSlot& operator=(const StageSlot&);
    ~StageSlot();
    std::unique_ptr<RowStage> stage;
  };
  StageSlot module_stage_;
  /// Input of the last forward on the per-row paths (noise, shots, oracle).
  tensor::Tensor cached_input_;
  /// Set by forward, cleared by a failed backward: a backward needs one.
  bool forward_pending_ = false;
  /// Whether the pending forward ran on module_stage_.
  bool pending_on_stage_ = false;
};

/// Builds the executor (circuit + Z observables) for a config; exposed so
/// the FLOPs model and tests can inspect the exact circuit structure.
quantum::Executor make_quantum_executor(const QuantumLayerConfig& config);

}  // namespace qhdl::qnn
