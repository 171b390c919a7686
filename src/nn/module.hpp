// Layer-based reverse-mode differentiation.
//
// Each Module implements forward(batch) and backward(grad_output); backward
// both returns the gradient w.r.t. the module input (propagated upstream) and
// accumulates gradients into its Parameters. This mirrors the paper's
// Keras-style training loop while keeping the gradient path fully inspectable
// and testable (see tests/test_nn_gradcheck.cpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace qhdl::nn {

/// A trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  tensor::Tensor value;
  tensor::Tensor grad;

  Parameter(std::string parameter_name, tensor::Tensor initial)
      : name(std::move(parameter_name)),
        value(std::move(initial)),
        grad(tensor::Tensor::zeros(value.shape())) {}

  void zero_grad() { grad.fill(0.0); }
  std::size_t size() const { return value.size(); }
};

/// Structural description of a layer, consumed by the FLOPs profiler
/// (flops::CostModel) without coupling nn to the flops module.
struct LayerInfo {
  std::string kind;              ///< "dense", "tanh", "relu", "sigmoid",
                                 ///< "softmax", "quantum"
  std::size_t inputs = 0;        ///< per-sample input width
  std::size_t outputs = 0;       ///< per-sample output width
  std::size_t parameter_count = 0;

  // Quantum-layer extras (zero / empty for classical layers).
  std::size_t qubits = 0;
  std::size_t depth = 0;
  std::string ansatz;            ///< "bel" or "sel"
  std::size_t gate_count = 0;        ///< total circuit ops incl. encoding
  std::size_t param_gate_count = 0;  ///< parameterized (rotation) ops
  std::size_t encoding_gate_count = 0;
};

/// A layer's stage inside a TrainWorkspace (nn/workspace.hpp): forward and
/// backward over row-major buffers the workspace owns, for layers the
/// workspace cannot fuse itself. Every buffer of the stage's own is sized
/// when the stage is made, so a warmed-up stage never allocates. The
/// arithmetic must be bit-identical to the layer's Module forward/backward.
class LayerStage {
 public:
  virtual ~LayerStage() = default;

  /// Training forward of `rows` (<= the stage's max batch) rows:
  /// input [rows x inputs] -> output [rows x outputs]. Keeps what the
  /// matching backward needs.
  virtual void forward(const double* input, std::size_t rows,
                       double* output) = 0;

  /// Backward of the last forward: accumulates parameter gradients and,
  /// unless `grad_input` is null (nothing consumes it), writes dL/d(input)
  /// [rows x inputs].
  virtual void backward(const double* grad_output, double* grad_input) = 0;

  /// Inference forward of any number of rows; keeps nothing for backward.
  virtual void infer(const double* input, std::size_t rows,
                     double* output) = 0;
};

/// Base class for differentiable layers.
class Module {
 public:
  virtual ~Module() = default;

  /// Forward pass on a batch [B, inputs] -> [B, outputs]. May cache
  /// activations needed by backward.
  virtual tensor::Tensor forward(const tensor::Tensor& input) = 0;

  /// Backward pass: given dL/d(output) [B, outputs], accumulates parameter
  /// gradients and returns dL/d(input) [B, inputs]. Must be called after a
  /// matching forward().
  virtual tensor::Tensor backward(const tensor::Tensor& grad_output) = 0;

  /// Trainable parameters (empty for activations).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Structural descriptor for profiling/reporting.
  virtual LayerInfo info() const = 0;

  /// Human-readable one-liner, e.g. "Dense(10 -> 6)".
  virtual std::string name() const = 0;

  /// Workspace hook: a stage that trains this layer on workspace-owned
  /// buffers, for batches of up to `max_batch_rows` rows and inference
  /// passes of up to `max_eval_rows`. The default, nullptr, means the layer
  /// has none, and a model containing it trains on the Module path.
  virtual std::unique_ptr<LayerStage> make_stage(std::size_t max_batch_rows,
                                                 std::size_t max_eval_rows) {
    (void)max_batch_rows;
    (void)max_eval_rows;
    return nullptr;
  }

  void zero_grad();

  /// Total trainable scalar count.
  std::size_t parameter_count();
};

}  // namespace qhdl::nn
