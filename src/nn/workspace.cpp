#include "nn/workspace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/fastpath.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "tensor/gemm.hpp"

namespace qhdl::nn {

namespace {

// Fused bias-add + activation epilogue over a GEMM result. Matches the
// reference path's arithmetic exactly: (z + b) first, then the activation
// on that double — the same two steps add_row_broadcast and the activation
// modules perform, just without a trip through intermediate tensors.
template <typename Act>
void bias_act_rows(double* out, std::size_t rows, std::size_t cols,
                   const double* bias, Act&& act) {
  for (std::size_t i = 0; i < rows; ++i) {
    double* row = out + i * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      row[j] = act(row[j] + bias[j]);
    }
  }
}

}  // namespace

std::unique_ptr<TrainWorkspace> TrainWorkspace::compile(
    Sequential& model, std::size_t max_batch_rows, std::size_t max_eval_rows) {
  if (max_batch_rows == 0) return nullptr;

  std::unique_ptr<TrainWorkspace> ws{new TrainWorkspace()};
  std::vector<Stage>& stages = ws->stages_;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    Module& layer = model.layer(i);
    FusedActivation activation = FusedActivation::None;
    if (dynamic_cast<Tanh*>(&layer) != nullptr) {
      activation = FusedActivation::Tanh;
    } else if (dynamic_cast<ReLU*>(&layer) != nullptr) {
      activation = FusedActivation::ReLU;
    } else if (dynamic_cast<Sigmoid*>(&layer) != nullptr) {
      activation = FusedActivation::Sigmoid;
    }
    if (activation != FusedActivation::None) {
      // Fuses into the Dense right before it, at most one per Dense.
      if (stages.empty() || stages.back().dense == nullptr ||
          stages.back().activation != FusedActivation::None) {
        return nullptr;
      }
      stages.back().activation = activation;
      continue;
    }
    Stage stage;
    if (auto* dense = dynamic_cast<Dense*>(&layer)) {
      stage.dense = dense;
      stage.inputs = dense->inputs();
      stage.outputs = dense->outputs();
    } else {
      stage.layer = layer.make_stage(max_batch_rows, max_eval_rows);
      if (!stage.layer) return nullptr;
      const LayerInfo info = layer.info();
      stage.inputs = info.inputs;
      stage.outputs = info.outputs;
    }
    stages.push_back(std::move(stage));
  }
  if (stages.empty()) return nullptr;
  // Widths must chain, otherwise the model would throw on forward anyway;
  // refuse to compile so the reference path reports the error.
  for (std::size_t s = 1; s < stages.size(); ++s) {
    if (stages[s].inputs != stages[s - 1].outputs) return nullptr;
  }

  ws->features_ = stages.front().inputs;
  ws->classes_ = stages.back().outputs;
  ws->max_batch_rows_ = max_batch_rows;
  ws->max_eval_rows_ = max_eval_rows;

  ws->parameters_ = model.parameters();
  ws->x_batch_.resize(max_batch_rows * ws->features_);
  ws->y_batch_.resize(max_batch_rows);
  ws->activations_.resize(stages.size());
  ws->gradients_.resize(stages.size());
  std::size_t max_width = 0;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    ws->activations_[s].resize(max_batch_rows * stages[s].outputs);
    ws->gradients_[s].resize(max_batch_rows * stages[s].outputs);
    max_width = std::max(max_width, stages[s].outputs);
  }
  ws->eval_front_.resize(max_eval_rows * max_width);
  ws->eval_back_.resize(max_eval_rows * max_width);
  return ws;
}

void TrainWorkspace::stage_forward(Stage& stage, const double* input,
                                   std::size_t m, double* out,
                                   bool training) {
  if (stage.layer) {
    if (training) {
      stage.layer->forward(input, m, out);
    } else {
      stage.layer->infer(input, m, out);
    }
    return;
  }
  tensor::gemm::dgemm(m, stage.outputs, stage.inputs, input, stage.inputs,
                      /*a_transposed=*/false, stage.dense->weight().value.data().data(),
                      stage.outputs, /*b_transposed=*/false, out, stage.outputs,
                      /*accumulate=*/false);
  const double* bias = stage.dense->bias().value.data().data();
  switch (stage.activation) {
    case FusedActivation::None:
      bias_act_rows(out, m, stage.outputs, bias, [](double v) { return v; });
      break;
    case FusedActivation::Tanh:
      bias_act_rows(out, m, stage.outputs, bias,
                    [](double v) { return std::tanh(v); });
      break;
    case FusedActivation::ReLU:
      bias_act_rows(out, m, stage.outputs, bias,
                    [](double v) { return v < 0.0 ? 0.0 : v; });
      break;
    case FusedActivation::Sigmoid:
      bias_act_rows(out, m, stage.outputs, bias,
                    [](double v) { return 1.0 / (1.0 + std::exp(-v)); });
      break;
  }
}

double TrainWorkspace::train_step(const tensor::Tensor& x,
                                  std::span<const std::size_t> labels,
                                  std::span<const std::size_t> rows,
                                  Optimizer& optimizer) {
  const std::size_t m = rows.size();
  if (m == 0 || m > max_batch_rows_) {
    throw std::invalid_argument("TrainWorkspace::train_step: bad batch size");
  }
  if (x.rank() != 2 || x.cols() != features_ || x.rows() != labels.size()) {
    throw std::invalid_argument("TrainWorkspace::train_step: data mismatch");
  }

  // Gather the batch rows/labels into the preallocated buffers.
  const std::size_t n = x.rows();
  const double* xdata = x.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t r = rows[i];
    if (r >= n) {
      throw std::out_of_range("TrainWorkspace::train_step: row out of range");
    }
    std::copy(xdata + r * features_, xdata + (r + 1) * features_,
              x_batch_.data() + i * features_);
    y_batch_[i] = labels[r];
  }

  for (Parameter* p : parameters_) p->zero_grad();

  // Forward through every stage.
  const double* input = x_batch_.data();
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    stage_forward(stages_[s], input, m, activations_[s].data(),
                  /*training=*/true);
    input = activations_[s].data();
  }

  // Fused loss forward + gradient straight into the last gradient buffer.
  const double loss = detail::softmax_xent_forward_grad(
      activations_.back().data(), m, classes_, y_batch_.data(),
      gradients_.back().data());

  // Backward. Same per-layer arithmetic as the reference modules: activation
  // derivative in place, then dW += Xᵀ·dY, db += colsum(dY), dX = dY·Wᵀ.
  for (std::size_t s = stages_.size(); s-- > 0;) {
    const Stage& stage = stages_[s];
    double* grad = gradients_[s].data();
    if (stage.layer) {
      // dX into the previous stage's gradient buffer; nothing consumes the
      // first stage's.
      stage.layer->backward(grad,
                            s > 0 ? gradients_[s - 1].data() : nullptr);
      continue;
    }
    const double* out = activations_[s].data();
    const std::size_t count = m * stage.outputs;
    switch (stage.activation) {
      case FusedActivation::None:
        break;
      case FusedActivation::Tanh:
        for (std::size_t i = 0; i < count; ++i) {
          const double y = out[i];
          grad[i] *= 1.0 - y * y;
        }
        break;
      case FusedActivation::ReLU:
        // output <= 0 exactly when the pre-activation input was <= 0, so the
        // reference mask (on the cached input) is reproduced from outputs.
        for (std::size_t i = 0; i < count; ++i) {
          if (out[i] <= 0.0) grad[i] = 0.0;
        }
        break;
      case FusedActivation::Sigmoid:
        for (std::size_t i = 0; i < count; ++i) {
          const double y = out[i];
          grad[i] *= y * (1.0 - y);
        }
        break;
    }

    const double* stage_input =
        s == 0 ? x_batch_.data() : activations_[s - 1].data();
    // dW += Xᵀ·dY, accumulated directly into the parameter gradient.
    tensor::gemm::dgemm(stage.inputs, stage.outputs, m, stage_input,
                        stage.inputs, /*a_transposed=*/true, grad,
                        stage.outputs, /*b_transposed=*/false,
                        stage.dense->weight().grad.data().data(),
                        stage.outputs, /*accumulate=*/true);
    // db += column sums of dY, in the same row-ascending order as sum_rows.
    double* bias_grad = stage.dense->bias().grad.data().data();
    for (std::size_t i = 0; i < m; ++i) {
      const double* grow = grad + i * stage.outputs;
      for (std::size_t j = 0; j < stage.outputs; ++j) bias_grad[j] += grow[j];
    }
    // dX = dY·Wᵀ into the previous stage's gradient buffer. The first
    // layer's input gradient is consumed by nothing — skip it.
    if (s > 0) {
      tensor::gemm::dgemm(m, stage.inputs, stage.outputs, grad, stage.outputs,
                          /*a_transposed=*/false,
                          stage.dense->weight().value.data().data(),
                          stage.outputs, /*b_transposed=*/true,
                          gradients_[s - 1].data(), stage.inputs,
                          /*accumulate=*/false);
    }
  }

  optimizer.step(parameters_);
  fastpath::count_workspace_steps(1);
  return loss;
}

double TrainWorkspace::evaluate_accuracy(const tensor::Tensor& x,
                                         std::span<const std::size_t> labels) {
  const std::size_t rows = x.rows();
  if (x.rank() != 2 || x.cols() != features_ || rows != labels.size()) {
    throw std::invalid_argument(
        "TrainWorkspace::evaluate_accuracy: data mismatch");
  }
  if (rows > max_eval_rows_) {
    throw std::invalid_argument(
        "TrainWorkspace::evaluate_accuracy: more rows than compiled for");
  }
  if (rows == 0) return 0.0;

  // Ping-pong forward through the two eval buffers.
  const double* input = x.data().data();
  double* front = eval_front_.data();
  double* back = eval_back_.data();
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    stage_forward(stages_[s], input, rows, front, /*training=*/false);
    input = front;
    std::swap(front, back);
  }
  return detail::accuracy_rows(input, rows, classes_, labels.data());
}

}  // namespace qhdl::nn
