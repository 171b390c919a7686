// Steady-state allocation test for the workspace trainer: after warm-up
// (first train step builds Adam slots, the GEMM packing scratch and the
// batched kernels' per-thread scratch), a train_step / evaluate_accuracy
// cycle must perform ZERO heap allocations — for classical stacks and for
// hybrids with a quantum layer stage alike.
//
// Enforced with a counting replacement of the global allocation functions.
// The replacement is binary-wide, so this translation unit only counts —
// behavior is plain malloc/free — and the test asserts on count deltas
// around the measured region.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "nn/workspace.hpp"
#include "qnn/quantum_layer.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocation_count{0};

void* counted_alloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace qhdl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr std::size_t kRows = 64, kFeatures = 10, kClasses = 2;
constexpr std::size_t kBatch = 8;

/// Trains `model` on the workspace: warm-up, then counts the allocations
/// of 50 cycles of a full batch, an odd tail batch and a full eval.
void expect_allocation_free_steady_state(Sequential& model, util::Rng& rng) {
  Tensor x{Shape{kRows, kFeatures}};
  std::vector<std::size_t> y(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t j = 0; j < kFeatures; ++j) {
      x.at(i, j) = rng.uniform(-1.0, 1.0);
    }
    y[i] = i % kClasses;
  }

  auto workspace = TrainWorkspace::compile(model, kBatch, kRows);
  ASSERT_NE(workspace, nullptr);
  Adam optimizer{1e-3};

  // Full batch and an odd tail batch, both exercised in the steady state.
  std::vector<std::size_t> full_batch(kBatch), tail_batch(kBatch / 2);
  for (std::size_t i = 0; i < full_batch.size(); ++i) full_batch[i] = i;
  for (std::size_t i = 0; i < tail_batch.size(); ++i) {
    tail_batch[i] = kRows - 1 - i;
  }

  // Warm-up: Adam slot tensors, GEMM packing scratch (thread_local), and
  // any one-time lazy state inside the measured call chain.
  for (int i = 0; i < 3; ++i) {
    workspace->train_step(x, y, full_batch, optimizer);
    workspace->train_step(x, y, tail_batch, optimizer);
    workspace->evaluate_accuracy(x, y);
  }

  const std::uint64_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  double sink = 0.0;
  for (int i = 0; i < 50; ++i) {
    sink += workspace->train_step(x, y, full_batch, optimizer);
    sink += workspace->train_step(x, y, tail_batch, optimizer);
    sink += workspace->evaluate_accuracy(x, y);
  }
  const std::uint64_t after =
      g_allocation_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u) << "train loop allocated on the steady state";
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(WorkspaceAlloc, TrainStepAndEvalAreAllocationFreeAfterWarmup) {
  util::Rng rng{71};
  Sequential model;
  model.emplace<Dense>(kFeatures, 10, rng);
  model.emplace<Tanh>();
  model.emplace<Dense>(10, 10, rng);
  model.emplace<ReLU>();
  model.emplace<Dense>(10, kClasses, rng);
  expect_allocation_free_steady_state(model, rng);
}

TEST(WorkspaceAlloc, HybridTrainStepAndEvalAreAllocationFreeAfterWarmup) {
  util::Rng rng{73};
  qnn::QuantumLayerConfig qconfig;
  qconfig.qubits = 3;
  qconfig.depth = 2;
  qconfig.ansatz = qnn::AnsatzKind::StronglyEntangling;
  qconfig.encoding.scale = 3.0;
  Sequential model;
  model.emplace<Dense>(kFeatures, 3, rng);
  model.emplace<Tanh>();
  model.emplace<qnn::QuantumLayer>(qconfig, rng);
  model.emplace<Dense>(3, kClasses, rng);
  expect_allocation_free_steady_state(model, rng);
}

}  // namespace
}  // namespace qhdl::nn
