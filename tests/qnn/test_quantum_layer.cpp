#include "qnn/quantum_layer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "quantum/kernels.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"

namespace qhdl::qnn {
namespace {

using tensor::Shape;
using tensor::Tensor;

QuantumLayerConfig small_config(AnsatzKind ansatz, std::size_t qubits = 3,
                                std::size_t depth = 2) {
  QuantumLayerConfig config;
  config.qubits = qubits;
  config.depth = depth;
  config.ansatz = ansatz;
  return config;
}

TEST(QuantumLayer, OutputShapeMatchesQubits) {
  util::Rng rng{1};
  QuantumLayer layer{small_config(AnsatzKind::BasicEntangler), rng};
  const Tensor x = tensor::uniform(Shape{4, 3}, -1.0, 1.0, rng);
  const Tensor out = layer.forward(x);
  EXPECT_EQ(out.shape(), Shape({4, 3}));
}

TEST(QuantumLayer, OutputsAreExpectationsInRange) {
  util::Rng rng{2};
  QuantumLayer layer{small_config(AnsatzKind::StronglyEntangling), rng};
  const Tensor x = tensor::uniform(Shape{8, 3}, -1.0, 1.0, rng);
  const Tensor out = layer.forward(x);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out[i], -1.0 - 1e-12);
    EXPECT_LE(out[i], 1.0 + 1e-12);
  }
}

TEST(QuantumLayer, WeightCountMatchesAnsatz) {
  util::Rng rng{3};
  QuantumLayer bel{small_config(AnsatzKind::BasicEntangler, 4, 5), rng};
  EXPECT_EQ(bel.weight_count(), 20u);
  QuantumLayer sel{small_config(AnsatzKind::StronglyEntangling, 4, 5), rng};
  EXPECT_EQ(sel.weight_count(), 60u);
}

TEST(QuantumLayer, ForwardValidatesShape) {
  util::Rng rng{4};
  QuantumLayer layer{small_config(AnsatzKind::BasicEntangler), rng};
  EXPECT_THROW(layer.forward(Tensor::matrix(1, 2, {0.1, 0.2})),
               std::invalid_argument);
}

TEST(QuantumLayer, BackwardBeforeForwardThrows) {
  util::Rng rng{5};
  QuantumLayer layer{small_config(AnsatzKind::BasicEntangler), rng};
  EXPECT_THROW(layer.backward(Tensor::matrix(1, 3, {1, 1, 1})),
               std::logic_error);
}

TEST(QuantumLayer, FailedBackwardInvalidatesCachedInput) {
  // Regression: a shape-mismatched backward used to leave the cached
  // forward batch in place, so the NEXT backward silently differentiated
  // against a stale input instead of surfacing the broken pairing.
  util::Rng rng{6};
  QuantumLayer layer{small_config(AnsatzKind::BasicEntangler), rng};
  layer.forward(Tensor::matrix(2, 3, {0.1, -0.2, 0.3, 0.4, -0.5, 0.6}));
  EXPECT_THROW(layer.backward(Tensor::matrix(1, 3, {1, 1, 1})),
               std::invalid_argument);
  // The cache is gone: even a correctly-shaped upstream must now report
  // "backward before forward" rather than reuse the stale batch.
  EXPECT_THROW(layer.backward(Tensor::matrix(2, 3, {1, 1, 1, 1, 1, 1})),
               std::logic_error);
  // A fresh forward restores the normal pairing.
  layer.forward(Tensor::matrix(1, 3, {0.2, 0.1, -0.3}));
  EXPECT_NO_THROW(layer.backward(Tensor::matrix(1, 3, {1, 0.5, -1})));
}

/// The decisive test: analytic input and weight gradients through the
/// adjoint VJP match finite differences, for both ansätze.
class QuantumLayerGradCheck
    : public ::testing::TestWithParam<std::tuple<AnsatzKind, std::size_t,
                                                 std::size_t>> {};

TEST_P(QuantumLayerGradCheck, MatchesFiniteDifferences) {
  const auto [ansatz, qubits, depth] = GetParam();
  util::Rng rng{77};
  QuantumLayer layer{small_config(ansatz, qubits, depth), rng};
  const Tensor x = tensor::uniform(Shape{2, qubits}, -0.8, 0.8, rng);
  EXPECT_LT(testing::module_input_gradient_error(layer, x, rng), 1e-6);
  EXPECT_LT(testing::module_parameter_gradient_error(layer, x, rng), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, QuantumLayerGradCheck,
    ::testing::Values(
        std::make_tuple(AnsatzKind::BasicEntangler, std::size_t{2},
                        std::size_t{1}),
        std::make_tuple(AnsatzKind::BasicEntangler, std::size_t{3},
                        std::size_t{2}),
        std::make_tuple(AnsatzKind::BasicEntangler, std::size_t{4},
                        std::size_t{3}),
        std::make_tuple(AnsatzKind::StronglyEntangling, std::size_t{2},
                        std::size_t{1}),
        std::make_tuple(AnsatzKind::StronglyEntangling, std::size_t{3},
                        std::size_t{2}),
        std::make_tuple(AnsatzKind::StronglyEntangling, std::size_t{4},
                        std::size_t{2})));

TEST(QuantumLayer, ParameterShiftDiffMethodAgreesWithAdjoint) {
  util::Rng rng_a{91}, rng_b{91};
  QuantumLayerConfig config = small_config(AnsatzKind::BasicEntangler, 3, 2);
  QuantumLayer adjoint{config, rng_a};
  config.diff_method = quantum::DiffMethod::ParameterShift;
  QuantumLayer shift{config, rng_b};  // same seed -> same weights

  const Tensor x = Tensor::matrix(2, 3, {0.1, -0.4, 0.7, 0.5, 0.2, -0.9});
  const Tensor g = Tensor::matrix(2, 3, {1, 0.5, -1, 0.3, -0.2, 0.8});

  adjoint.forward(x);
  const Tensor grad_a = adjoint.backward(g);
  shift.forward(x);
  const Tensor grad_s = shift.backward(g);

  EXPECT_LT(tensor::max_abs_difference(grad_a, grad_s), 1e-9);
  EXPECT_LT(tensor::max_abs_difference(adjoint.parameters()[0]->grad,
                                       shift.parameters()[0]->grad),
            1e-9);
}

TEST(QuantumLayer, EncodingScaleAffectsForwardAndChainRule) {
  util::Rng rng_a{17}, rng_b{17};
  QuantumLayerConfig config = small_config(AnsatzKind::BasicEntangler, 2, 1);
  config.encoding.scale = 1.0;
  QuantumLayer unit{config, rng_a};
  config.encoding.scale = 2.0;
  QuantumLayer doubled{config, rng_b};

  // Same weights: feeding x to the doubled-scale layer equals feeding 2x to
  // the unit-scale layer.
  const Tensor x = Tensor::matrix(1, 2, {0.3, -0.2});
  const Tensor x2 = Tensor::matrix(1, 2, {0.6, -0.4});
  EXPECT_LT(tensor::max_abs_difference(doubled.forward(x), unit.forward(x2)),
            1e-12);

  // Chain rule still passes gradcheck with a non-default scale.
  util::Rng rng{18};
  EXPECT_LT(testing::module_input_gradient_error(doubled, x, rng), 1e-6);
}

TEST(QuantumLayer, InfoDescribesCircuit) {
  util::Rng rng{6};
  QuantumLayer layer{small_config(AnsatzKind::StronglyEntangling, 3, 2), rng};
  const nn::LayerInfo info = layer.info();
  EXPECT_EQ(info.kind, "quantum");
  EXPECT_EQ(info.qubits, 3u);
  EXPECT_EQ(info.depth, 2u);
  EXPECT_EQ(info.ansatz, "sel");
  EXPECT_EQ(info.encoding_gate_count, 3u);
  EXPECT_EQ(info.param_gate_count, 3u + 18u);   // encoding + Rot ops
  EXPECT_EQ(info.gate_count, 3u + 18u + 6u);    // + CNOTs
  EXPECT_EQ(info.parameter_count, 18u);
  EXPECT_EQ(layer.name(), "QuantumSEL(q=3, d=2)");
}

TEST(QuantumLayer, RunSingleMatchesForwardRow) {
  util::Rng rng{7};
  QuantumLayerConfig config = small_config(AnsatzKind::BasicEntangler, 3, 2);
  QuantumLayer layer{config, rng};
  const Tensor x = Tensor::matrix(1, 3, {0.2, -0.5, 0.8});
  const Tensor out = layer.forward(x);
  // run_single takes pre-scaled angles.
  const std::vector<double> angles{0.2 * config.encoding.scale,
                                   -0.5 * config.encoding.scale,
                                   0.8 * config.encoding.scale};
  const auto direct = layer.run_single(angles);
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_NEAR(out.at(0, w), direct[w], 1e-12);
  }
  EXPECT_THROW(layer.run_single(std::vector<double>{0.1}),
               std::invalid_argument);
}

TEST(QuantumLayer, NoisyForwardDampsExpectations) {
  util::Rng rng_a{41}, rng_b{41};
  QuantumLayerConfig config = small_config(AnsatzKind::BasicEntangler, 2, 1);
  QuantumLayer clean{config, rng_a};
  config.noise = quantum::NoiseModel::depolarizing(0.1);
  QuantumLayer noisy{config, rng_b};  // same weights

  const Tensor x = Tensor::matrix(1, 2, {0.4, -0.6});
  const Tensor clean_out = clean.forward(x);
  const Tensor noisy_out = noisy.forward(x);
  for (std::size_t i = 0; i < clean_out.size(); ++i) {
    EXPECT_LE(std::abs(noisy_out[i]), std::abs(clean_out[i]) + 1e-12);
  }
}

TEST(QuantumLayer, NoisyGradientsMatchFiniteDifferences) {
  util::Rng rng{43};
  QuantumLayerConfig config = small_config(AnsatzKind::StronglyEntangling,
                                           2, 1);
  config.noise = quantum::NoiseModel::depolarizing(0.05);
  QuantumLayer layer{config, rng};
  const Tensor x = Tensor::matrix(1, 2, {0.3, -0.5});
  EXPECT_LT(testing::module_input_gradient_error(layer, x, rng), 1e-6);
  EXPECT_LT(testing::module_parameter_gradient_error(layer, x, rng), 1e-6);
}

TEST(QuantumLayer, ZeroNoiseDensityPathMatchesStatevector) {
  util::Rng rng_a{47}, rng_b{47};
  QuantumLayerConfig config = small_config(AnsatzKind::BasicEntangler, 3, 2);
  QuantumLayer adjoint{config, rng_a};
  config.noise = quantum::NoiseModel::depolarizing(0.0);
  QuantumLayer noisy_zero{config, rng_b};

  const Tensor x = Tensor::matrix(2, 3, {0.1, 0.7, -0.3, -0.8, 0.2, 0.5});
  EXPECT_LT(tensor::max_abs_difference(adjoint.forward(x),
                                       noisy_zero.forward(x)),
            1e-10);
}

TEST(QuantumLayer, WeightsInitializedInTwoPiRange) {
  util::Rng rng{8};
  QuantumLayer layer{small_config(AnsatzKind::StronglyEntangling, 4, 3), rng};
  const auto& weights = layer.parameters()[0]->value;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_GE(weights[i], 0.0);
    EXPECT_LT(weights[i], 2.0 * std::numbers::pi);
  }
}

TEST(QuantumLayer, GradientsAccumulateAcrossBatches) {
  util::Rng rng{9};
  QuantumLayer layer{small_config(AnsatzKind::BasicEntangler, 2, 1), rng};
  const Tensor x = Tensor::matrix(1, 2, {0.3, 0.4});
  const Tensor g = Tensor::matrix(1, 2, {1.0, 1.0});
  layer.forward(x);
  layer.backward(g);
  const Tensor first = layer.parameters()[0]->grad;
  layer.forward(x);
  layer.backward(g);
  const Tensor second = layer.parameters()[0]->grad;
  EXPECT_LT(tensor::max_abs_difference(second, tensor::scale(first, 2.0)),
            1e-12);
}

}  // namespace
}  // namespace qhdl::qnn

namespace qhdl::qnn {
namespace {

using tensor::Tensor;

TEST(QuantumLayer, HardwareEfficientGradcheck) {
  util::Rng rng{61};
  QuantumLayerConfig config;
  config.qubits = 3;
  config.depth = 2;
  config.ansatz = AnsatzKind::HardwareEfficient;
  QuantumLayer layer{config, rng};
  EXPECT_EQ(layer.weight_count(), 6u);
  const Tensor x = Tensor::matrix(2, 3, {0.2, -0.4, 0.6, -0.1, 0.8, 0.3});
  EXPECT_LT(testing::module_input_gradient_error(layer, x, rng), 1e-6);
  EXPECT_LT(testing::module_parameter_gradient_error(layer, x, rng), 1e-6);
  EXPECT_EQ(layer.info().ansatz, "hea");
}

TEST(QuantumLayer, ShotBasedForwardApproximatesExact) {
  util::Rng rng_a{67}, rng_b{67};
  QuantumLayerConfig config;
  config.qubits = 2;
  config.depth = 1;
  config.ansatz = AnsatzKind::BasicEntangler;
  QuantumLayer exact{config, rng_a};
  config.shots = 8192;
  QuantumLayer sampled{config, rng_b};  // same weights

  const Tensor x = Tensor::matrix(1, 2, {0.3, -0.5});
  const Tensor e = exact.forward(x);
  const Tensor s = sampled.forward(x);
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_NEAR(s[i], e[i], 0.06) << i;  // ~4 sigma at 8192 shots
  }
  // Shot noise means repeated forwards differ.
  const Tensor s2 = sampled.forward(x);
  EXPECT_GT(tensor::max_abs_difference(s, s2), 0.0);
}

TEST(QuantumLayer, ShotsWithNoiseRejected) {
  util::Rng rng{71};
  QuantumLayerConfig config;
  config.shots = 100;
  config.noise = quantum::NoiseModel::depolarizing(0.01);
  EXPECT_THROW((QuantumLayer{config, rng}), std::invalid_argument);
}

}  // namespace
}  // namespace qhdl::qnn

namespace qhdl::qnn {
namespace {

TEST(QuantumLayer, ThreadedBatchMatchesSequential) {
  util::Rng rng_a{81}, rng_b{81};
  QuantumLayerConfig config;
  config.qubits = 3;
  config.depth = 2;
  config.ansatz = AnsatzKind::StronglyEntangling;
  QuantumLayer sequential{config, rng_a};
  config.threads = 4;
  QuantumLayer threaded{config, rng_b};  // same weights

  util::Rng data_rng{82};
  const tensor::Tensor x =
      tensor::uniform(tensor::Shape{16, 3}, -1.0, 1.0, data_rng);
  const tensor::Tensor g =
      tensor::uniform(tensor::Shape{16, 3}, -1.0, 1.0, data_rng);

  const tensor::Tensor out_seq = sequential.forward(x);
  const tensor::Tensor out_par = threaded.forward(x);
  EXPECT_TRUE(tensor::allclose(out_seq, out_par, 0, 0));

  const tensor::Tensor grad_seq = sequential.backward(g);
  const tensor::Tensor grad_par = threaded.backward(g);
  EXPECT_TRUE(tensor::allclose(grad_seq, grad_par, 0, 0));
  EXPECT_TRUE(tensor::allclose(sequential.parameters()[0]->grad,
                               threaded.parameters()[0]->grad, 1e-15,
                               1e-15));
}

TEST(QuantumLayer, BatchedSoAPathMatchesGenericPerRow) {
  // The SoA batch path (specialized kernels, shared+per-row variants,
  // batched adjoint VJP) must agree with the reference backend's per-row
  // path — the seed's exact code path — to 1e-12 on outputs, input
  // gradients, and weight gradients.
  util::Rng rng_a{31};
  util::Rng rng_b{31};
  auto config = small_config(AnsatzKind::StronglyEntangling, 4, 3);
  QuantumLayer batched{config, rng_a};
  QuantumLayer generic{config, rng_b};  // same weights

  util::Rng data_rng{13};
  const tensor::Tensor x =
      tensor::uniform(tensor::Shape{7, 4}, -1.0, 1.0, data_rng);
  const tensor::Tensor g =
      tensor::uniform(tensor::Shape{7, 4}, -1.0, 1.0, data_rng);

  tensor::Tensor out_batched, gin_batched, out_generic, gin_generic;
  {
    const testing::BackendScope scope{"generic"};
    quantum::kernels::reset_stats();
    out_batched = batched.forward(x);
    EXPECT_GT(quantum::kernels::stats().batched_rows, 0u)
        << "production backends should take the SoA batch path";
    gin_batched = batched.backward(g);
  }
  {
    const testing::BackendScope scope{"reference"};
    quantum::kernels::reset_stats();
    out_generic = generic.forward(x);
    EXPECT_EQ(quantum::kernels::stats().batched_rows, 0u)
        << "the reference backend should disable the SoA batch path";
    gin_generic = generic.backward(g);
  }

  EXPECT_TRUE(tensor::allclose(out_batched, out_generic, 1e-12, 1e-12));
  EXPECT_TRUE(tensor::allclose(gin_batched, gin_generic, 1e-12, 1e-12));
  EXPECT_TRUE(tensor::allclose(batched.parameters()[0]->grad,
                               generic.parameters()[0]->grad, 1e-12, 1e-12));
}

TEST(QuantumLayer, BatchedPathBitIdenticalAcrossChunkCounts) {
  // Chunking the batch across threads must not change a single bit: the
  // batch kernels do per-row arithmetic in the same order regardless of
  // where chunk boundaries fall.
  util::Rng data_rng{45};
  const tensor::Tensor x =
      tensor::uniform(tensor::Shape{9, 3}, -1.0, 1.0, data_rng);
  const tensor::Tensor g =
      tensor::uniform(tensor::Shape{9, 3}, -1.0, 1.0, data_rng);

  std::vector<tensor::Tensor> outs, gins, wgrads;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    util::Rng rng{77};
    auto config = small_config(AnsatzKind::StronglyEntangling, 3, 2);
    config.threads = threads;
    QuantumLayer layer{config, rng};
    outs.push_back(layer.forward(x));
    gins.push_back(layer.backward(g));
    wgrads.push_back(layer.parameters()[0]->grad);
  }
  for (std::size_t i = 1; i < outs.size(); ++i) {
    EXPECT_TRUE(tensor::allclose(outs[0], outs[i], 0, 0));
    EXPECT_TRUE(tensor::allclose(gins[0], gins[i], 0, 0));
    EXPECT_TRUE(tensor::allclose(wgrads[0], wgrads[i], 0, 0));
  }
}

TEST(QuantumLayer, SecondBackwardReEvolvesTheConsumedState) {
  // Backward sweeps from the state its forward left behind, and the sweep
  // consumes it. A second backward with no fresh forward must evolve the
  // state again, never differentiate the consumed one: both backwards agree
  // to the last bit with a fresh layer's one.
  util::Rng data_rng{46};
  const Tensor x = tensor::uniform(Shape{5, 3}, -1.0, 1.0, data_rng);
  const Tensor g = tensor::uniform(Shape{5, 3}, -1.0, 1.0, data_rng);
  const auto config = small_config(AnsatzKind::StronglyEntangling, 3, 2);

  util::Rng rng{78};
  QuantumLayer layer{config, rng};
  layer.forward(x);
  const Tensor first = layer.backward(g);
  const Tensor first_weights = layer.parameters()[0]->grad;
  layer.zero_grad();
  const Tensor second = layer.backward(g);
  const Tensor second_weights = layer.parameters()[0]->grad;

  util::Rng fresh_rng{78};
  QuantumLayer fresh{config, fresh_rng};
  fresh.forward(x);
  const Tensor expected = fresh.backward(g);
  const Tensor expected_weights = fresh.parameters()[0]->grad;

  EXPECT_TRUE(tensor::allclose(first, expected, 0, 0));
  EXPECT_TRUE(tensor::allclose(second, expected, 0, 0));
  EXPECT_TRUE(tensor::allclose(first_weights, expected_weights, 0, 0));
  EXPECT_TRUE(tensor::allclose(second_weights, expected_weights, 0, 0));
}

TEST(QuantumLayer, StageMatchesModulePathAcrossInferenceChunks) {
  // The workspace stage is the Module path's implementation: its training
  // forward/backward and its chunked inference (600 rows span several
  // inference chunks) reproduce the Module path's bits.
  util::Rng data_rng{47};
  const Tensor x = tensor::uniform(Shape{600, 3}, -1.0, 1.0, data_rng);
  const Tensor batch = tensor::uniform(Shape{7, 3}, -1.0, 1.0, data_rng);
  const Tensor g = tensor::uniform(Shape{7, 3}, -1.0, 1.0, data_rng);
  auto config = small_config(AnsatzKind::BasicEntangler, 3, 3);
  config.encoding.scale = 3.0;

  util::Rng rng{79};
  QuantumLayer module{config, rng};
  const Tensor module_out = module.forward(x);
  const Tensor module_batch_out = module.forward(batch);
  const Tensor module_grad = module.backward(g);

  util::Rng stage_rng{79};
  QuantumLayer layer{config, stage_rng};
  const auto stage = layer.make_stage(8, 600);
  ASSERT_NE(stage, nullptr);
  Tensor stage_out{Shape{600, 3}};
  stage->infer(x.data().data(), 600, stage_out.data().data());
  Tensor stage_batch_out{Shape{7, 3}};
  stage->forward(batch.data().data(), 7, stage_batch_out.data().data());
  Tensor stage_grad{Shape{7, 3}};
  stage->backward(g.data().data(), stage_grad.data().data());

  EXPECT_TRUE(tensor::allclose(stage_out, module_out, 0, 0));
  EXPECT_TRUE(tensor::allclose(stage_batch_out, module_batch_out, 0, 0));
  EXPECT_TRUE(tensor::allclose(stage_grad, module_grad, 0, 0));
  EXPECT_TRUE(tensor::allclose(layer.parameters()[0]->grad,
                               module.parameters()[0]->grad, 0, 0));
  // Inference keeps no state for a backward.
  stage->infer(x.data().data(), 600, stage_out.data().data());
  EXPECT_THROW(stage->backward(g.data().data(), nullptr), std::logic_error);
}

TEST(QuantumLayer, NoStageOffTheExactBatchedPath) {
  util::Rng rng{80};
  auto noisy = small_config(AnsatzKind::BasicEntangler, 2, 1);
  noisy.noise = quantum::NoiseModel::depolarizing(0.01);
  QuantumLayer noisy_layer{noisy, rng};
  EXPECT_EQ(noisy_layer.make_stage(8, 64), nullptr);

  auto shift = small_config(AnsatzKind::BasicEntangler, 2, 1);
  shift.diff_method = quantum::DiffMethod::ParameterShift;
  QuantumLayer shift_layer{shift, rng};
  EXPECT_EQ(shift_layer.make_stage(8, 64), nullptr);

  QuantumLayer exact{small_config(AnsatzKind::BasicEntangler, 2, 1), rng};
  EXPECT_NE(exact.make_stage(8, 64), nullptr);
  const testing::BackendScope scope{"reference"};
  EXPECT_EQ(exact.make_stage(8, 64), nullptr);
}

}  // namespace
}  // namespace qhdl::qnn
