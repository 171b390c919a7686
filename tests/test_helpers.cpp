#include "test_helpers.hpp"

#include <algorithm>

#include "tensor/ops.hpp"

namespace qhdl::testing {

namespace {

/// Scalar objective L = Σ output ⊙ probe for gradient checking.
double objective(nn::Module& module, const tensor::Tensor& input,
                 const tensor::Tensor& probe) {
  const tensor::Tensor out = module.forward(input);
  return tensor::sum(tensor::multiply(out, probe));
}

tensor::Tensor make_probe(nn::Module& module, const tensor::Tensor& input,
                          util::Rng& rng) {
  const tensor::Tensor out = module.forward(input);
  tensor::Tensor probe{out.shape()};
  for (std::size_t i = 0; i < probe.size(); ++i) {
    probe[i] = rng.uniform(-1.0, 1.0);
  }
  return probe;
}

}  // namespace

double module_input_gradient_error(nn::Module& module,
                                   const tensor::Tensor& input,
                                   util::Rng& rng, double eps) {
  const tensor::Tensor probe = make_probe(module, input, rng);

  // Analytic: backward with dL/d(out) = probe.
  module.zero_grad();
  module.forward(input);
  const tensor::Tensor analytic = module.backward(probe);

  double worst = 0.0;
  tensor::Tensor perturbed = input;
  for (std::size_t i = 0; i < input.size(); ++i) {
    const double saved = perturbed[i];
    perturbed[i] = saved + eps;
    const double plus = objective(module, perturbed, probe);
    perturbed[i] = saved - eps;
    const double minus = objective(module, perturbed, probe);
    perturbed[i] = saved;
    const double numeric = (plus - minus) / (2.0 * eps);
    worst = std::max(worst, std::abs(numeric - analytic[i]));
  }
  return worst;
}

double module_parameter_gradient_error(nn::Module& module,
                                       const tensor::Tensor& input,
                                       util::Rng& rng, double eps) {
  const tensor::Tensor probe = make_probe(module, input, rng);

  module.zero_grad();
  module.forward(input);
  module.backward(probe);

  double worst = 0.0;
  for (nn::Parameter* param : module.parameters()) {
    for (std::size_t i = 0; i < param->value.size(); ++i) {
      const double saved = param->value[i];
      param->value[i] = saved + eps;
      const double plus = objective(module, input, probe);
      param->value[i] = saved - eps;
      const double minus = objective(module, input, probe);
      param->value[i] = saved;
      const double numeric = (plus - minus) / (2.0 * eps);
      worst = std::max(worst, std::abs(numeric - param->grad[i]));
    }
  }
  return worst;
}

std::vector<ConfigPerturbation> result_affecting_perturbations() {
  using C = search::SweepConfig;
  return {
      {"feature_sizes", [](C& c) { c.feature_sizes.push_back(99); }},
      {"feature_sizes[0]", [](C& c) { c.feature_sizes.at(0) += 1; }},
      {"spiral.points", [](C& c) { c.spiral.points += 3; }},
      {"spiral.classes", [](C& c) { c.spiral.classes += 1; }},
      {"spiral.turns", [](C& c) { c.spiral.turns += 0.25; }},
      {"spiral.radial_noise", [](C& c) { c.spiral.radial_noise += 0.01; }},
      {"geometry",
       [](C& c) {
         c.geometry = c.geometry == search::BaseGeometry::Spiral
                          ? search::BaseGeometry::Rings
                          : search::BaseGeometry::Spiral;
       }},
      {"dataset_seed", [](C& c) { c.dataset_seed += 1; }},
      {"search.accuracy_threshold",
       [](C& c) { c.search.accuracy_threshold += 0.01; }},
      {"search.runs_per_model", [](C& c) { c.search.runs_per_model += 1; }},
      {"search.repetitions", [](C& c) { c.search.repetitions += 1; }},
      {"search.validation_fraction",
       [](C& c) { c.search.validation_fraction += 0.05; }},
      {"search.classical_activation",
       [](C& c) {
         c.search.classical_activation =
             c.search.classical_activation == qnn::Activation::Tanh
                 ? qnn::Activation::ReLU
                 : qnn::Activation::Tanh;
       }},
      {"search.seed", [](C& c) { c.search.seed += 1; }},
      {"search.prune_margin", [](C& c) { c.search.prune_margin += 0.1; }},
      {"search.max_candidates", [](C& c) { c.search.max_candidates += 1; }},
      {"search.run_retries", [](C& c) { c.search.run_retries += 1; }},
      {"train.epochs", [](C& c) { c.search.train.epochs += 1; }},
      {"train.batch_size", [](C& c) { c.search.train.batch_size += 1; }},
      {"train.learning_rate",
       [](C& c) { c.search.train.learning_rate *= 2.0; }},
      {"train.finite_guard",
       [](C& c) { c.search.train.finite_guard = !c.search.train.finite_guard; }},
      {"train.early_stop_accuracy",
       [](C& c) { c.search.train.early_stop_accuracy += 0.5; }},
      {"train.shuffle",
       [](C& c) { c.search.train.shuffle = !c.search.train.shuffle; }},
      {"train.patience", [](C& c) { c.search.train.patience += 1; }},
      {"cost.matmul_mac", [](C& c) { c.search.cost_model.matmul_mac += 1; }},
      {"cost.bias_per_element",
       [](C& c) { c.search.cost_model.bias_per_element += 1; }},
      {"cost.activation_forward",
       [](C& c) { c.search.cost_model.activation_forward += 1; }},
      {"cost.activation_backward",
       [](C& c) { c.search.cost_model.activation_backward += 1; }},
      {"cost.softmax_forward",
       [](C& c) { c.search.cost_model.softmax_forward += 1; }},
      {"cost.gate_per_amplitude",
       [](C& c) { c.search.cost_model.gate_per_amplitude += 1; }},
      {"cost.rotation_setup",
       [](C& c) { c.search.cost_model.rotation_setup += 1; }},
      {"cost.entangler_per_amplitude",
       [](C& c) { c.search.cost_model.entangler_per_amplitude += 1; }},
      {"cost.expval_per_amplitude",
       [](C& c) { c.search.cost_model.expval_per_amplitude += 1; }},
      {"cost.observable_apply_per_amplitude",
       [](C& c) { c.search.cost_model.observable_apply_per_amplitude += 1; }},
      {"cost.inner_product_per_amplitude",
       [](C& c) { c.search.cost_model.inner_product_per_amplitude += 1; }},
  };
}

}  // namespace qhdl::testing
