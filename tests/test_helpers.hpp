// Shared test utilities: finite-difference gradient checking for nn modules
// and quantum circuits, random-circuit generation for property tests, and
// FNV-1a digests for golden bit-identity tables.
#pragma once

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nn/loss.hpp"
#include "nn/module.hpp"
#include "quantum/circuit.hpp"
#include "quantum/observable.hpp"
#include "util/backend_registry.hpp"
#include "util/rng.hpp"

namespace qhdl::testing {

/// Incremental 64-bit FNV-1a over the raw bytes of computed results. A
/// committed table of these digests pins every bit of a golden output
/// without committing the values themselves; compare with hex() so a
/// mismatch prints the actual digest.
class Digest {
 public:
  Digest& bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Digest& doubles(std::span<const double> values) {
    return bytes(values.data(), values.size_bytes());
  }
  Digest& complexes(std::span<const std::complex<double>> values) {
    return bytes(values.data(), values.size_bytes());
  }
  Digest& value(double v) { return bytes(&v, sizeof v); }
  Digest& value(std::uint64_t v) { return bytes(&v, sizeof v); }
  Digest& text(std::string_view s) {
    value(static_cast<std::uint64_t>(s.size()));
    return bytes(s.data(), s.size());
  }

  std::string hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Pins one kernel backend for the scope and restores the previous runtime
/// override (or env/build/auto selection) on exit, so scopes nest.
class BackendScope {
 public:
  explicit BackendScope(const char* name) {
    if (std::string_view{util::simd::active_source()} == "override") {
      previous_ = util::simd::active_backend().name;
    }
    util::simd::set_backend(name);
  }
  ~BackendScope() {
    util::simd::set_backend(
        previous_ == nullptr ? std::nullopt
                             : std::optional<std::string_view>{previous_});
  }
  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

 private:
  const char* previous_ = nullptr;
};

/// Supported non-reference backends: the ones that execute compiled plans
/// and are bound by the bit-identity contract.
inline std::vector<const char*> production_backends() {
  std::vector<const char*> names;
  for (const util::simd::Backend* backend : util::simd::backends()) {
    if (!backend->reference && backend->supported()) {
      names.push_back(backend->name);
    }
  }
  return names;
}

/// Central finite difference of a scalar function at x.
inline double central_difference(const std::function<double(double)>& f,
                                 double x, double eps = 1e-6) {
  return (f(x + eps) - f(x - eps)) / (2.0 * eps);
}

/// Numerically differentiates ⟨obs⟩ w.r.t. every circuit parameter.
inline std::vector<double> numerical_circuit_gradient(
    const quantum::Circuit& circuit, std::vector<double> params,
    const quantum::Observable& obs, double eps = 1e-6) {
  std::vector<double> grad(circuit.parameter_count(), 0.0);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const double saved = params[i];
    params[i] = saved + eps;
    const double plus = obs.expectation(circuit.execute(params));
    params[i] = saved - eps;
    const double minus = obs.expectation(circuit.execute(params));
    params[i] = saved;
    grad[i] = (plus - minus) / (2.0 * eps);
  }
  return grad;
}

/// Builds a random circuit mixing rotations and entanglers; every
/// parameterized op gets its own parameter index. Returns the circuit and
/// fills `params` with random angles.
inline quantum::Circuit random_circuit(std::size_t qubits, std::size_t ops,
                                       util::Rng& rng,
                                       std::vector<double>& params) {
  using quantum::GateType;
  quantum::Circuit circuit{qubits};
  params.clear();
  const GateType rotations[] = {GateType::RX, GateType::RY, GateType::RZ,
                                GateType::PhaseShift};
  const GateType entanglers[] = {GateType::CNOT, GateType::CZ};
  const GateType controlled_rotations[] = {GateType::CRX, GateType::CRY,
                                           GateType::CRZ};
  const GateType ising_rotations[] = {GateType::RXX, GateType::RYY,
                                      GateType::RZZ};
  for (std::size_t i = 0; i < ops; ++i) {
    const std::size_t choice = rng.index(qubits >= 2 ? 4 : 1);
    if (choice == 0 || qubits < 2) {
      const GateType g = rotations[rng.index(4)];
      circuit.parameterized_gate(g, params.size(), rng.index(qubits));
      params.push_back(rng.uniform(-3.0, 3.0));
    } else if (choice == 1) {
      const std::size_t a = rng.index(qubits);
      std::size_t b = rng.index(qubits);
      while (b == a) b = rng.index(qubits);
      circuit.gate(entanglers[rng.index(2)], a, b);
    } else if (choice == 2) {
      const std::size_t a = rng.index(qubits);
      std::size_t b = rng.index(qubits);
      while (b == a) b = rng.index(qubits);
      circuit.parameterized_gate(controlled_rotations[rng.index(3)],
                                 params.size(), a, b);
      params.push_back(rng.uniform(-3.0, 3.0));
    } else {
      const std::size_t a = rng.index(qubits);
      std::size_t b = rng.index(qubits);
      while (b == a) b = rng.index(qubits);
      circuit.parameterized_gate(ising_rotations[rng.index(3)],
                                 params.size(), a, b);
      params.push_back(rng.uniform(-3.0, 3.0));
    }
  }
  return circuit;
}

/// Numerically checks a module's input gradient on a batch by perturbing
/// each input element; the scalar objective is sum(output * probe) for a
/// fixed random probe. Returns the max abs error vs the module's backward.
double module_input_gradient_error(nn::Module& module,
                                   const tensor::Tensor& input,
                                   util::Rng& rng, double eps = 1e-6);

/// Same check for the module's parameter gradients.
double module_parameter_gradient_error(nn::Module& module,
                                       const tensor::Tensor& input,
                                       util::Rng& rng, double eps = 1e-6);

}  // namespace qhdl::testing
