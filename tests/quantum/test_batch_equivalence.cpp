// Batched-vs-per-row golden equivalence suite (DESIGN.md §14): the SoA
// batch executor vectorizes ACROSS batch lanes, so every batch row must
// reproduce the scalar per-row path BIT-IDENTICALLY (EXPECT_EQ on raw
// doubles) on every supported backend, for every batch size — including the
// odd tails (1, 3, 5, 7) that exercise the scalar remainder loops — in
// both execution modes: compiled plans on every production backend and the
// reference backend's per-op loop. The adjoint batch VJP is held to the
// same contract against row-by-row adjoint_vjp for the single-term
// diagonal observables the hybrid layer emits.
#include <complex>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "quantum/adjoint_diff.hpp"
#include "quantum/circuit.hpp"
#include "quantum/gates.hpp"
#include "quantum/kernels.hpp"
#include "quantum/observable.hpp"
#include "quantum/statevector.hpp"
#include "quantum/statevector_batch.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace {

using namespace qhdl;
using quantum::Circuit;
using quantum::Observable;
using quantum::StateVector;
using quantum::StateVectorBatch;
using Complex = std::complex<double>;

constexpr std::size_t kBatchSizes[] = {1, 3, 5, 7, 16};
constexpr std::size_t kQubitCounts[] = {3, 4, 5};

using qhdl::testing::BackendScope;
using qhdl::testing::production_backends;

/// Both execution modes: compiled plans on every supported production
/// backend, plus the reference backend's per-op loop.
std::vector<const char*> execution_backends() {
  std::vector<const char*> out = production_backends();
  out.push_back("reference");
  return out;
}

/// Reproducible entangled non-real state, prepared under the pinned
/// generic backend so every comparison starts from identical bits.
StateVector random_state(std::size_t qubits, util::Rng& rng) {
  const BackendScope scope{"generic"};
  StateVector state{qubits};
  for (std::size_t w = 0; w < qubits; ++w) {
    state.apply_single_qubit(quantum::gates::hadamard(), w);
    state.apply_single_qubit(quantum::gates::t(), w);
    state.apply_single_qubit(quantum::gates::ry(rng.uniform(-2.0, 2.0)), w);
  }
  for (std::size_t w = 0; w + 1 < qubits; ++w) state.apply_cnot(w, w + 1);
  return state;
}

/// Seeds a batch with independent random rows; returns the rows so the test
/// can replay the same gates through the scalar path.
std::vector<StateVector> seed_batch(StateVectorBatch& batch, util::Rng& rng) {
  std::vector<StateVector> rows;
  rows.reserve(batch.batch());
  for (std::size_t b = 0; b < batch.batch(); ++b) {
    rows.push_back(random_state(batch.num_qubits(), rng));
    batch.set_row(b, rows.back());
  }
  return rows;
}

void expect_row_bit_identical(const StateVector& row, const StateVector& golden,
                              const std::string& label) {
  ASSERT_EQ(row.dimension(), golden.dimension()) << label;
  for (std::size_t i = 0; i < row.dimension(); ++i) {
    EXPECT_EQ(row.amplitudes()[i].real(), golden.amplitudes()[i].real())
        << label << " amplitude " << i << " (real)";
    EXPECT_EQ(row.amplitudes()[i].imag(), golden.amplitudes()[i].imag())
        << label << " amplitude " << i << " (imag)";
  }
}

TEST(BatchEquivalence, GateKernelsBitIdenticalPerRow) {
  util::Rng rng{41};
  for (const char* backend : production_backends()) {
    for (const std::size_t qubits : kQubitCounts) {
      for (const std::size_t batch_size : kBatchSizes) {
        const std::string label = std::string{backend} +
                                  " q=" + std::to_string(qubits) +
                                  " b=" + std::to_string(batch_size);
        const quantum::Mat2 ry = quantum::gates::ry(rng.uniform(-3.0, 3.0));
        const double theta = rng.uniform(-3.0, 3.0);
        const Complex d0{std::cos(theta / 2.0), -std::sin(theta / 2.0)};
        const Complex d1{std::cos(theta / 2.0), std::sin(theta / 2.0)};
        quantum::Mat4 dense4;
        for (auto& mrow : dense4.m) {
          for (auto& entry : mrow) {
            entry = Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
          }
        }

        StateVectorBatch batch{qubits, batch_size};
        std::vector<StateVector> rows = seed_batch(batch, rng);
        const BackendScope scope{backend};
        for (std::size_t w = 0; w < qubits; ++w) {
          batch.apply_single_qubit(ry, w);
          batch.apply_diagonal(d0, d1, w);
          // Phase-gate fast path (d0 == 1).
          batch.apply_diagonal(Complex{1.0, 0.0}, d1, w);
        }
        batch.apply_cnot(0, qubits - 1);
        batch.apply_cnot(qubits - 1, 0);
        batch.apply_two_qubit(dense4, 1, 0);
        for (std::size_t b = 0; b < batch_size; ++b) {
          StateVector& row = rows[b];
          for (std::size_t w = 0; w < qubits; ++w) {
            row.apply_single_qubit(ry, w);
            row.apply_diagonal(d0, d1, w);
            row.apply_diagonal(Complex{1.0, 0.0}, d1, w);
          }
          row.apply_cnot(0, qubits - 1);
          row.apply_cnot(qubits - 1, 0);
          row.apply_two_qubit(dense4, 1, 0);
          expect_row_bit_identical(batch.extract_row(b), row,
                                   label + " row " + std::to_string(b));
        }
      }
    }
  }
}

TEST(BatchEquivalence, ReductionsBitIdenticalPerRow) {
  util::Rng rng{42};
  for (const char* backend : production_backends()) {
    for (const std::size_t qubits : kQubitCounts) {
      for (const std::size_t batch_size : kBatchSizes) {
        const std::string label = std::string{backend} +
                                  " q=" + std::to_string(qubits) +
                                  " b=" + std::to_string(batch_size);
        StateVectorBatch batch{qubits, batch_size};
        const std::vector<StateVector> rows = seed_batch(batch, rng);
        StateVectorBatch other{qubits, batch_size};
        const std::vector<StateVector> other_rows = seed_batch(other, rng);

        const BackendScope scope{backend};
        std::vector<double> out(batch_size);
        for (std::size_t w = 0; w < qubits; ++w) {
          batch.expval_pauli_z(w, out);
          const std::size_t mask = std::size_t{1} << (qubits - 1 - w);
          for (std::size_t b = 0; b < batch_size; ++b) {
            // The batched canon: one sequential running sum per row in
            // ascending amplitude order (Observable::expectation's order).
            double golden = 0.0;
            const auto amps = rows[b].amplitudes();
            for (std::size_t i = 0; i < rows[b].dimension(); ++i) {
              if ((i & mask) == 0) {
                golden += std::norm(amps[i]);
              } else {
                golden -= std::norm(amps[i]);
              }
            }
            EXPECT_EQ(out[b], golden)
                << label << " expval w=" << w << " row " << b;
          }
        }

        batch.inner_products_real(other, out);
        for (std::size_t b = 0; b < batch_size; ++b) {
          EXPECT_EQ(out[b], rows[b].inner_product(other_rows[b]).real())
              << label << " inner row " << b;
        }
      }
    }
  }
}

Circuit make_sel_circuit(std::size_t qubits, std::size_t depth,
                         std::vector<double>& params, util::Rng& rng) {
  Circuit circuit{qubits};
  qnn::AngleEncoding encoding;
  std::size_t offset = encoding.append(circuit, qubits);
  offset += qnn::append_ansatz(circuit, qnn::AnsatzKind::StronglyEntangling,
                               qubits, depth, offset);
  params = rng.uniform_vector(offset, -2.0, 2.0);
  return circuit;
}

/// Batch parameter pack in the hybrid layer's shape: per-row encoding
/// angles (first `qubits` slots), shared ansatz weights.
std::vector<double> make_batch_params(const std::vector<double>& proto,
                                      std::size_t qubits, std::size_t batch,
                                      util::Rng& rng) {
  std::vector<double> params(batch * proto.size());
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t p = 0; p < proto.size(); ++p) {
      params[b * proto.size() + p] =
          p < qubits ? rng.uniform(-2.0, 2.0) : proto[p];
    }
  }
  return params;
}

TEST(BatchEquivalence, CircuitRunBitIdenticalPerRowAllModes) {
  util::Rng rng{43};
  for (const std::size_t qubits : kQubitCounts) {
    std::vector<double> proto;
    const Circuit circuit = make_sel_circuit(qubits, 3, proto, rng);
    for (const std::size_t batch_size : kBatchSizes) {
      const std::vector<double> params =
          make_batch_params(proto, qubits, batch_size, rng);
      for (const char* backend : execution_backends()) {
        const BackendScope scope{backend};
        StateVectorBatch batch{qubits, batch_size};
        circuit.run_batch(batch, params, proto.size());
        for (std::size_t b = 0; b < batch_size; ++b) {
          const std::span<const double> row_params{
              params.data() + b * proto.size(), proto.size()};
          const StateVector golden = circuit.execute(row_params);
          expect_row_bit_identical(
              batch.extract_row(b), golden,
              std::string{backend} + " q=" + std::to_string(qubits) +
                  " b=" + std::to_string(batch_size) + " row " +
                  std::to_string(b));
        }
      }
    }
  }
}

TEST(BatchEquivalence, AdjointVjpBitIdenticalPerRowAllModes) {
  util::Rng rng{44};
  const std::size_t qubits = 4;
  std::vector<double> proto;
  const Circuit circuit = make_sel_circuit(qubits, 3, proto, rng);
  std::vector<Observable> observables;
  for (std::size_t w = 0; w < qubits; ++w) {
    observables.push_back(Observable::pauli_z(w));
  }
  for (const std::size_t batch_size : kBatchSizes) {
    const std::vector<double> params =
        make_batch_params(proto, qubits, batch_size, rng);
    std::vector<double> upstream(batch_size * qubits);
    for (auto& u : upstream) u = rng.uniform(-1.0, 1.0);
    // Exercise the w == 0 skip, which both seeds share.
    upstream[0] = 0.0;
    for (const char* backend : execution_backends()) {
      const BackendScope scope{backend};
      const std::string label =
          std::string{backend} + " b=" + std::to_string(batch_size);
      const auto batched = quantum::adjoint_vjp_batch(
          circuit, params, proto.size(), batch_size, observables, upstream);
      ASSERT_EQ(batched.expectations.size(), batch_size * qubits) << label;
      ASSERT_EQ(batched.gradient.size(), batch_size * proto.size()) << label;
      for (std::size_t b = 0; b < batch_size; ++b) {
        const std::span<const double> row_params{
            params.data() + b * proto.size(), proto.size()};
        const std::span<const double> row_up{upstream.data() + b * qubits,
                                             qubits};
        const auto row =
            quantum::adjoint_vjp(circuit, row_params, observables, row_up);
        for (std::size_t k = 0; k < qubits; ++k) {
          EXPECT_EQ(batched.expectations[b * qubits + k],
                    row.expectations[k])
              << label << " expectation row " << b << " obs " << k;
        }
        for (std::size_t p = 0; p < proto.size(); ++p) {
          EXPECT_EQ(batched.gradient[b * proto.size() + p],
                    row.gradient[p])
              << label << " gradient row " << b << " param " << p;
        }
      }
    }
  }
}

TEST(BatchEquivalence, AdjointStateSweepsTheForwardStateOnce) {
  // One state, sized once, serves batches that shrink and regrow; each
  // sweep starts from the forward's φ, matches a fresh adjoint_vjp_batch to
  // the last bit, and consumes φ, so a second sweep is refused.
  util::Rng rng{45};
  const std::size_t qubits = 3;
  std::vector<double> proto;
  const Circuit circuit = make_sel_circuit(qubits, 2, proto, rng);
  std::vector<Observable> observables;
  for (std::size_t w = 0; w < qubits; ++w) {
    observables.push_back(Observable::pauli_z(w));
  }
  for (const char* backend : execution_backends()) {
    const BackendScope scope{backend};
    quantum::BatchAdjointState state{circuit, observables, 8, 8};
    for (const std::size_t batch_size : {8, 3, 1, 8}) {
      const std::string label =
          std::string{backend} + " b=" + std::to_string(batch_size);
      const std::vector<double> params =
          make_batch_params(proto, qubits, batch_size, rng);
      std::vector<double> upstream(batch_size * qubits);
      for (auto& u : upstream) u = rng.uniform(-1.0, 1.0);
      const auto fresh = quantum::adjoint_vjp_batch(
          circuit, params, proto.size(), batch_size, observables, upstream);

      std::vector<double> expectations(batch_size * qubits);
      state.forward(params, proto.size(), batch_size, expectations);
      EXPECT_TRUE(state.holds_forward_state()) << label;
      state.sweep(upstream);
      EXPECT_FALSE(state.holds_forward_state()) << label;
      EXPECT_EQ(expectations, fresh.expectations) << label;
      const std::span<const double> gradient = state.gradient();
      EXPECT_EQ(std::vector<double>(gradient.begin(), gradient.end()),
                fresh.gradient)
          << label;
      EXPECT_THROW(state.sweep(upstream), std::logic_error) << label;
    }
  }
}

}  // namespace
