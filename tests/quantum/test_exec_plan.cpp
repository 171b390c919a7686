// Compiled execution plans (DESIGN.md §12): plan-vs-reference equivalence
// for every gate × position × {3,4,5} qubits, golden digests pinning the
// plan's batch and adjoint output bits, fusion/cancellation lowering
// invariants, the process-wide plan cache (determinism across threads, LRU
// eviction, fault-injected flushes), the plan-or-reference execution split,
// and the strict parameter size contract the compile pass relies on.
#include <complex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "qnn/quantum_layer.hpp"
#include "quantum/adjoint_diff.hpp"
#include "quantum/circuit.hpp"
#include "quantum/exec_plan.hpp"
#include "quantum/gates.hpp"
#include "quantum/kernels.hpp"
#include "quantum/observable.hpp"
#include "quantum/statevector.hpp"
#include "quantum/statevector_batch.hpp"
#include "tensor/init.hpp"
#include "test_helpers.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace {

using namespace qhdl;
using quantum::Circuit;
using quantum::ExecutionPlan;
using quantum::FusedOp;
using quantum::GateType;
using quantum::Observable;
using quantum::StateVector;
using quantum::StateVectorBatch;
using qhdl::testing::BackendScope;
using qhdl::testing::Digest;
using qhdl::testing::production_backends;

constexpr double kTol = 1e-12;

const std::vector<GateType> kAllGates = {
    GateType::PauliX, GateType::PauliY, GateType::PauliZ,
    GateType::Hadamard, GateType::S, GateType::T,
    GateType::RX, GateType::RY, GateType::RZ, GateType::PhaseShift,
    GateType::CNOT, GateType::CZ, GateType::SWAP,
    GateType::CRX, GateType::CRY, GateType::CRZ,
    GateType::RXX, GateType::RYY, GateType::RZZ,
};

void expect_states_close(const StateVector& a, const StateVector& b,
                         double tolerance, const std::string& label) {
  ASSERT_EQ(a.dimension(), b.dimension()) << label;
  for (std::size_t i = 0; i < a.dimension(); ++i) {
    EXPECT_NEAR(a.amplitudes()[i].real(), b.amplitudes()[i].real(),
                tolerance)
        << label << " amplitude " << i << " (real)";
    EXPECT_NEAR(a.amplitudes()[i].imag(), b.amplitudes()[i].imag(),
                tolerance)
        << label << " amplitude " << i << " (imag)";
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

/// Runs `circuit` from |0...0> through its compiled plan (generic backend)
/// and through the reference backend's per-op loop, and checks 1e-12
/// amplitude agreement.
void check_plan_matches_reference(const Circuit& circuit,
                                  std::span<const double> params,
                                  const std::string& label) {
  StateVector planned{circuit.num_qubits()};
  StateVector reference{circuit.num_qubits()};
  {
    const BackendScope scope{"generic"};
    circuit.run(planned, params);
  }
  {
    const BackendScope scope{"reference"};
    circuit.run(reference, params);
  }
  expect_states_close(planned, reference, kTol, label);
}

TEST(ExecPlan, EveryGateEveryPositionMatchesUncompiled) {
  // Golden suite: each gate at each position, sandwiched between a mixing
  // prefix (so the state is non-trivial and complex) and neighbors that
  // exercise the chain fuser around it.
  util::Rng rng{2024};
  for (const std::size_t qubits : {3u, 4u, 5u}) {
    for (const GateType type : kAllGates) {
      const std::size_t arity = quantum::gate_arity(type);
      for (std::size_t w0 = 0; w0 < qubits; ++w0) {
        const std::size_t w1 =
            arity == 2 ? (w0 + 1 + rng.index(qubits - 1)) % qubits : SIZE_MAX;
        Circuit circuit{qubits};
        std::size_t slot = 0;
        for (std::size_t w = 0; w < qubits; ++w) {
          circuit.gate(GateType::Hadamard, w);
          circuit.parameterized_gate(GateType::RY, slot++, w);
        }
        for (std::size_t w = 0; w + 1 < qubits; ++w) {
          circuit.gate(GateType::CNOT, w, w + 1);
        }
        if (quantum::gate_is_parameterized(type)) {
          circuit.parameterized_gate(type, slot++, w0, w1);
        } else {
          circuit.gate(type, w0, w1);
        }
        circuit.parameterized_gate(GateType::RX, slot++, w0);
        const auto params = rng.uniform_vector(slot, -3.0, 3.0);
        check_plan_matches_reference(
            circuit, params,
            quantum::gate_name(type) + " q=" + std::to_string(qubits) +
                " w0=" + std::to_string(w0));
      }
    }
  }
}

TEST(ExecPlan, SelAnsatzMatchesUncompiledAllDepths) {
  util::Rng rng{31};
  for (const std::size_t qubits : {3u, 4u, 5u}) {
    for (const std::size_t depth : {1u, 4u, 10u}) {
      std::vector<double> params;
      const Circuit circuit = make_sel_circuit(qubits, depth, params, rng);
      check_plan_matches_reference(
          circuit, params,
          "SEL q=" + std::to_string(qubits) + " d=" + std::to_string(depth));
    }
  }
}

// Golden digests of the output bits, captured from the per-call lowering
// that plans replaced; every production backend must reproduce them and
// stay within 1e-12 of the reference backend.
TEST(ExecPlan, RunBatchBitIdenticalToUncompiled) {
  const char* const kGolden[] = {"71c2971a716a96c9", "9e77bd459d88bc09"};
  util::Rng rng{17};
  std::size_t case_index = 0;
  for (const std::size_t qubits : {3u, 5u}) {
    std::vector<double> proto;
    const Circuit circuit = make_sel_circuit(qubits, 3, proto, rng);
    const std::size_t stride = proto.size();
    const std::size_t batch = 6;
    std::vector<double> params(batch * stride);
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t p = 0; p < stride; ++p) {
        params[b * stride + p] =
            p < qubits ? rng.uniform(-2.0, 2.0) : proto[p];
      }
    }
    StateVectorBatch reference{qubits, batch};
    {
      const BackendScope scope{"reference"};
      circuit.run_batch(reference, params, stride);
    }
    for (const char* backend : production_backends()) {
      const BackendScope scope{backend};
      StateVectorBatch out{qubits, batch};
      circuit.run_batch(out, params, stride);
      EXPECT_EQ(Digest{}.complexes(out.amplitudes()).hex(),
                kGolden[case_index])
          << backend << " q=" << qubits;
      for (std::size_t i = 0; i < out.amplitudes().size(); ++i) {
        EXPECT_LE(std::abs(out.amplitudes()[i] - reference.amplitudes()[i]),
                  kTol)
            << backend << " q=" << qubits << " amplitude " << i;
      }
    }
    ++case_index;
  }
}

TEST(ExecPlan, AdjointVjpBitIdenticalToUncompiled) {
  util::Rng rng{23};
  const std::size_t qubits = 4;
  std::vector<double> params;
  const Circuit circuit = make_sel_circuit(qubits, 3, params, rng);
  std::vector<Observable> observables;
  std::vector<double> upstream;
  for (std::size_t w = 0; w < qubits; ++w) {
    observables.push_back(Observable::pauli_z(w));
    upstream.push_back(rng.uniform(-1.0, 1.0));
  }
  const quantum::AdjointVjpResult reference = [&] {
    const BackendScope scope{"reference"};
    return quantum::adjoint_vjp(circuit, params, observables, upstream);
  }();
  for (const char* backend : production_backends()) {
    const BackendScope scope{backend};
    const quantum::AdjointVjpResult result =
        quantum::adjoint_vjp(circuit, params, observables, upstream);
    EXPECT_EQ(Digest{}.doubles(result.gradient).hex(), "57fb7bd4d2e35fca")
        << backend;
    EXPECT_EQ(Digest{}.doubles(result.expectations).hex(),
              "d66ed9e48e7d9f16")
        << backend;
    for (std::size_t p = 0; p < result.gradient.size(); ++p) {
      EXPECT_NEAR(result.gradient[p], reference.gradient[p], kTol)
          << backend << " param " << p;
    }
    for (std::size_t k = 0; k < result.expectations.size(); ++k) {
      EXPECT_NEAR(result.expectations[k], reference.expectations[k], kTol)
          << backend << " obs " << k;
    }
  }
}

TEST(ExecPlan, InvolutionPairsCancel) {
  // X·X, CNOT·CNOT, CZ·CZ (reversed wires too — CZ is symmetric), SWAP·SWAP
  // are pure permutations/sign flips; the peephole pass removes them and the
  // compiled state still matches the reference backend's per-op loop.
  Circuit circuit{3};
  circuit.gate(GateType::Hadamard, 0);
  circuit.gate(GateType::PauliX, 1);
  circuit.gate(GateType::PauliX, 1);
  circuit.gate(GateType::CNOT, 0, 1);
  circuit.gate(GateType::CNOT, 0, 1);
  circuit.gate(GateType::CZ, 1, 2);
  circuit.gate(GateType::CZ, 2, 1);
  circuit.gate(GateType::SWAP, 0, 2);
  circuit.gate(GateType::SWAP, 2, 0);
  circuit.parameterized_gate(GateType::RY, 0, 2);

  const auto plan = quantum::compile_circuit(circuit);
  EXPECT_EQ(plan->source_op_count(), 10u);
  EXPECT_EQ(plan->cancelled_op_count(), 8u);
  EXPECT_EQ(plan->flat_ops().size(), 2u);  // Hadamard + RY survive

  const std::vector<double> params = {0.37};
  check_plan_matches_reference(circuit, params, "involution pairs");
}

TEST(ExecPlan, CnotReversedWiresDoesNotCancel) {
  // CNOT(0,1)·CNOT(1,0) is NOT identity — the cancellation must compare
  // control and target exactly, not as an unordered pair.
  Circuit circuit{2};
  circuit.gate(GateType::Hadamard, 0);
  circuit.gate(GateType::CNOT, 0, 1);
  circuit.gate(GateType::CNOT, 1, 0);
  const auto plan = quantum::compile_circuit(circuit);
  EXPECT_EQ(plan->cancelled_op_count(), 0u);
  check_plan_matches_reference(circuit, {}, "reversed CNOT");
}

TEST(ExecPlan, FixedSingleQubitChainsPrecompute) {
  // H·S·H on one wire: fixed, not all diagonal -> one FixedChain op.
  Circuit circuit{2};
  circuit.gate(GateType::Hadamard, 0);
  circuit.gate(GateType::S, 0);
  circuit.gate(GateType::Hadamard, 0);
  const auto plan = quantum::compile_circuit(circuit);
  ASSERT_EQ(plan->fused_ops().size(), 1u);
  EXPECT_EQ(plan->fused_ops()[0].kind, FusedOp::Kind::FixedChain);
  EXPECT_EQ(plan->fused_ops()[0].gate_count, 3u);
  check_plan_matches_reference(circuit, {}, "H S H fixed chain");
}

TEST(ExecPlan, DiagonalChainsPrecomputeDiagonal) {
  // S·T·Z on one wire: fixed and all diagonal -> one DiagonalChain op.
  Circuit circuit{2};
  circuit.gate(GateType::S, 1);
  circuit.gate(GateType::T, 1);
  circuit.gate(GateType::PauliZ, 1);
  const auto plan = quantum::compile_circuit(circuit);
  ASSERT_EQ(plan->fused_ops().size(), 1u);
  EXPECT_EQ(plan->fused_ops()[0].kind, FusedOp::Kind::DiagonalChain);
  check_plan_matches_reference(circuit, {}, "S T Z diagonal chain");
}

TEST(ExecPlan, AdjacentFixedTwoQubitGatesFuseToPair) {
  // CNOT(0,1)·CZ(0,1) and the wire-order-flipped CNOT(0,1)·CZ(1,0) both
  // collapse to one precomputed 4x4; parameterized two-qubit gates do not.
  {
    Circuit circuit{3};
    circuit.gate(GateType::Hadamard, 0);
    circuit.gate(GateType::Hadamard, 1);
    circuit.gate(GateType::CNOT, 0, 1);
    circuit.gate(GateType::CZ, 0, 1);
    const auto plan = quantum::compile_circuit(circuit);
    bool saw_pair = false;
    for (const FusedOp& op : plan->fused_ops()) {
      if (op.kind == FusedOp::Kind::FusedPair) {
        saw_pair = true;
        EXPECT_EQ(op.gate_count, 2u);
      }
    }
    EXPECT_TRUE(saw_pair);
    check_plan_matches_reference(circuit, {}, "CNOT CZ same order");
  }
  {
    Circuit circuit{3};
    circuit.gate(GateType::Hadamard, 0);
    circuit.gate(GateType::Hadamard, 1);
    circuit.gate(GateType::CNOT, 0, 1);
    circuit.gate(GateType::CZ, 1, 0);
    const auto plan = quantum::compile_circuit(circuit);
    bool saw_pair = false;
    for (const FusedOp& op : plan->fused_ops()) {
      if (op.kind == FusedOp::Kind::FusedPair) saw_pair = true;
    }
    EXPECT_TRUE(saw_pair);
    check_plan_matches_reference(circuit, {}, "CNOT CZ flipped order");
  }
  {
    Circuit circuit{3};
    circuit.gate(GateType::Hadamard, 0);
    circuit.parameterized_gate(GateType::CRX, 0, 0, 1);
    circuit.parameterized_gate(GateType::CRZ, 1, 0, 1);
    const auto plan = quantum::compile_circuit(circuit);
    for (const FusedOp& op : plan->fused_ops()) {
      EXPECT_NE(op.kind, FusedOp::Kind::FusedPair)
          << "parameterized two-qubit gates must not pair-fuse";
    }
    const std::vector<double> cr_params = {0.4, -0.9};
    check_plan_matches_reference(circuit, cr_params,
                                      "parameterized CR chain");
  }
}

TEST(ExecPlan, StructureKeyDistinguishesAngleAndShape) {
  Circuit a{3};
  a.gate(GateType::Hadamard, 0);
  Circuit b{3};
  b.gate(GateType::Hadamard, 1);  // differs in wire
  Circuit c{4};
  c.gate(GateType::Hadamard, 0);  // differs in qubit count
  Circuit d{3};
  d.gate(GateType::RZ, 0, SIZE_MAX, 0.25);
  Circuit e{3};
  e.gate(GateType::RZ, 0, SIZE_MAX, 0.250000000000001);  // differs in angle

  std::set<std::string> keys;
  for (const Circuit* circuit : {&a, &b, &c, &d, &e}) {
    keys.insert(quantum::compile_circuit(*circuit)->structure_key());
  }
  EXPECT_EQ(keys.size(), 5u) << "all five structures must key differently";

  Circuit a2{3};
  a2.gate(GateType::Hadamard, 0);
  EXPECT_EQ(quantum::compile_circuit(a)->structure_key(),
            quantum::compile_circuit(a2)->structure_key());
  EXPECT_EQ(quantum::compile_circuit(a)->structure_hash(),
            quantum::compile_circuit(a2)->structure_hash());
}

TEST(ExecPlan, CacheHitsShareOnePlanAcrossThreads) {
  quantum::plan_cache::clear();
  quantum::plan_cache::reset_stats();

  util::Rng rng{5};
  std::vector<double> params;
  const std::size_t threads = 8;
  std::vector<std::shared_ptr<const ExecutionPlan>> plans(threads);
  {
    // Each thread builds its own structurally-identical circuit and asks
    // for its plan concurrently; every one must get the same object and
    // the structure must compile exactly once.
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        util::Rng thread_rng{7};
        std::vector<double> p;
        const Circuit circuit = make_sel_circuit(4, 3, p, thread_rng);
        plans[t] = circuit.compiled_plan();
      });
    }
    for (auto& w : workers) w.join();
  }
  for (std::size_t t = 0; t < threads; ++t) {
    ASSERT_NE(plans[t], nullptr) << "thread " << t;
    EXPECT_EQ(plans[t], plans[0]) << "thread " << t;
  }
  const auto stats = quantum::plan_cache::stats();
  EXPECT_EQ(stats.compiled, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, threads - 1);
  EXPECT_EQ(stats.size, 1u);
}

TEST(ExecPlan, MemoizedSlotInvalidatesOnMutation) {
  Circuit circuit{3};
  circuit.gate(GateType::Hadamard, 0);
  const auto before = circuit.compiled_plan();
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(circuit.compiled_plan(), before) << "stable while unmutated";
  circuit.gate(GateType::CNOT, 0, 1);
  const auto after = circuit.compiled_plan();
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after, before);
  EXPECT_NE(after->structure_key(), before->structure_key());
}

TEST(ExecPlan, LruEvictionHonorsCapacity) {
  quantum::plan_cache::clear();
  quantum::plan_cache::reset_stats();
  quantum::plan_cache::set_capacity(2);

  const auto touch = [](std::size_t qubits, std::size_t wire) {
    Circuit circuit{qubits};
    circuit.gate(GateType::Hadamard, wire);
    return circuit.compiled_plan();
  };
  touch(4, 0);  // A
  touch(4, 1);  // B
  touch(4, 0);  // A again: hit, refreshes A's recency
  touch(4, 2);  // C: evicts B (least recently used)
  EXPECT_EQ(quantum::plan_cache::size(), 2u);
  EXPECT_EQ(quantum::plan_cache::stats().evictions, 1u);

  touch(4, 0);  // A must still be resident
  EXPECT_EQ(quantum::plan_cache::stats().hits, 2u);
  touch(4, 1);  // B was evicted -> recompiles
  EXPECT_EQ(quantum::plan_cache::stats().compiled, 4u);

  quantum::plan_cache::set_capacity(std::nullopt);
  quantum::plan_cache::clear();
}

TEST(ExecPlan, FaultInjectionFlushesCache) {
  auto& injector = util::FaultInjector::instance();
  quantum::plan_cache::clear();
  quantum::plan_cache::reset_stats();
  injector.configure("plan=evict@2");

  Circuit circuit{3};
  circuit.gate(GateType::Hadamard, 0);
  Circuit other{3};
  other.gate(GateType::Hadamard, 1);

  ASSERT_NE(quantum::compile_circuit(circuit), nullptr);
  quantum::plan_cache::get_or_compile(circuit);  // arrival 1: no fault
  EXPECT_EQ(quantum::plan_cache::size(), 1u);
  quantum::plan_cache::get_or_compile(other);  // arrival 2: flush fires
  // The flush empties the cache before the lookup, so `other` recompiles
  // into an empty cache and `circuit`'s plan is gone.
  EXPECT_EQ(quantum::plan_cache::size(), 1u);
  EXPECT_GE(quantum::plan_cache::stats().evictions, 1u);
  quantum::plan_cache::get_or_compile(circuit);  // arrival 3: miss again
  EXPECT_EQ(quantum::plan_cache::stats().compiled, 3u);

  injector.configure("");
  quantum::plan_cache::clear();
}

TEST(ExecPlan, ReferenceBackendNeverCompilesProductionAlwaysPlans) {
  // A circuit runs one of exactly two ways: the reference backend's per-op
  // loop (no plan lookup, no batched rows in the hybrid layer) or, on every
  // production backend, its cached plan. Each pass builds fresh circuits,
  // so any plan use goes through the cache and shows up in its stats.
  const auto exercise = [] {
    quantum::plan_cache::reset_stats();
    quantum::kernels::reset_stats();
    util::Rng rng{41};
    qnn::QuantumLayerConfig config;
    config.qubits = 4;
    config.depth = 2;
    config.threads = 1;
    qnn::QuantumLayer layer{config, rng};
    const tensor::Tensor x =
        tensor::uniform(tensor::Shape{3, 4}, -1.0, 1.0, rng);
    layer.forward(x);
    layer.backward(x);
    std::vector<double> params;
    const Circuit circuit = make_sel_circuit(3, 2, params, rng);
    StateVector state{3};
    circuit.run(state, params);
    const std::vector<Observable> observables = {Observable::pauli_z(0)};
    const std::vector<double> upstream = {0.5};
    quantum::adjoint_vjp(circuit, params, observables, upstream);
  };
  {
    const BackendScope scope{"reference"};
    exercise();
    const auto plans = quantum::plan_cache::stats();
    EXPECT_EQ(plans.hits + plans.misses, 0u) << "reference never plans";
    EXPECT_EQ(quantum::kernels::stats().batched_rows, 0u);
    EXPECT_EQ(quantum::kernels::stats().fused, 0u);
  }
  for (const char* backend : production_backends()) {
    const BackendScope scope{backend};
    exercise();
    const auto plans = quantum::plan_cache::stats();
    EXPECT_GT(plans.hits + plans.misses, 0u) << backend;
    EXPECT_GT(quantum::kernels::stats().fused, 0u) << backend;
    EXPECT_GT(quantum::kernels::stats().batched_rows, 0u) << backend;
  }
}

TEST(ExecPlan, RunRejectsWrongSizedParams) {
  Circuit circuit{2};
  circuit.parameterized_gate(GateType::RX, 0, 0);
  circuit.parameterized_gate(GateType::RY, 1, 1);  // (param 1, wire 1)
  StateVector state{2};
  const std::vector<double> short_params = {0.1};
  const std::vector<double> long_params = {0.1, 0.2, 0.3};
  const std::vector<double> exact = {0.1, 0.2};
  EXPECT_THROW(circuit.run(state, short_params), std::invalid_argument);
  EXPECT_THROW(circuit.run(state, long_params), std::invalid_argument);
  EXPECT_NO_THROW(circuit.run(state, exact));

  StateVectorBatch batch{2, 2};
  // run_batch needs exactly rows * stride values.
  const std::vector<double> batch_exact = {0.1, 0.2, 0.3, 0.4};
  const std::vector<double> batch_long = {0.1, 0.2, 0.3, 0.4, 0.5};
  EXPECT_THROW(circuit.run_batch(batch, batch_long, 2),
               std::invalid_argument);
  EXPECT_NO_THROW(circuit.run_batch(batch, batch_exact, 2));
}

}  // namespace
