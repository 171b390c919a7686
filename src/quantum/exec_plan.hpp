// Compiled circuit execution plans (DESIGN.md §12).
//
// Thousands of candidate evaluations in a grid search share a handful of
// circuit *structures*, so every production backend lowers a Circuit once
// into an immutable ExecutionPlan and runs only that (the reference backend
// runs the raw op list instead, as the oracle):
//
//   * a peephole pass drops adjacent exact-involution pairs (X·X, Z·Z,
//     CNOT·CNOT, CZ·CZ, SWAP·SWAP on the same wires — pure permutations and
//     sign flips, so removal is bit-exact);
//   * adjacent single-qubit gates on one wire become fused chains: fully
//     fixed chains collapse to a precomputed dense 2×2 (or a precomputed
//     diagonal when every factor is diagonal), parameterized chains record
//     the gate sequence so run() multiplies the same matrices in the same
//     order on every call;
//   * adjacent angle-independent two-qubit gates on one wire pair collapse
//     to a precomputed 4×4 unitary (StateVector::apply_two_qubit);
//   * every op records the specialized kernel class it dispatches to, so
//     flops::classify_plan can model the compiled dispatch mix exactly.
//
// Plans are cached process-wide, keyed by a structural FNV-1a hash (same
// scheme as search::sweep_config_hash) with full-key verification, so a
// sweep compiles each (ansatz, qubits, depth) structure once per process —
// including re-exec'd --worker-mode processes, which warm their own cache on
// the first unit of each structure.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "quantum/gates.hpp"

namespace qhdl::quantum {

class BatchAngleTable;
class Circuit;
class StateVectorBatch;

/// Specialized kernel class an op dispatches to (the compile-time mirror of
/// the dispatch switch in gates.cpp / flops::DispatchCounts).
enum class KernelClass : std::uint8_t {
  Diagonal,      ///< RZ / PhaseShift / S / T / Z / CZ
  RealRotation,  ///< RX / RY
  Permutation,   ///< X / CNOT / SWAP
  Controlled,    ///< CRX / CRY / CRZ
  DoubleFlip,    ///< RXX / RYY / RZZ
  Generic,       ///< dense 2x2 matvec (PauliY, Hadamard)
};

/// Kernel class `type` routes to under specialized dispatch.
KernelClass kernel_class_for(GateType type);

/// One op of the flat (unfused) stream: the original op order minus
/// peephole-cancelled pairs, with parameter lookup and kernel dispatch
/// resolved at compile time. Used by run_batch and the adjoint reverse
/// sweeps, whose arithmetic must stay bit-identical to per-op dispatch.
struct PlanOp {
  GateType type;
  std::size_t wire0 = 0;
  std::size_t wire1 = SIZE_MAX;  ///< SIZE_MAX for single-qubit ops
  std::int64_t param_slot = -1;  ///< runtime parameter index, -1 = fixed
  double fixed_angle = 0.0;
  KernelClass kernel = KernelClass::Generic;

  double angle(std::span<const double> params) const {
    return param_slot < 0 ? fixed_angle
                          : params[static_cast<std::size_t>(param_slot)];
  }
};

/// One gate inside a parameterized fused chain.
struct ChainGate {
  GateType type;
  std::int64_t param_slot = -1;
  double fixed_angle = 0.0;

  double angle(std::span<const double> params) const {
    return param_slot < 0 ? fixed_angle
                          : params[static_cast<std::size_t>(param_slot)];
  }
};

/// One op of the fused scalar stream. Single-qubit gates are deferred per
/// wire and emitted when a two-qubit op touches the wire (both wires flush
/// first) or at the end (ascending wire order); gates on distinct wires
/// commute exactly, so deferral never reorders anything observable.
struct FusedOp {
  enum class Kind : std::uint8_t {
    Single,         ///< one single-qubit gate, specialized dispatch
    Chain,          ///< >=2 single-qubit gates, runtime 2x2 product
    FixedChain,     ///< >=2 fixed single-qubit gates, precomputed dense 2x2
    DiagonalChain,  ///< >=2 fixed diagonal gates, precomputed diagonal
    TwoQubit,       ///< one two-qubit gate, specialized dispatch
    FusedPair,      ///< >=2 fixed two-qubit gates on one pair, 4x4 unitary
  };

  Kind kind = Kind::Single;
  GateType type = GateType::PauliX;  ///< valid for Single / TwoQubit
  std::size_t wire0 = 0;
  std::size_t wire1 = SIZE_MAX;
  std::int64_t param_slot = -1;  ///< Single / TwoQubit; -1 = fixed
  double fixed_angle = 0.0;
  KernelClass kernel = KernelClass::Generic;
  Mat2 matrix{};         ///< FixedChain product
  Complex d0{}, d1{};    ///< DiagonalChain product diagonal
  Mat4 matrix4{};        ///< FusedPair product
  std::uint32_t chain_begin = 0;  ///< Chain slice into chain_gates()
  std::uint32_t chain_length = 0;
  std::uint32_t gate_count = 1;  ///< source gates this op covers

  double angle(std::span<const double> params) const {
    return param_slot < 0 ? fixed_angle
                          : params[static_cast<std::size_t>(param_slot)];
  }
};

/// Immutable compiled form of one circuit structure. Thread-safe to execute
/// concurrently (plans hold no mutable state).
class ExecutionPlan {
 public:
  std::size_t num_qubits() const { return num_qubits_; }
  std::size_t parameter_count() const { return parameter_count_; }
  /// Ops in the source circuit before lowering.
  std::size_t source_op_count() const { return source_op_count_; }
  /// Source ops removed by exact involution cancellation.
  std::size_t cancelled_op_count() const { return cancelled_op_count_; }

  std::span<const PlanOp> flat_ops() const { return flat_ops_; }
  std::span<const FusedOp> fused_ops() const { return fused_ops_; }
  std::span<const ChainGate> chain_gates() const { return chain_gates_; }

  /// FNV-1a 64-bit over the structural key (cache key).
  std::uint64_t structure_hash() const { return structure_hash_; }
  /// Canonical structural string the hash is taken over; exact-compared on
  /// cache lookup so hash collisions can never alias two structures.
  const std::string& structure_key() const { return structure_key_; }

  /// Executes the fused scalar stream. Outputs agree with the reference
  /// backend's per-op loop to the golden-suite tolerance, and their bits
  /// are pinned by the golden digest tables; chains of one gate and
  /// two-qubit ops dispatch through apply_gate.
  void run(StateVector& state, std::span<const double> params) const;

  /// Executes the FUSED stream with the batched SoA kernels (DESIGN.md
  /// §14): the same fused ops run() dispatches, so every batch row is
  /// bit-identical to the scalar compiled path. Angles and their trig come
  /// from `angles`, loaded from the batch's parameter rows.
  void run_batch(StateVectorBatch& batch,
                 const BatchAngleTable& angles) const;

 private:
  friend std::shared_ptr<const ExecutionPlan> compile_circuit(const Circuit&);

  std::size_t num_qubits_ = 0;
  std::size_t parameter_count_ = 0;
  std::size_t source_op_count_ = 0;
  std::size_t cancelled_op_count_ = 0;
  std::vector<PlanOp> flat_ops_;
  std::vector<FusedOp> fused_ops_;
  std::vector<ChainGate> chain_gates_;
  std::uint64_t structure_hash_ = 0;
  std::string structure_key_;
};

/// Lowers `circuit` to a fresh plan, bypassing the cache (tests/tools; hot
/// paths go through plan_cache::get_or_compile via Circuit::compiled_plan).
std::shared_ptr<const ExecutionPlan> compile_circuit(const Circuit& circuit);

/// Point-in-time counters of the process-wide plan cache.
struct PlanCacheStats {
  std::uint64_t hits = 0;        ///< lookups served by a cached plan
  std::uint64_t misses = 0;      ///< lookups that had to compile
  std::uint64_t evictions = 0;   ///< plans dropped (capacity or fault site)
  std::uint64_t compiled = 0;    ///< total compilations (== misses)
  std::size_t size = 0;          ///< plans currently resident
  std::size_t capacity = 0;      ///< eviction threshold
  std::string to_string() const;
};

namespace plan_cache {

/// Returns the cached plan for the circuit's structure, compiling and
/// inserting on miss. Lookups verify the full structural key, not just the
/// hash. Thread-safe: misses compile under the cache lock, so every
/// structure is compiled exactly once per residency no matter how many
/// threads race on first touch.
std::shared_ptr<const ExecutionPlan> get_or_compile(const Circuit& circuit);

/// Copies the current counters.
PlanCacheStats stats();

/// Zeroes hit/miss/eviction counters (tests / bench epochs); resident plans
/// stay cached.
void reset_stats();

/// Drops every resident plan (counted as evictions).
void clear();

/// Plans currently resident.
std::size_t size();

/// Test override for the eviction threshold; nullopt restores the default
/// of 64 plans. Shrinking below the resident count evicts
/// least-recently-used plans immediately.
void set_capacity(std::optional<std::size_t> capacity);

}  // namespace plan_cache
}  // namespace qhdl::quantum
