// Parameterized quantum circuits.
//
// A Circuit is an ordered op list over `num_qubits` wires. Each op either
// carries a fixed angle or references an index into the runtime parameter
// vector (set at execution). Helper builders add common structures; the QNN
// module builds encoding + ansatz circuits on top of this.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "quantum/gates.hpp"

namespace qhdl::quantum {

class ExecutionPlan;
class StateVectorBatch;

/// One circuit operation.
struct Op {
  GateType type;
  std::size_t wire0 = 0;
  std::size_t wire1 = SIZE_MAX;  ///< SIZE_MAX for single-qubit gates
  /// Index into the runtime parameter vector, or nullopt for a fixed angle.
  std::optional<std::size_t> param_index;
  double fixed_angle = 0.0;

  /// Resolves the angle from the runtime parameters.
  double angle(std::span<const double> params) const;
};

class Circuit {
 public:
  explicit Circuit(std::size_t num_qubits);

  // Copies and moves are explicit because the memoized plan slot is atomic
  // (shareable across concurrently running executors); the slot's value —
  // a pointer into the process-wide plan cache — travels with the circuit.
  Circuit(const Circuit& other);
  Circuit(Circuit&& other) noexcept;
  Circuit& operator=(const Circuit& other);
  Circuit& operator=(Circuit&& other) noexcept;

  std::size_t num_qubits() const { return num_qubits_; }
  std::size_t op_count() const { return ops_.size(); }
  const std::vector<Op>& ops() const { return ops_; }

  /// Number of runtime parameters the circuit expects
  /// (= 1 + max referenced index, or 0 if none).
  std::size_t parameter_count() const { return parameter_count_; }

  /// Count of ops that carry a runtime parameter.
  std::size_t parameterized_op_count() const;

  // --- builders ---------------------------------------------------------

  /// Fixed-angle / angle-free gate.
  Circuit& gate(GateType type, std::size_t wire0,
                std::size_t wire1 = SIZE_MAX, double fixed_angle = 0.0);

  /// Gate whose angle is params[param_index] at execution time.
  Circuit& parameterized_gate(GateType type, std::size_t param_index,
                              std::size_t wire0,
                              std::size_t wire1 = SIZE_MAX);

  /// PennyLane Rot(φ, θ, ω) decomposed as RZ(φ) RY(θ) RZ(ω) (applied in that
  /// order), consuming params [base, base+1, base+2].
  Circuit& rot(std::size_t param_index_base, std::size_t wire);

  // --- execution --------------------------------------------------------

  /// Applies all ops to `state` with the given runtime parameters
  /// (params.size() must equal parameter_count() exactly). A circuit runs
  /// one of exactly two ways: on a production backend it executes its
  /// cached ExecutionPlan (compiled on first use, shared through the
  /// process-wide plan cache — see exec_plan.hpp); on the reference backend
  /// it applies ops one by one through the generic kernels, never touching
  /// the plan compiler, as the independent oracle.
  void run(StateVector& state, std::span<const double> params) const;

  /// Applies all ops to every row of a SoA batch. Row b reads its
  /// parameters from params[b*param_stride, (b+1)*param_stride), and
  /// params.size() must equal batch()*param_stride exactly. Ops whose
  /// angle is identical across rows (fixed angles, shared ansatz weights)
  /// run as one shared kernel with a single sin/cos evaluation; per-row
  /// angles (data encoding) use the per-row kernel variants. Executes the
  /// cached plan's fused op stream, or the op list one op at a time on the
  /// reference backend.
  void run_batch(StateVectorBatch& batch, std::span<const double> params,
                 std::size_t param_stride) const;

  /// Same, on angles already loaded into a table (one row per batch row,
  /// one slot per circuit parameter) — the entry point for callers that
  /// reuse the table's trig after the forward (the batched adjoint).
  void run_batch(StateVectorBatch& batch, const BatchAngleTable& angles) const;

  /// The circuit's compiled plan (never null), memoized per instance and
  /// shared through the process-wide plan cache. Thread-safe; builder
  /// mutations invalidate the memoized slot.
  std::shared_ptr<const ExecutionPlan> compiled_plan() const;

  /// Runs on a fresh |0...0⟩ state and returns it.
  StateVector execute(std::span<const double> params) const;

  /// "RX(p0) q0 ; CNOT q0,q1 ; ..." rendering.
  std::string to_string() const;

  /// Critical-path depth: the longest chain of ops sharing wires (each op
  /// lands at 1 + max(levels of its wires)). 0 for an empty circuit.
  std::size_t depth() const;

  /// Ops per gate type, in a stable (enum) order: pairs (type, count),
  /// only for types that appear.
  std::vector<std::pair<GateType, std::size_t>> gate_histogram() const;

  /// Count of two-qubit ops (entanglers + controlled/Ising rotations).
  std::size_t two_qubit_op_count() const;

 private:
  void check_wires(GateType type, std::size_t wire0, std::size_t wire1) const;

  std::size_t num_qubits_;
  std::vector<Op> ops_;
  std::size_t parameter_count_ = 0;
  /// Memoized compiled plan (nullptr until first compiled execution or
  /// after a builder mutation). Atomic so concurrent run()/run_batch()
  /// calls on one circuit can fill and read it without a lock.
  mutable std::atomic<std::shared_ptr<const ExecutionPlan>> plan_slot_;
};

}  // namespace qhdl::quantum
