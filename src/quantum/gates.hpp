// Gate library: fixed gates, parameterized rotations, their adjoints, and
// their parameter derivatives (used by adjoint differentiation).
//
// Conventions follow PennyLane:
//   RX(θ) = exp(-i θ X / 2), RY, RZ analogous;
//   Rot(φ, θ, ω) = RZ(ω) · RY(θ) · RZ(φ)   (RZ(φ) applied first);
//   PhaseShift(θ) = diag(1, e^{iθ});
//   CR*(θ) = |0⟩⟨0|⊗I + |1⟩⟨1|⊗R*(θ).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "quantum/statevector.hpp"

namespace qhdl::quantum {

class StateVectorBatch;

enum class GateType {
  // Fixed single-qubit gates.
  PauliX,
  PauliY,
  PauliZ,
  Hadamard,
  S,
  T,
  // Parameterized single-qubit gates (1 parameter each).
  RX,
  RY,
  RZ,
  PhaseShift,
  // Fixed two-qubit gates.
  CNOT,
  CZ,
  SWAP,
  // Parameterized controlled rotations (1 parameter each).
  CRX,
  CRY,
  CRZ,
  // Parameterized two-qubit Ising rotations exp(-i θ P⊗P / 2).
  RXX,
  RYY,
  RZZ,
};

/// Number of wires the gate acts on (1 or 2).
std::size_t gate_arity(GateType type);

/// True for gates that carry a rotation angle.
bool gate_is_parameterized(GateType type);

/// True for two-qubit gates whose first wire is a control.
bool gate_is_controlled(GateType type);

/// Human-readable name ("RX", "CNOT", ...).
std::string gate_name(GateType type);

namespace gates {

/// Fixed gate matrices.
Mat2 pauli_x();
Mat2 pauli_y();
Mat2 pauli_z();
Mat2 hadamard();
Mat2 s();
Mat2 t();

/// Rotation matrices.
Mat2 rx(double theta);
Mat2 ry(double theta);
Mat2 rz(double theta);
Mat2 phase_shift(double theta);

/// RX / RY / RZ matrix from its half-angle trig: c = cos(θ/2), s = sin(θ/2).
/// rx/ry/rz build through this, so a matrix made from a precomputed
/// (c, s) has the same bits as one made from θ.
Mat2 rotation_matrix(GateType type, double c, double s);

/// Parameter derivatives dU/dθ (non-unitary matrices).
Mat2 rx_derivative(double theta);
Mat2 ry_derivative(double theta);
Mat2 rz_derivative(double theta);
Mat2 phase_shift_derivative(double theta);

/// Matrix for any single-qubit GateType (angle ignored for fixed gates).
Mat2 matrix_for(GateType type, double theta);

/// Ising-gate pair matrices acting on the double-flip amplitude pairs (see
/// StateVector::apply_double_flip_pairs): first = even-parity block
/// (|00⟩↔|11⟩), second = odd-parity block (|01⟩↔|10⟩).
struct IsingPair {
  Mat2 even;
  Mat2 odd;
};
IsingPair ising_pair(GateType type, double theta);
IsingPair ising_pair_derivative(GateType type, double theta);

/// Derivative matrix for a parameterized single-qubit / controlled gate's
/// target factor. Throws std::invalid_argument for fixed gates.
Mat2 derivative_for(GateType type, double theta);

}  // namespace gates

/// Applies `type` (with optional angle) to the state on the given wires.
/// For two-qubit gates wires[0] is the control (or first swap wire).
void apply_gate(StateVector& state, GateType type, double theta,
                std::size_t wire0, std::size_t wire1 = SIZE_MAX);

/// Applies the inverse gate.
void apply_gate_inverse(StateVector& state, GateType type, double theta,
                        std::size_t wire0, std::size_t wire1 = SIZE_MAX);

/// Applies dU/dθ (non-unitary). Only valid for parameterized gates.
void apply_gate_derivative(StateVector& state, GateType type, double theta,
                           std::size_t wire0, std::size_t wire1 = SIZE_MAX);

// --- batched (SoA) dispatch -----------------------------------------------
// `angles` holds either ONE shared angle (size 1 — also pass {0.0} for fixed
// gates) or one angle per batch row (size batch.batch()). Shared angles hit
// the shared kernels (one trig evaluation for the whole batch); per-row
// angles hit the per-row kernel variants. These always use the specialized
// kernels — the reference backend disables the batched layer path upstream
// (callers fall back to per-row StateVector execution).

void apply_gate_batch(StateVectorBatch& batch, GateType type,
                      std::span<const double> angles, std::size_t wire0,
                      std::size_t wire1 = SIZE_MAX);

void apply_gate_inverse_batch(StateVectorBatch& batch, GateType type,
                              std::span<const double> angles,
                              std::size_t wire0, std::size_t wire1 = SIZE_MAX);

/// Only valid for parameterized gates.
void apply_gate_derivative_batch(StateVectorBatch& batch, GateType type,
                                 std::span<const double> angles,
                                 std::size_t wire0,
                                 std::size_t wire1 = SIZE_MAX);

/// True for RX / RY / RZ: the gates whose batched kernels take the
/// half-angle trig (cos θ/2, sin θ/2) directly, so a BatchAngleTable can
/// serve every application of them.
bool is_half_angle_rotation(GateType type);

/// RX / RY / RZ from precomputed half-angle trig: spans of size 1 (shared)
/// or one entry per batch row. The inverse is the same call with the
/// negated sine. Bit-identical to apply_gate_batch with the angle.
void apply_rotation_batch(StateVectorBatch& batch, GateType type,
                          std::span<const double> cos_half,
                          std::span<const double> sin_half, std::size_t wire);

/// dU/dθ of RX / RY / RZ from the same trig; bit-identical to
/// apply_gate_derivative_batch with the angle.
void apply_rotation_derivative_batch(StateVectorBatch& batch, GateType type,
                                     std::span<const double> cos_half,
                                     std::span<const double> sin_half,
                                     std::size_t wire);

/// The angles of a batch of parameter rows, one entry per parameter slot: a
/// single value when every row holds the same angle, one per row otherwise.
/// Each entry's half-angle cosine and sine (and the negated sine the
/// inverse rotation uses) are computed once, on load, so a batched forward
/// and the adjoint sweep after it read one trig table instead of
/// re-deriving the trig at every gate application.
class BatchAngleTable {
 public:
  /// Reads rows [0, rows) of `params` (row b at params[b * stride]) for
  /// slots [0, slots). Allocation-free once the table has held as many
  /// entries.
  void load(std::span<const double> params, std::size_t stride,
            std::size_t rows, std::size_t slots);

  std::size_t rows() const { return rows_; }
  std::size_t slots() const { return begin_.empty() ? 0 : begin_.size() - 1; }
  bool shared(std::size_t slot) const {
    return begin_[slot + 1] - begin_[slot] == 1;
  }
  /// Size 1 when shared(slot), rows() otherwise.
  std::span<const double> angles(std::size_t slot) const {
    return entry(angle_, slot);
  }
  std::span<const double> cos_half(std::size_t slot) const {
    return entry(cos_, slot);
  }
  std::span<const double> sin_half(std::size_t slot) const {
    return entry(sin_, slot);
  }
  std::span<const double> neg_sin_half(std::size_t slot) const {
    return entry(neg_sin_, slot);
  }

 private:
  std::span<const double> entry(const std::vector<double>& values,
                                std::size_t slot) const {
    return {values.data() + begin_[slot], begin_[slot + 1] - begin_[slot]};
  }

  std::size_t rows_ = 0;
  std::vector<std::size_t> begin_;  ///< slot s owns [begin_[s], begin_[s+1])
  std::vector<double> angle_, cos_, sin_, neg_sin_;
};

/// One op of a batched forward: the angle comes from `table` (slot >= 0)
/// or is `fixed_angle`; RX / RY / RZ read the table's trig.
void apply_gate_batch(StateVectorBatch& batch, GateType type,
                      const BatchAngleTable& table, std::int64_t slot,
                      double fixed_angle, std::size_t wire0,
                      std::size_t wire1 = SIZE_MAX);

}  // namespace qhdl::quantum
