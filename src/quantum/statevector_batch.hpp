// Structure-of-arrays batch of state vectors.
//
// Stores B states of 2^n amplitudes with layout amps[i*B + b] (amplitude
// index major, batch row minor), so every gate kernel walks contiguous
// memory: the pair update for amplitude indices (i0, i1) touches two dense
// runs of B complex numbers. This is what makes the hybrid layer's batch
// forward/backward (one circuit, many samples) cache-friendly — the
// per-row StateVector path re-derives the same gate matrices and strides
// 2^n-sized vectors once per sample.
//
// Two kernel flavors per gate family:
//   * shared — one matrix/angle for every row (ansatz weights, fixed gates);
//     trig and matrix construction happen once for the whole batch;
//   * per-row — independent angle per row (data-encoding gates).
// Arithmetic per row is identical to the scalar StateVector kernels (same
// operations in the same order), so batch results match the per-row path
// bit-for-bit regardless of how the batch is chunked.
//
// The hottest kernels (dense 2x2, diagonal, CNOT, dense 4x4, expval-Z,
// batched inner products) are registry-dispatched through
// util::simd::ops() (DESIGN.md §14): the active backend vectorizes ACROSS
// the contiguous batch lanes, which cannot change any per-lane rounding.
#pragma once

#include <span>
#include <vector>

#include "quantum/statevector.hpp"

namespace qhdl::quantum {

class StateVectorBatch {
 public:
  /// B copies of |0...0⟩.
  StateVectorBatch(std::size_t num_qubits, std::size_t batch);

  std::size_t num_qubits() const { return num_qubits_; }
  std::size_t batch() const { return batch_; }
  std::size_t dimension() const { return dimension_; }

  /// Raw SoA storage (index i, row b at position i*batch() + b).
  std::span<Complex> amplitudes() { return amplitudes_; }
  std::span<const Complex> amplitudes() const { return amplitudes_; }

  /// Resets to `rows` rows of |0...0⟩. Storage only grows, so a batch
  /// never allocates to shrink, or to regrow up to the most rows it has
  /// held.
  void reset(std::size_t rows);

  /// Copies the amplitudes of another batch (same shape) into this one.
  void assign_from(const StateVectorBatch& other);

  /// AoS bridge for tests / row-level fallbacks.
  StateVector extract_row(std::size_t row) const;
  void set_row(std::size_t row, const StateVector& state);

  // --- shared-matrix kernels (one gate for all rows) ---------------------
  void apply_single_qubit(const Mat2& gate, std::size_t wire);
  void apply_diagonal(Complex d0, Complex d1, std::size_t wire);
  void apply_rx_fast(double c, double s, std::size_t wire);
  void apply_ry_fast(double c, double s, std::size_t wire);
  void apply_pauli_x(std::size_t wire);
  void apply_cnot(std::size_t control, std::size_t target);
  void apply_cz(std::size_t control, std::size_t target);
  void apply_swap(std::size_t wire_a, std::size_t wire_b);
  void apply_controlled(const Mat2& gate, std::size_t control,
                        std::size_t target);
  void apply_controlled_derivative(const Mat2& gate, std::size_t control,
                                   std::size_t target);
  void apply_double_flip_pairs(const Mat2& even_pair, const Mat2& odd_pair,
                               std::size_t wire_a, std::size_t wire_b);
  /// Dense 4x4 two-qubit unitary on |wire_a wire_b⟩, same basis order and
  /// row formula as StateVector::apply_two_qubit (used by the compiled
  /// plan's FusedPair ops).
  void apply_two_qubit(const Mat4& gate, std::size_t wire_a,
                       std::size_t wire_b);

  // --- per-row kernels (independent gate per row; spans sized batch()) ---
  void apply_single_qubit_per_row(std::span<const Mat2> gates,
                                  std::size_t wire);
  void apply_diagonal_per_row(std::span<const Complex> d0,
                              std::span<const Complex> d1, std::size_t wire);
  void apply_rx_fast_per_row(std::span<const double> c,
                             std::span<const double> s, std::size_t wire);
  void apply_ry_fast_per_row(std::span<const double> c,
                             std::span<const double> s, std::size_t wire);
  void apply_controlled_per_row(std::span<const Mat2> gates,
                                std::size_t control, std::size_t target);
  void apply_controlled_derivative_per_row(std::span<const Mat2> gates,
                                           std::size_t control,
                                           std::size_t target);
  void apply_double_flip_pairs_per_row(std::span<const Mat2> even_pairs,
                                       std::span<const Mat2> odd_pairs,
                                       std::size_t wire_a, std::size_t wire_b);

  // --- reductions --------------------------------------------------------
  /// out[b] = ⟨Z_wire⟩ of row b (accumulated in amplitude-index order, the
  /// same order the scalar path uses).
  void expval_pauli_z(std::size_t wire, std::span<double> out) const;

  /// out[b] = Re⟨this_b|other_b⟩, index-order accumulation per row.
  void inner_products_real(const StateVectorBatch& other,
                           std::span<double> out) const;

 private:
  void check_wire(std::size_t wire, const char* context) const;
  void check_rows(std::size_t span_size, const char* context) const;

  std::size_t num_qubits_;
  std::size_t batch_;
  std::size_t dimension_;
  std::vector<Complex> amplitudes_;
};

}  // namespace qhdl::quantum
