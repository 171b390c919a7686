#include "quantum/exec_plan.hpp"

#include <bit>
#include <cstdio>
#include <list>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "quantum/circuit.hpp"
#include "quantum/kernels.hpp"
#include "quantum/statevector_batch.hpp"
#include "util/fault_injection.hpp"

namespace qhdl::quantum {

KernelClass kernel_class_for(GateType type) {
  // Mirrors apply_gate_specialized's dispatch switch (gates.cpp).
  switch (type) {
    case GateType::PauliZ:
    case GateType::S:
    case GateType::T:
    case GateType::RZ:
    case GateType::PhaseShift:
    case GateType::CZ:
      return KernelClass::Diagonal;
    case GateType::RX:
    case GateType::RY:
      return KernelClass::RealRotation;
    case GateType::PauliX:
    case GateType::CNOT:
    case GateType::SWAP:
      return KernelClass::Permutation;
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ:
      return KernelClass::Controlled;
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ:
      return KernelClass::DoubleFlip;
    case GateType::PauliY:
    case GateType::Hadamard:
      return KernelClass::Generic;
  }
  return KernelClass::Generic;
}

namespace {

/// True for gates whose square is the exact identity permutation/sign flip
/// on amplitudes, so an adjacent pair can be dropped without changing a
/// single bit of any downstream value. Hadamard is deliberately excluded:
/// H·H only equals identity up to 1/√2 rounding. PauliY is excluded too
/// (its dense matvec rounds through ±i multiplies).
bool cancels_exactly_with_self(GateType type) {
  switch (type) {
    case GateType::PauliX:
    case GateType::PauliZ:
    case GateType::CNOT:
    case GateType::CZ:
    case GateType::SWAP:
      return true;
    default:
      return false;
  }
}

/// True when wires match closely enough for an exact self-cancellation:
/// CNOT needs identical (control, target); CZ/SWAP are wire-symmetric.
bool wires_cancel(const PlanOp& a, const PlanOp& b) {
  if (a.wire0 == b.wire0 && a.wire1 == b.wire1) return true;
  if (a.type == GateType::CZ || a.type == GateType::SWAP) {
    return a.wire0 == b.wire1 && a.wire1 == b.wire0;
  }
  return false;
}

/// Dense 4x4 for a fixed-angle two-qubit gate in the (wire0, wire1) local
/// basis (index = bit_{wire0} << 1 | bit_{wire1}).
Mat4 two_qubit_matrix_for(GateType type, double theta) {
  Mat4 m{};
  const Complex one{1.0, 0.0};
  switch (type) {
    case GateType::CNOT:
      m.m[0][0] = one;
      m.m[1][1] = one;
      m.m[2][3] = one;
      m.m[3][2] = one;
      return m;
    case GateType::CZ:
      m.m[0][0] = one;
      m.m[1][1] = one;
      m.m[2][2] = one;
      m.m[3][3] = Complex{-1.0, 0.0};
      return m;
    case GateType::SWAP:
      m.m[0][0] = one;
      m.m[1][2] = one;
      m.m[2][1] = one;
      m.m[3][3] = one;
      return m;
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ: {
      const Mat2 u = gates::matrix_for(type, theta);
      m.m[0][0] = one;
      m.m[1][1] = one;
      m.m[2][2] = u.m00;
      m.m[2][3] = u.m01;
      m.m[3][2] = u.m10;
      m.m[3][3] = u.m11;
      return m;
    }
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ: {
      const gates::IsingPair pair = gates::ising_pair(type, theta);
      // Even-parity block couples |00⟩ (local 0) with |11⟩ (local 3), the
      // odd block couples |01⟩ (local 1, wire0's bit low) with |10⟩.
      m.m[0][0] = pair.even.m00;
      m.m[0][3] = pair.even.m01;
      m.m[3][0] = pair.even.m10;
      m.m[3][3] = pair.even.m11;
      m.m[1][1] = pair.odd.m00;
      m.m[1][2] = pair.odd.m01;
      m.m[2][1] = pair.odd.m10;
      m.m[2][2] = pair.odd.m11;
      return m;
    }
    default:
      throw std::invalid_argument("two_qubit_matrix_for: " + gate_name(type) +
                                  " is not a two-qubit gate");
  }
}

/// Re-expresses a 4x4 given in (b, a) wire order in (a, b) order: local
/// basis bits swap, i.e. indices 1 and 2 transpose in both dimensions.
Mat4 swap_wire_order(const Mat4& m) {
  constexpr int perm[4] = {0, 2, 1, 3};
  Mat4 out;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) out.m[r][c] = m.m[perm[r]][perm[c]];
  }
  return out;
}

std::uint64_t fnv1a64(const std::string& text) {
  // Same FNV-1a scheme as search::sweep_config_hash (checkpoint.cpp).
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Canonical structural string for a circuit: qubit count plus, per op,
/// gate type, wires, and parameter slot or exact fixed-angle bits. Two
/// circuits compile to interchangeable plans iff their keys match.
std::string build_structure_key(const Circuit& circuit) {
  std::ostringstream oss;
  oss << "q" << circuit.num_qubits();
  for (const Op& op : circuit.ops()) {
    oss << "|" << static_cast<int>(op.type) << ":" << op.wire0;
    if (op.wire1 != SIZE_MAX) oss << "," << op.wire1;
    if (op.param_index.has_value()) {
      oss << ":p" << *op.param_index;
    } else {
      // Exact bit pattern, immune to locale and formatting-precision drift.
      char bits[17];
      std::snprintf(bits, sizeof bits, "%016llx",
                    static_cast<unsigned long long>(
                        std::bit_cast<std::uint64_t>(op.fixed_angle)));
      oss << ":f" << bits;
    }
  }
  return oss.str();
}

/// Deferred single-qubit gates on one wire during fused-stream lowering.
struct CompileChain {
  std::vector<ChainGate> gates;
  bool all_fixed = true;
};

void flush_chain(std::vector<FusedOp>& fused, std::vector<ChainGate>& pool,
                 CompileChain& chain, std::size_t wire) {
  if (chain.gates.empty()) return;
  FusedOp op;
  op.wire0 = wire;
  op.gate_count = static_cast<std::uint32_t>(chain.gates.size());
  if (chain.gates.size() == 1) {
    const ChainGate& g = chain.gates.front();
    op.kind = FusedOp::Kind::Single;
    op.type = g.type;
    op.param_slot = g.param_slot;
    op.fixed_angle = g.fixed_angle;
    op.kernel = kernel_class_for(g.type);
  } else if (chain.all_fixed) {
    // Precompute the product once; later gates multiply from the left,
    // the order runtime chains use too.
    Mat2 matrix =
        gates::matrix_for(chain.gates[0].type, chain.gates[0].fixed_angle);
    bool all_diagonal = kernel_class_for(chain.gates[0].type) ==
                        KernelClass::Diagonal;
    for (std::size_t i = 1; i < chain.gates.size(); ++i) {
      matrix = gates::matrix_for(chain.gates[i].type,
                                 chain.gates[i].fixed_angle) *
               matrix;
      all_diagonal = all_diagonal && kernel_class_for(chain.gates[i].type) ==
                                         KernelClass::Diagonal;
    }
    if (all_diagonal) {
      op.kind = FusedOp::Kind::DiagonalChain;
      op.d0 = matrix.m00;
      op.d1 = matrix.m11;
      op.kernel = KernelClass::Diagonal;
    } else {
      op.kind = FusedOp::Kind::FixedChain;
      op.matrix = matrix;
      op.kernel = KernelClass::Generic;
    }
  } else {
    op.kind = FusedOp::Kind::Chain;
    op.chain_begin = static_cast<std::uint32_t>(pool.size());
    op.chain_length = static_cast<std::uint32_t>(chain.gates.size());
    op.kernel = KernelClass::Generic;
    pool.insert(pool.end(), chain.gates.begin(), chain.gates.end());
  }
  fused.push_back(op);
  chain.gates.clear();
  chain.all_fixed = true;
}

}  // namespace

std::shared_ptr<const ExecutionPlan> compile_circuit(const Circuit& circuit) {
  auto plan = std::make_shared<ExecutionPlan>();
  plan->num_qubits_ = circuit.num_qubits();
  plan->parameter_count_ = circuit.parameter_count();
  plan->source_op_count_ = circuit.op_count();
  plan->structure_key_ = build_structure_key(circuit);
  plan->structure_hash_ = fnv1a64(plan->structure_key_);

  // 1. Flat stream: resolve params/kernels, peephole-cancel exact
  //    involution pairs (stack scan reaches the fixpoint in one pass).
  std::vector<PlanOp>& flat = plan->flat_ops_;
  flat.reserve(circuit.op_count());
  for (const Op& op : circuit.ops()) {
    PlanOp lowered;
    lowered.type = op.type;
    lowered.wire0 = op.wire0;
    lowered.wire1 = op.wire1;
    lowered.param_slot = op.param_index.has_value()
                             ? static_cast<std::int64_t>(*op.param_index)
                             : -1;
    lowered.fixed_angle = op.fixed_angle;
    lowered.kernel = kernel_class_for(op.type);
    if (!flat.empty() && cancels_exactly_with_self(op.type) &&
        flat.back().type == op.type && wires_cancel(flat.back(), lowered)) {
      flat.pop_back();
      continue;
    }
    flat.push_back(lowered);
  }
  plan->cancelled_op_count_ = circuit.op_count() - flat.size();

  // 2. Fused stream: defer single-qubit gates per wire, once, at compile
  //    time (see FusedOp for the emission order).
  std::vector<CompileChain> pending(plan->num_qubits_);
  for (const PlanOp& op : flat) {
    if (gate_arity(op.type) == 1) {
      CompileChain& chain = pending[op.wire0];
      chain.gates.push_back(
          ChainGate{op.type, op.param_slot, op.fixed_angle});
      chain.all_fixed = chain.all_fixed && op.param_slot < 0;
      continue;
    }
    flush_chain(plan->fused_ops_, plan->chain_gates_, pending[op.wire0],
                op.wire0);
    flush_chain(plan->fused_ops_, plan->chain_gates_, pending[op.wire1],
                op.wire1);
    // Angle-independent two-qubit gates adjacent on the same wire pair
    // collapse into one precomputed 4x4.
    FusedOp* prev =
        plan->fused_ops_.empty() ? nullptr : &plan->fused_ops_.back();
    const bool prev_fusable =
        prev != nullptr &&
        (prev->kind == FusedOp::Kind::FusedPair ||
         (prev->kind == FusedOp::Kind::TwoQubit && prev->param_slot < 0)) &&
        ((prev->wire0 == op.wire0 && prev->wire1 == op.wire1) ||
         (prev->wire0 == op.wire1 && prev->wire1 == op.wire0));
    if (op.param_slot < 0 && prev_fusable) {
      Mat4 base = prev->kind == FusedOp::Kind::FusedPair
                      ? prev->matrix4
                      : two_qubit_matrix_for(prev->type, prev->fixed_angle);
      Mat4 next = two_qubit_matrix_for(op.type, op.fixed_angle);
      if (prev->wire0 != op.wire0) next = swap_wire_order(next);
      prev->kind = FusedOp::Kind::FusedPair;
      prev->matrix4 = next * base;
      prev->kernel = KernelClass::Generic;
      prev->param_slot = -1;
      ++prev->gate_count;
      continue;
    }
    FusedOp two;
    two.kind = FusedOp::Kind::TwoQubit;
    two.type = op.type;
    two.wire0 = op.wire0;
    two.wire1 = op.wire1;
    two.param_slot = op.param_slot;
    two.fixed_angle = op.fixed_angle;
    two.kernel = op.kernel;
    plan->fused_ops_.push_back(two);
  }
  for (std::size_t wire = 0; wire < plan->num_qubits_; ++wire) {
    flush_chain(plan->fused_ops_, plan->chain_gates_, pending[wire], wire);
  }
  return plan;
}

void ExecutionPlan::run(StateVector& state,
                        std::span<const double> params) const {
  for (const FusedOp& op : fused_ops_) {
    switch (op.kind) {
      case FusedOp::Kind::Single:
        apply_gate(state, op.type, op.angle(params), op.wire0);
        break;
      case FusedOp::Kind::Chain: {
        // Later gates multiply from the left, the same order as the
        // precomputed fixed chains and the batched per-row products.
        const ChainGate* gates = &chain_gates_[op.chain_begin];
        Mat2 matrix =
            gates::matrix_for(gates[0].type, gates[0].angle(params));
        for (std::uint32_t i = 1; i < op.chain_length; ++i) {
          matrix =
              gates::matrix_for(gates[i].type, gates[i].angle(params)) *
              matrix;
        }
        state.apply_single_qubit(matrix, op.wire0);
        kernels::count_fused(op.chain_length);
        break;
      }
      case FusedOp::Kind::FixedChain:
        state.apply_single_qubit(op.matrix, op.wire0);
        kernels::count_fused(op.gate_count);
        break;
      case FusedOp::Kind::DiagonalChain:
        state.apply_diagonal(op.d0, op.d1, op.wire0);
        kernels::count_fused(op.gate_count);
        break;
      case FusedOp::Kind::TwoQubit:
        apply_gate(state, op.type, op.angle(params), op.wire0, op.wire1);
        break;
      case FusedOp::Kind::FusedPair:
        state.apply_two_qubit(op.matrix4, op.wire0, op.wire1);
        kernels::count_fused(op.gate_count);
        break;
    }
  }
}

void ExecutionPlan::run_batch(StateVectorBatch& batch,
                              const BatchAngleTable& angles) const {
  // Executes the FUSED stream — the same ops ExecutionPlan::run dispatches
  // — so every batch row reproduces the scalar compiled path bit-for-bit
  // and the fused chains feed the batched SIMD kernels (DESIGN.md §14).
  // A chain whose angles all agree across rows is one shared 2x2 product;
  // otherwise each row gets its own product, built in run()'s
  // left-multiplication order from factors made once per batch for the
  // row-independent gates and once per row for the others.
  if (angles.rows() != batch.batch() ||
      angles.slots() != parameter_count_) {
    throw std::invalid_argument(
        "ExecutionPlan::run_batch: angle table does not match the batch");
  }
  const std::size_t rows = batch.batch();
  thread_local std::vector<Mat2> factors;
  thread_local std::vector<Mat2> row_mats;
  // Factor of chain gate `g` for table entry `entry` (0 when shared).
  const auto factor = [&](const ChainGate& g, std::size_t entry) {
    if (g.param_slot < 0) return gates::matrix_for(g.type, g.fixed_angle);
    const auto slot = static_cast<std::size_t>(g.param_slot);
    if (is_half_angle_rotation(g.type)) {
      return gates::rotation_matrix(g.type, angles.cos_half(slot)[entry],
                                    angles.sin_half(slot)[entry]);
    }
    return gates::matrix_for(g.type, angles.angles(slot)[entry]);
  };
  const auto per_row = [&](const ChainGate& g) {
    return g.param_slot >= 0 &&
           !angles.shared(static_cast<std::size_t>(g.param_slot));
  };
  for (const FusedOp& op : fused_ops_) {
    switch (op.kind) {
      case FusedOp::Kind::Single:
      case FusedOp::Kind::TwoQubit:
        apply_gate_batch(batch, op.type, angles, op.param_slot,
                         op.fixed_angle, op.wire0, op.wire1);
        break;
      case FusedOp::Kind::Chain: {
        const ChainGate* gates = &chain_gates_[op.chain_begin];
        bool all_shared = true;
        factors.resize(op.chain_length);
        for (std::uint32_t i = 0; i < op.chain_length; ++i) {
          if (per_row(gates[i])) {
            all_shared = false;
          } else {
            factors[i] = factor(gates[i], 0);
          }
        }
        if (all_shared) {
          Mat2 matrix = factors[0];
          for (std::uint32_t i = 1; i < op.chain_length; ++i) {
            matrix = factors[i] * matrix;
          }
          batch.apply_single_qubit(matrix, op.wire0);
        } else {
          row_mats.resize(rows);
          for (std::size_t b = 0; b < rows; ++b) {
            Mat2 matrix = per_row(gates[0]) ? factor(gates[0], b) : factors[0];
            for (std::uint32_t i = 1; i < op.chain_length; ++i) {
              matrix =
                  (per_row(gates[i]) ? factor(gates[i], b) : factors[i]) *
                  matrix;
            }
            row_mats[b] = matrix;
          }
          batch.apply_single_qubit_per_row(row_mats, op.wire0);
        }
        kernels::count_fused(op.chain_length);
        break;
      }
      case FusedOp::Kind::FixedChain:
        batch.apply_single_qubit(op.matrix, op.wire0);
        kernels::count_fused(op.gate_count);
        break;
      case FusedOp::Kind::DiagonalChain:
        batch.apply_diagonal(op.d0, op.d1, op.wire0);
        kernels::count_fused(op.gate_count);
        break;
      case FusedOp::Kind::FusedPair:
        batch.apply_two_qubit(op.matrix4, op.wire0, op.wire1);
        kernels::count_fused(op.gate_count);
        break;
    }
  }
}

std::string PlanCacheStats::to_string() const {
  std::ostringstream oss;
  oss << "plan cache: hits=" << hits << " misses=" << misses
      << " compiled=" << compiled << " evictions=" << evictions
      << " resident=" << size << "/" << capacity;
  return oss.str();
}

namespace plan_cache {

namespace {

struct CacheEntry {
  std::string key;
  std::shared_ptr<const ExecutionPlan> plan;
  std::uint64_t last_used = 0;
};

struct Cache {
  std::mutex mutex;
  // Hash → entries with that hash (collision bucket; full keys compared).
  std::unordered_map<std::uint64_t, std::vector<CacheEntry>> buckets;
  std::size_t resident = 0;
  std::uint64_t tick = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t compiled = 0;
  std::optional<std::size_t> capacity_override;

  std::size_t capacity() const { return capacity_override.value_or(64); }

  /// Drops least-recently-used entries until `resident` <= `limit`.
  /// Caller holds the mutex.
  void evict_down_to(std::size_t limit) {
    while (resident > limit) {
      std::uint64_t oldest_hash = 0;
      std::size_t oldest_index = 0;
      std::uint64_t oldest_tick = UINT64_MAX;
      for (const auto& [hash, entries] : buckets) {
        for (std::size_t i = 0; i < entries.size(); ++i) {
          if (entries[i].last_used < oldest_tick) {
            oldest_tick = entries[i].last_used;
            oldest_hash = hash;
            oldest_index = i;
          }
        }
      }
      auto& entries = buckets[oldest_hash];
      entries.erase(entries.begin() +
                    static_cast<std::ptrdiff_t>(oldest_index));
      if (entries.empty()) buckets.erase(oldest_hash);
      --resident;
      ++evictions;
    }
  }

  void drop_all() {
    evictions += resident;
    buckets.clear();
    resident = 0;
  }
};

Cache& cache() {
  static Cache instance;
  return instance;
}

}  // namespace

std::shared_ptr<const ExecutionPlan> get_or_compile(const Circuit& circuit) {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mutex);
  // Deterministic fault site: plan=evict@N flushes the whole cache on the
  // N-th lookup, forcing a rehash + recompile (results must not change).
  if (util::FaultInjector::instance().plan_cache_evict()) {
    c.drop_all();
  }
  const std::string key = build_structure_key(circuit);
  const std::uint64_t hash = fnv1a64(key);
  auto bucket = c.buckets.find(hash);
  if (bucket != c.buckets.end()) {
    for (CacheEntry& entry : bucket->second) {
      if (entry.key == key) {
        ++c.hits;
        entry.last_used = ++c.tick;
        return entry.plan;
      }
    }
  }
  ++c.misses;
  // Compiling under the lock serializes first-touch per structure but
  // guarantees exactly one resident plan and one compile per miss.
  std::shared_ptr<const ExecutionPlan> plan = compile_circuit(circuit);
  ++c.compiled;
  CacheEntry entry;
  entry.key = key;
  entry.plan = plan;
  entry.last_used = ++c.tick;
  c.buckets[hash].push_back(std::move(entry));
  ++c.resident;
  c.evict_down_to(c.capacity());
  return plan;
}

PlanCacheStats stats() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mutex);
  PlanCacheStats snapshot;
  snapshot.hits = c.hits;
  snapshot.misses = c.misses;
  snapshot.evictions = c.evictions;
  snapshot.compiled = c.compiled;
  snapshot.size = c.resident;
  snapshot.capacity = c.capacity();
  return snapshot;
}

void reset_stats() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mutex);
  c.hits = 0;
  c.misses = 0;
  c.evictions = 0;
  c.compiled = 0;
}

void clear() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mutex);
  c.drop_all();
}

std::size_t size() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mutex);
  return c.resident;
}

void set_capacity(std::optional<std::size_t> capacity) {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mutex);
  c.capacity_override = capacity;
  c.evict_down_to(c.capacity());
}

}  // namespace plan_cache
}  // namespace qhdl::quantum
