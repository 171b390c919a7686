#include "quantum/circuit.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "quantum/exec_plan.hpp"
#include "quantum/kernels.hpp"
#include "quantum/statevector_batch.hpp"

namespace qhdl::quantum {

double Op::angle(std::span<const double> params) const {
  if (!param_index.has_value()) return fixed_angle;
  if (*param_index >= params.size()) {
    throw std::out_of_range("Op::angle: parameter index " +
                            std::to_string(*param_index) +
                            " out of range for " +
                            std::to_string(params.size()) + " parameters");
  }
  return params[*param_index];
}

Circuit::Circuit(std::size_t num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits == 0) {
    throw std::invalid_argument("Circuit: need at least one qubit");
  }
}

Circuit::Circuit(const Circuit& other)
    : num_qubits_(other.num_qubits_),
      ops_(other.ops_),
      parameter_count_(other.parameter_count_),
      plan_slot_(other.plan_slot_.load(std::memory_order_acquire)) {}

Circuit::Circuit(Circuit&& other) noexcept
    : num_qubits_(other.num_qubits_),
      ops_(std::move(other.ops_)),
      parameter_count_(other.parameter_count_),
      plan_slot_(other.plan_slot_.load(std::memory_order_acquire)) {}

Circuit& Circuit::operator=(const Circuit& other) {
  if (this != &other) {
    num_qubits_ = other.num_qubits_;
    ops_ = other.ops_;
    parameter_count_ = other.parameter_count_;
    plan_slot_.store(other.plan_slot_.load(std::memory_order_acquire),
                     std::memory_order_release);
  }
  return *this;
}

Circuit& Circuit::operator=(Circuit&& other) noexcept {
  if (this != &other) {
    num_qubits_ = other.num_qubits_;
    ops_ = std::move(other.ops_);
    parameter_count_ = other.parameter_count_;
    plan_slot_.store(other.plan_slot_.load(std::memory_order_acquire),
                     std::memory_order_release);
  }
  return *this;
}

std::size_t Circuit::parameterized_op_count() const {
  std::size_t count = 0;
  for (const Op& op : ops_) {
    if (op.param_index.has_value()) ++count;
  }
  return count;
}

void Circuit::check_wires(GateType type, std::size_t wire0,
                          std::size_t wire1) const {
  if (wire0 >= num_qubits_) {
    throw std::out_of_range("Circuit: wire " + std::to_string(wire0) +
                            " out of range");
  }
  const std::size_t arity = gate_arity(type);
  if (arity == 2) {
    if (wire1 == SIZE_MAX) {
      throw std::invalid_argument("Circuit: " + gate_name(type) +
                                  " needs two wires");
    }
    if (wire1 >= num_qubits_) {
      throw std::out_of_range("Circuit: wire " + std::to_string(wire1) +
                              " out of range");
    }
    if (wire0 == wire1) {
      throw std::invalid_argument("Circuit: " + gate_name(type) +
                                  " wires must differ");
    }
  } else if (wire1 != SIZE_MAX) {
    throw std::invalid_argument("Circuit: " + gate_name(type) +
                                " takes one wire");
  }
}

Circuit& Circuit::gate(GateType type, std::size_t wire0, std::size_t wire1,
                       double fixed_angle) {
  check_wires(type, wire0, wire1);
  Op op;
  op.type = type;
  op.wire0 = wire0;
  op.wire1 = wire1;
  op.fixed_angle = fixed_angle;
  ops_.push_back(op);
  plan_slot_.store(nullptr, std::memory_order_release);
  return *this;
}

Circuit& Circuit::parameterized_gate(GateType type, std::size_t param_index,
                                     std::size_t wire0, std::size_t wire1) {
  if (!gate_is_parameterized(type)) {
    throw std::invalid_argument("Circuit: " + gate_name(type) +
                                " takes no parameter");
  }
  check_wires(type, wire0, wire1);
  Op op;
  op.type = type;
  op.wire0 = wire0;
  op.wire1 = wire1;
  op.param_index = param_index;
  ops_.push_back(op);
  parameter_count_ = std::max(parameter_count_, param_index + 1);
  plan_slot_.store(nullptr, std::memory_order_release);
  return *this;
}

Circuit& Circuit::rot(std::size_t param_index_base, std::size_t wire) {
  parameterized_gate(GateType::RZ, param_index_base, wire);
  parameterized_gate(GateType::RY, param_index_base + 1, wire);
  parameterized_gate(GateType::RZ, param_index_base + 2, wire);
  return *this;
}

std::shared_ptr<const ExecutionPlan> Circuit::compiled_plan() const {
  std::shared_ptr<const ExecutionPlan> plan =
      plan_slot_.load(std::memory_order_acquire);
  if (plan != nullptr) return plan;
  plan = plan_cache::get_or_compile(*this);
  plan_slot_.store(plan, std::memory_order_release);
  return plan;
}

void Circuit::run(StateVector& state, std::span<const double> params) const {
  if (state.num_qubits() != num_qubits_) {
    throw std::invalid_argument("Circuit::run: state has " +
                                std::to_string(state.num_qubits()) +
                                " qubits, circuit needs " +
                                std::to_string(num_qubits_));
  }
  // Oversized parameter vectors are as much a caller bug as undersized
  // ones (a packing-layout mismatch would silently read garbage angles),
  // so both directions are hard errors.
  if (params.size() != parameter_count_) {
    throw std::invalid_argument("Circuit::run: got " +
                                std::to_string(params.size()) +
                                " params, need exactly " +
                                std::to_string(parameter_count_));
  }
  if (kernels::force_generic()) {
    // Reference backend: the seed's per-op loop, no plan, no fusion.
    for (const Op& op : ops_) {
      apply_gate(state, op.type, op.angle(params), op.wire0, op.wire1);
    }
    return;
  }
  compiled_plan()->run(state, params);
}

void Circuit::run_batch(StateVectorBatch& batch,
                        std::span<const double> params,
                        std::size_t param_stride) const {
  if (batch.num_qubits() != num_qubits_) {
    throw std::invalid_argument("Circuit::run_batch: batch has " +
                                std::to_string(batch.num_qubits()) +
                                " qubits, circuit needs " +
                                std::to_string(num_qubits_));
  }
  if (param_stride < parameter_count_) {
    throw std::invalid_argument("Circuit::run_batch: param_stride " +
                                std::to_string(param_stride) + " < " +
                                std::to_string(parameter_count_) +
                                " circuit parameters");
  }
  const std::size_t rows = batch.batch();
  if (params.size() != rows * param_stride) {
    throw std::invalid_argument("Circuit::run_batch: got " +
                                std::to_string(params.size()) +
                                " params, need exactly " +
                                std::to_string(rows * param_stride));
  }
  thread_local BatchAngleTable angles;
  angles.load(params, param_stride, rows, parameter_count_);
  run_batch(batch, angles);
}

void Circuit::run_batch(StateVectorBatch& batch,
                        const BatchAngleTable& angles) const {
  if (batch.num_qubits() != num_qubits_ || angles.rows() != batch.batch() ||
      angles.slots() != parameter_count_) {
    throw std::invalid_argument(
        "Circuit::run_batch: angle table or batch does not match the "
        "circuit");
  }
  if (kernels::force_generic()) {
    // Reference backend: one batched kernel per op, mirroring the scalar
    // per-op loop row by row.
    for (const Op& op : ops_) {
      const std::int64_t slot =
          op.param_index.has_value()
              ? static_cast<std::int64_t>(*op.param_index)
              : -1;
      apply_gate_batch(batch, op.type, angles, slot, op.fixed_angle,
                       op.wire0, op.wire1);
    }
    return;
  }
  compiled_plan()->run_batch(batch, angles);
}

StateVector Circuit::execute(std::span<const double> params) const {
  StateVector state{num_qubits_};
  run(state, params);
  return state;
}

std::size_t Circuit::depth() const {
  std::vector<std::size_t> wire_level(num_qubits_, 0);
  std::size_t depth = 0;
  for (const Op& op : ops_) {
    std::size_t level = wire_level[op.wire0];
    if (op.wire1 != SIZE_MAX) {
      level = std::max(level, wire_level[op.wire1]);
    }
    ++level;
    wire_level[op.wire0] = level;
    if (op.wire1 != SIZE_MAX) wire_level[op.wire1] = level;
    depth = std::max(depth, level);
  }
  return depth;
}

std::vector<std::pair<GateType, std::size_t>> Circuit::gate_histogram()
    const {
  std::map<GateType, std::size_t> counts;
  for (const Op& op : ops_) ++counts[op.type];
  return {counts.begin(), counts.end()};
}

std::size_t Circuit::two_qubit_op_count() const {
  std::size_t count = 0;
  for (const Op& op : ops_) {
    if (gate_arity(op.type) == 2) ++count;
  }
  return count;
}

std::string Circuit::to_string() const {
  std::ostringstream oss;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (i > 0) oss << " ; ";
    const Op& op = ops_[i];
    oss << gate_name(op.type);
    if (gate_is_parameterized(op.type)) {
      if (op.param_index.has_value()) {
        oss << "(p" << *op.param_index << ")";
      } else {
        oss << "(" << op.fixed_angle << ")";
      }
    }
    oss << " q" << op.wire0;
    if (op.wire1 != SIZE_MAX) oss << ",q" << op.wire1;
  }
  return oss.str();
}

}  // namespace qhdl::quantum
