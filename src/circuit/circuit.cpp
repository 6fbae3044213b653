#include "circuit/circuit.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "linalg/ops.hpp"

namespace qcut::circuit {

CMat Operation::matrix() const {
  return kind == GateKind::Custom ? custom : gate_matrix(kind, params);
}

bool Operation::acts_on(int q) const noexcept {
  return std::find(qubits.begin(), qubits.end(), q) != qubits.end();
}

Circuit::Circuit(int num_qubits) : num_qubits_(num_qubits) {
  QCUT_CHECK(num_qubits >= 1, "Circuit: need at least one qubit");
  QCUT_CHECK(num_qubits <= kMaxQubits, "Circuit: widths above 30 qubits are not supported");
}

const Operation& Circuit::op(std::size_t i) const {
  QCUT_CHECK(i < ops_.size(), "Circuit::op: index out of range");
  return ops_[i];
}

void Circuit::validate_qubits(std::span<const int> qubits) const {
  QCUT_CHECK(!qubits.empty(), "Circuit: operation must act on at least one qubit");
  for (int q : qubits) {
    QCUT_CHECK(q >= 0 && q < num_qubits_, "Circuit: qubit index out of range");
  }
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    for (std::size_t j = i + 1; j < qubits.size(); ++j) {
      QCUT_CHECK(qubits[i] != qubits[j], "Circuit: operation qubits must be distinct");
    }
  }
}

Circuit& Circuit::append(GateKind kind, QubitList qubits, ParamList params) {
  QCUT_CHECK(kind != GateKind::Custom, "Circuit::append: use append_custom for Custom gates");
  validate_qubits(qubits);
  QCUT_CHECK(static_cast<int>(qubits.size()) == gate_num_qubits(kind),
             "Circuit::append: wrong qubit count for " + gate_name(kind));
  QCUT_CHECK(static_cast<int>(params.size()) == gate_num_params(kind),
             "Circuit::append: wrong parameter count for " + gate_name(kind));
  Operation op;
  op.kind = kind;
  op.qubits = std::move(qubits);
  op.params = std::move(params);
  ops_.push_back(std::move(op));
  return *this;
}

Circuit& Circuit::append_custom(CMat unitary, QubitList qubits, std::string label,
                                double unitarity_tol) {
  validate_qubits(qubits);
  const std::size_t dim = pow2(static_cast<int>(qubits.size()));
  QCUT_CHECK(unitary.rows() == dim && unitary.cols() == dim,
             "Circuit::append_custom: matrix dimension must be 2^(number of qubits)");
  QCUT_CHECK(linalg::is_unitary(unitary, unitarity_tol),
             "Circuit::append_custom: matrix must be unitary");
  Operation op;
  op.kind = GateKind::Custom;
  op.qubits = std::move(qubits);
  op.custom = std::move(unitary);
  op.label = std::move(label);
  ops_.push_back(std::move(op));
  return *this;
}

Circuit& Circuit::append_remapped(const Operation& op, std::span<const int> new_index_of) {
  QubitList qubits = op.qubits;
  for (int& q : qubits) {
    const auto index = static_cast<std::size_t>(q);
    const int nq = index < new_index_of.size() ? new_index_of[index] : -1;
    QCUT_CHECK(nq >= 0 && nq < num_qubits_,
               "Circuit: op references a qubit without a valid mapping");
    q = nq;
  }
  validate_qubits(qubits);
  ops_.push_back(op);
  ops_.back().qubits = std::move(qubits);
  return *this;
}

Circuit& Circuit::compose(const Circuit& other) {
  QCUT_CHECK(other.num_qubits_ <= num_qubits_,
             "Circuit::compose: other circuit is wider than this circuit");
  ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
  return *this;
}

Circuit& Circuit::compose(const Circuit& other, std::span<const int> qubit_map) {
  QCUT_CHECK(static_cast<int>(qubit_map.size()) == other.num_qubits_,
             "Circuit::compose: qubit_map must cover every qubit of other");
  for (int q : qubit_map) {
    QCUT_CHECK(q >= 0 && q < num_qubits_, "Circuit::compose: mapped qubit out of range");
  }
  ops_.reserve(ops_.size() + other.ops_.size());
  for (const Operation& op : other.ops_) append_remapped(op, qubit_map);
  return *this;
}

Circuit Circuit::inverse() const {
  Circuit inv(num_qubits_);
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    GateInverse gi;
    if (it->kind != GateKind::Custom && gate_inverse(it->kind, it->params, gi)) {
      inv.append(gi.kind, it->qubits, gi.params);
    } else {
      inv.append_custom(linalg::dagger(it->matrix()), it->qubits,
                        it->label.empty() ? "Udg" : it->label + "dg");
    }
  }
  return inv;
}

Circuit Circuit::remapped(std::span<const int> new_index_of, int new_num_qubits) const {
  QCUT_CHECK(static_cast<int>(new_index_of.size()) == num_qubits_,
             "Circuit::remapped: map must cover every qubit");
  Circuit out(new_num_qubits);
  out.reserve(ops_.size());
  for (const Operation& op : ops_) out.append_remapped(op, new_index_of);
  return out;
}

Circuit Circuit::slice(std::size_t begin, std::size_t end) const {
  QCUT_CHECK(begin <= end && end <= ops_.size(), "Circuit::slice: invalid range");
  Circuit out(num_qubits_);
  out.ops_.assign(ops_.begin() + static_cast<std::ptrdiff_t>(begin),
                  ops_.begin() + static_cast<std::ptrdiff_t>(end));
  return out;
}

int Circuit::depth() const {
  std::vector<int> layer_of_qubit(static_cast<std::size_t>(num_qubits_), 0);
  int depth = 0;
  for (const Operation& op : ops_) {
    int layer = 0;
    for (int q : op.qubits) layer = std::max(layer, layer_of_qubit[static_cast<std::size_t>(q)]);
    ++layer;
    for (int q : op.qubits) layer_of_qubit[static_cast<std::size_t>(q)] = layer;
    depth = std::max(depth, layer);
  }
  return depth;
}

std::size_t Circuit::two_qubit_op_count() const {
  std::size_t n = 0;
  for (const Operation& op : ops_) {
    if (op.num_qubits() >= 2) ++n;
  }
  return n;
}

std::vector<std::size_t> Circuit::ops_on_qubit(int q) const {
  QCUT_CHECK(q >= 0 && q < num_qubits_, "Circuit::ops_on_qubit: qubit out of range");
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].acts_on(q)) out.push_back(i);
  }
  return out;
}

namespace {

/// Bit-pattern double equality: the strictness the variant cache key uses
/// (hash_variant_execution hashes exact bit patterns), so "same prefix"
/// can never alias two executions the cache would distinguish.
bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

bool same_operation(const Operation& a, const Operation& b) noexcept {
  if (a.kind != b.kind || a.qubits != b.qubits) return false;
  if (a.params.size() != b.params.size()) return false;
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    if (!same_bits(a.params[i], b.params[i])) return false;
  }
  if (a.kind == GateKind::Custom) {
    if (a.custom.rows() != b.custom.rows() || a.custom.cols() != b.custom.cols()) return false;
    for (std::size_t r = 0; r < a.custom.rows(); ++r) {
      for (std::size_t c = 0; c < a.custom.cols(); ++c) {
        if (!same_bits(a.custom(r, c).real(), b.custom(r, c).real()) ||
            !same_bits(a.custom(r, c).imag(), b.custom(r, c).imag())) {
          return false;
        }
      }
    }
  }
  return true;
}

std::size_t common_prefix_ops(const Circuit& a, const Circuit& b) noexcept {
  if (a.num_qubits() != b.num_qubits()) return 0;
  const std::size_t limit = std::min(a.num_ops(), b.num_ops());
  std::size_t n = 0;
  while (n < limit && same_operation(a.ops()[n], b.ops()[n])) ++n;
  return n;
}

std::vector<int> Circuit::active_qubits() const {
  std::vector<bool> seen(static_cast<std::size_t>(num_qubits_), false);
  for (const Operation& op : ops_) {
    for (int q : op.qubits) seen[static_cast<std::size_t>(q)] = true;
  }
  std::vector<int> out;
  for (int q = 0; q < num_qubits_; ++q) {
    if (seen[static_cast<std::size_t>(q)]) out.push_back(q);
  }
  return out;
}

}  // namespace qcut::circuit
