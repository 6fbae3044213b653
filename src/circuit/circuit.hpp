#pragma once
// Circuit intermediate representation.
//
// A Circuit is an ordered list of gate operations on `num_qubits` qubits.
// There are no explicit measurement operations: backends measure every
// qubit in the computational basis at the end of the circuit, which is the
// model the paper's experiments use (bitstring distributions).

#include <span>
#include <string>
#include <vector>

#include "circuit/gate.hpp"

namespace qcut::circuit {

/// One gate application.
struct Operation {
  GateKind kind = GateKind::I;
  QubitList qubits;             // distinct; first listed qubit = LSB of the matrix index
  ParamList params;             // gate_num_params(kind) entries
  CMat custom;                  // only used when kind == Custom
  std::string label;            // optional display label (Custom blocks, annotations)

  /// The unitary matrix of this operation, built on each call (the compile
  /// path reads named gates through gate_matrix_1q/2q/3q instead).
  [[nodiscard]] CMat matrix() const;

  /// Number of qubits this operation touches.
  [[nodiscard]] int num_qubits() const noexcept { return static_cast<int>(qubits.size()); }

  /// True if this operation acts on qubit q.
  [[nodiscard]] bool acts_on(int q) const noexcept;
};

// A circuit is a vector of ops, so their size is its footprint.
static_assert(sizeof(Operation) <= 192, "Operation grew: its lists are meant to stay inline");

/// Execution-semantic equality: same gate kind, qubit wiring, exact
/// parameter bit patterns and (for Custom ops) exact unitary entries.
/// Display labels are ignored — they do not affect execution. This is the
/// equality under which two circuit prefixes may share one simulation.
[[nodiscard]] bool same_operation(const Operation& a, const Operation& b) noexcept;

class Circuit {
 public:
  /// Widest register a circuit may have.
  static constexpr int kMaxQubits = 30;

  /// Circuit on `num_qubits` qubits with no operations.
  explicit Circuit(int num_qubits);

  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] std::size_t num_ops() const noexcept { return ops_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }
  [[nodiscard]] const std::vector<Operation>& ops() const noexcept { return ops_; }
  [[nodiscard]] const Operation& op(std::size_t i) const;

  /// Appends a named gate. Validates qubit indices, distinctness and
  /// parameter count.
  Circuit& append(GateKind kind, QubitList qubits, ParamList params = {});

  /// Appends an arbitrary unitary. The matrix must be square with dimension
  /// 2^{qubits.size()} and unitary within `unitarity_tol`.
  Circuit& append_custom(CMat unitary, QubitList qubits, std::string label = "U",
                         double unitarity_tol = 1e-10);

  /// Appends a copy of `op` (an op of some circuit, so already validated)
  /// with its qubit q renamed to new_index_of[q]. Every renamed qubit must
  /// be a valid, distinct qubit of this circuit. compose(other, map),
  /// remapped() and fragment carving all rename qubits through this.
  Circuit& append_remapped(const Operation& op, std::span<const int> new_index_of);

  /// Makes room for `num_ops` operations in total.
  void reserve(std::size_t num_ops) { ops_.reserve(num_ops); }

  // Convenience builders (chainable).
  Circuit& i(int q) { return append(GateKind::I, {q}); }
  Circuit& x(int q) { return append(GateKind::X, {q}); }
  Circuit& y(int q) { return append(GateKind::Y, {q}); }
  Circuit& z(int q) { return append(GateKind::Z, {q}); }
  Circuit& h(int q) { return append(GateKind::H, {q}); }
  Circuit& s(int q) { return append(GateKind::S, {q}); }
  Circuit& sdg(int q) { return append(GateKind::Sdg, {q}); }
  Circuit& t(int q) { return append(GateKind::T, {q}); }
  Circuit& tdg(int q) { return append(GateKind::Tdg, {q}); }
  Circuit& sx(int q) { return append(GateKind::SX, {q}); }
  Circuit& rx(double theta, int q) { return append(GateKind::RX, {q}, {theta}); }
  Circuit& ry(double theta, int q) { return append(GateKind::RY, {q}, {theta}); }
  Circuit& rz(double theta, int q) { return append(GateKind::RZ, {q}, {theta}); }
  Circuit& p(double lambda, int q) { return append(GateKind::P, {q}, {lambda}); }
  Circuit& u(double theta, double phi, double lambda, int q) {
    return append(GateKind::U, {q}, {theta, phi, lambda});
  }
  Circuit& cx(int control, int target) { return append(GateKind::CX, {control, target}); }
  Circuit& cy(int control, int target) { return append(GateKind::CY, {control, target}); }
  Circuit& cz(int control, int target) { return append(GateKind::CZ, {control, target}); }
  Circuit& ch(int control, int target) { return append(GateKind::CH, {control, target}); }
  Circuit& swap(int a, int b) { return append(GateKind::SWAP, {a, b}); }
  Circuit& crz(double theta, int control, int target) {
    return append(GateKind::CRZ, {control, target}, {theta});
  }
  Circuit& ccx(int c1, int c2, int target) { return append(GateKind::CCX, {c1, c2, target}); }

  /// Appends all operations of `other` (same width required).
  Circuit& compose(const Circuit& other);

  /// Appends all operations of `other` with its qubit j mapped to
  /// qubit_map[j] of this circuit.
  Circuit& compose(const Circuit& other, std::span<const int> qubit_map);

  /// The inverse circuit (reversed order, inverted gates).
  [[nodiscard]] Circuit inverse() const;

  /// Circuit with qubit q renamed to new_index_of[q] on a register of
  /// `new_num_qubits` qubits. Every qubit referenced by an op must map to a
  /// valid, distinct index.
  [[nodiscard]] Circuit remapped(std::span<const int> new_index_of, int new_num_qubits) const;

  /// Sub-circuit with ops [begin, end).
  [[nodiscard]] Circuit slice(std::size_t begin, std::size_t end) const;

  /// Greedy-moment depth (number of layers if ops are left-packed).
  [[nodiscard]] int depth() const;

  /// Number of operations touching >= 2 qubits.
  [[nodiscard]] std::size_t two_qubit_op_count() const;

  /// Indices of ops acting on qubit q, in program order.
  [[nodiscard]] std::vector<std::size_t> ops_on_qubit(int q) const;

  /// Qubits with at least one operation.
  [[nodiscard]] std::vector<int> active_qubits() const;

 private:
  void validate_qubits(std::span<const int> qubits) const;

  int num_qubits_;
  std::vector<Operation> ops_;
};

/// Number of leading operations `a` and `b` share under same_operation.
/// Circuits of different widths share nothing (their basis-state spaces
/// differ even when the op lists coincide).
[[nodiscard]] std::size_t common_prefix_ops(const Circuit& a, const Circuit& b) noexcept;

}  // namespace qcut::circuit
