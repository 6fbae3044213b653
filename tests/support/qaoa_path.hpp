#pragma once
// Shared by tests and benches: depth-p QAOA for MaxCut on a path graph and
// the cut of its middle wire after its last cost-layer interaction, which
// leaves an n-qubit and a 1-qubit fragment (the shape of a parameter sweep).

#include "circuit/circuit.hpp"
#include "circuit/dag.hpp"

namespace qcut::circuit {

/// Depth-`depth` QAOA ansatz for MaxCut on the `num_qubits`-vertex path:
/// layer l applies RZZ(gamma * (1 + 0.1 l)) on every edge, then RX(2 beta)
/// on every qubit.
inline Circuit qaoa_path(int num_qubits, int depth, double gamma, double beta) {
  Circuit c(num_qubits);
  for (int q = 0; q < num_qubits; ++q) c.h(q);
  for (int layer = 0; layer < depth; ++layer) {
    for (int q = 0; q + 1 < num_qubits; ++q) {
      c.append(GateKind::RZZ, {q, q + 1}, {gamma * (1.0 + 0.1 * layer)});
    }
    for (int q = 0; q < num_qubits; ++q) c.rx(2.0 * beta, q);
  }
  return c;
}

/// Cut the middle wire after its last cost-layer interaction.
inline WirePoint middle_cut(const Circuit& c) {
  const int wire = c.num_qubits() / 2;
  std::size_t cut_after = 0;
  for (std::size_t i = 0; i < c.num_ops(); ++i) {
    const auto& op = c.op(i);
    if (op.kind == GateKind::RZZ && op.acts_on(wire)) cut_after = i;
  }
  return WirePoint{wire, cut_after};
}

}  // namespace qcut::circuit
