#pragma once
// The two-fragment split (Section II-B of the paper): an upstream fragment
// f1 and a downstream fragment f2. Execution and reconstruction run on the
// N-fragment chain (cutting/fragment_graph.hpp, one NeglectSpec per
// boundary); make_bipartition is a thin wrapper over the N=2 chain, and the
// Bipartition view is the input of the per-boundary golden detectors
// (golden.hpp, observables.hpp).

#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/dag.hpp"

namespace qcut::cutting {

using circuit::Circuit;
using circuit::WirePoint;

/// One cut wire's identity in both fragments.
struct CutWire {
  int original_qubit = 0;  // qubit index in the uncut circuit
  int f1_qubit = 0;        // local index in f1 (measured tomographically)
  int f2_qubit = 0;        // local index in f2 (re-prepared)
};

/// A validated bipartition of a circuit.
///
/// Measurement roles:
///  * f1 measures all of its qubits; the cut qubits' outcomes are the
///    tomography bits, the rest ("output qubits") are final bits of the
///    uncut circuit.
///  * f2 measures all of its qubits; all are final bits (cut qubits
///    continue downstream and are measured there).
struct Bipartition {
  Circuit f1{1};
  Circuit f2{1};
  std::vector<int> f1_to_original;    // f1 local index -> original qubit (ascending)
  std::vector<int> f2_to_original;    // f2 local index -> original qubit (ascending)
  std::vector<CutWire> cuts;          // in the order the cuts were given
  std::vector<int> f1_output_qubits;  // f1 local indices that are NOT cut wires (ascending)
  int num_original_qubits = 0;

  [[nodiscard]] int num_cuts() const noexcept { return static_cast<int>(cuts.size()); }
  [[nodiscard]] int f1_width() const noexcept { return static_cast<int>(f1_to_original.size()); }
  [[nodiscard]] int f2_width() const noexcept { return static_cast<int>(f2_to_original.size()); }
  [[nodiscard]] int f1_output_width() const noexcept {
    return static_cast<int>(f1_output_qubits.size());
  }

  /// f1-local indices of the cut qubits, in cut order.
  [[nodiscard]] std::vector<int> f1_cut_qubits() const;

  /// f2-local indices of the cut qubits, in cut order.
  [[nodiscard]] std::vector<int> f2_cut_qubits() const;
};

/// Splits `circuit` at `cuts`. Throws qcut::Error (with the reason) if the
/// cuts do not induce a valid bipartition.
[[nodiscard]] Bipartition make_bipartition(const Circuit& circuit,
                                           std::span<const WirePoint> cuts);

}  // namespace qcut::cutting
