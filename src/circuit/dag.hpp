#pragma once
// Wire-cut analysis on the circuit's operation graph.
//
// A wire cut removes the segment of a qubit wire between two consecutive
// operations on that qubit. For the bipartition case the paper studies,
// removing the K cut segments must split the operation graph into exactly
// two connected components, with every cut crossing from the upstream
// component (fragment 1) to the downstream component (fragment 2).

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"

namespace qcut::circuit {

/// A point on a qubit wire: immediately after operation `after_op`
/// (which must act on `qubit`).
struct WirePoint {
  int qubit = 0;
  std::size_t after_op = 0;

  friend bool operator==(const WirePoint&, const WirePoint&) = default;
};

/// Which fragment each operation belongs to after a valid bipartition.
enum class FragmentId : int { Upstream = 0, Downstream = 1 };

/// Result of analyzing a set of cuts.
struct CutAnalysis {
  /// assignment[i] is the fragment of op i.
  std::vector<FragmentId> op_fragment;
  /// Qubits whose wire is cut, in the order the cuts were given.
  std::vector<int> cut_qubits;
};

/// Validates `cuts` against `circuit` and computes the fragment assignment.
///
/// Requirements checked:
///  * every cut references an op acting on its qubit, with a later op on
///    the same qubit (cutting after the final op is meaningless);
///  * at most one cut per qubit (the paper's injective cut map);
///  * removing the cut segments yields exactly two connected components;
///  * every cut crosses upstream -> downstream;
///  * no uncut qubit has operations in both fragments.
///
/// Throws qcut::Error with a diagnostic message if any requirement fails.
[[nodiscard]] CutAnalysis analyze_cuts(const Circuit& circuit, std::span<const WirePoint> cuts);

/// Non-throwing variant: returns std::nullopt and fills `why` (if non-null)
/// instead of throwing.
[[nodiscard]] std::optional<CutAnalysis> try_analyze_cuts(const Circuit& circuit,
                                                          std::span<const WirePoint> cuts,
                                                          std::string* why = nullptr);

/// Every qubit's op chain (chains[q] == circuit.ops_on_qubit(q)), the
/// structure cut analysis walks.
[[nodiscard]] std::vector<std::vector<std::size_t>> wire_chains(const Circuit& circuit);

/// One valid single cut and its analysis.
struct SingleCut {
  WirePoint point;
  std::size_t down_op = 0;  // the op after point.after_op on point.qubit
  CutAnalysis analysis;     // == try_analyze_cuts(circuit, {point})
};

/// Every single cut try_analyze_cuts accepts, in the order of a scan over
/// qubits and, per qubit, along its wire, found by one bridge search of the
/// op graph instead of one analysis per cut point. In that graph the ops
/// are nodes and each pair of consecutive ops on a wire is an edge of its
/// own (two ops sharing two wires are joined twice), so a single cut is
/// valid exactly when its wire segment is a bridge, and its downstream
/// fragment is the side of the bridge that holds down_op.
[[nodiscard]] std::vector<SingleCut> valid_single_cuts(const Circuit& circuit);

}  // namespace qcut::circuit
