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

/// Every qubit's op chain in two flat arrays, the structure cut analysis
/// walks: (*this)[q] == circuit.ops_on_qubit(q).
struct WireChains {
  std::vector<std::size_t> begin;  // qubit q's ops are ops[begin[q], begin[q + 1])
  std::vector<std::size_t> ops;

  [[nodiscard]] std::span<const std::size_t> operator[](int q) const noexcept {
    const auto i = static_cast<std::size_t>(q);
    return std::span<const std::size_t>(ops).subspan(begin[i], begin[i + 1] - begin[i]);
  }
};

[[nodiscard]] WireChains wire_chains(const Circuit& circuit);

/// Every valid single cut of a circuit, in flat buffers: cut i cuts after
/// points[i], the op after it on its wire is down_ops[i], and sides(i) is
/// try_analyze_cuts(circuit, {points[i]})->op_fragment (its cut_qubits is
/// {points[i].qubit}).
struct SingleCuts {
  std::size_t num_ops = 0;
  std::vector<WirePoint> points;
  std::vector<std::size_t> down_ops;
  std::vector<FragmentId> op_sides;  // num_ops per cut, cut after cut

  [[nodiscard]] std::size_t size() const noexcept { return points.size(); }
  [[nodiscard]] bool empty() const noexcept { return points.empty(); }
  [[nodiscard]] std::span<const FragmentId> sides(std::size_t i) const noexcept {
    return std::span<const FragmentId>(op_sides).subspan(i * num_ops, num_ops);
  }
};

/// Every single cut try_analyze_cuts accepts, in the order of a scan over
/// qubits and, per qubit, along its wire, found by one bridge search of the
/// op graph instead of one analysis per cut point. In that graph the ops
/// are nodes and each pair of consecutive ops on a wire is an edge of its
/// own (two ops sharing two wires are joined twice), so a single cut is
/// valid exactly when its wire segment is a bridge, and its downstream
/// fragment is the side of the bridge that holds down_op. Allocates a fixed
/// number of blocks, none per cut or per op.
[[nodiscard]] SingleCuts valid_single_cuts(const Circuit& circuit);

}  // namespace qcut::circuit
