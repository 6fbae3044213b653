#pragma once
// FragmentGraph: the N-fragment generalization of the bipartition.
//
// A circuit is split into an ordered chain of N >= 2 fragments by N-1
// boundaries; boundary b is the set of cut wires crossing from fragment b
// to fragment b+1. Fragment 0 only measures (its outgoing cut wires are
// rotated into the requested basis, Section II-B of the paper); the last
// fragment only re-prepares; every interior fragment does both, so it runs
// 6^Kin x 3^Kout circuit variants. Each boundary carries its own
// NeglectSpec (a ChainNeglectSpec is one spec per boundary), so the paper's
// golden cutting points compose across boundaries: the 4^K -> 4^Kr 3^Kg
// term reduction multiplies boundary by boundary.
//
// Topology is restricted to a *chain*: every cut wire of boundary b must be
// measured in fragment b and re-prepared in fragment b+1 (no
// fragment-skipping wires, no branching fragment DAGs; see ROADMAP open
// items). The classic two-fragment split is the N=2 chain: Bipartition
// (golden.hpp) names it and make_bipartition builds it.

#include <array>
#include <span>
#include <vector>

#include "cutting/golden.hpp"

namespace qcut::cutting {

/// One cut wire of a boundary, in all three coordinate systems.
struct BoundaryWire {
  int original_qubit = 0;  // qubit index in the uncut circuit
  int up_qubit = 0;        // local index in fragments[b] (measured tomographically)
  int down_qubit = 0;      // local index in fragments[b + 1] (re-prepared)
};

/// Boundary b: the cut wires between fragment b and fragment b+1.
struct ChainBoundary {
  std::vector<circuit::WirePoint> points;  // cut points, original-circuit coordinates
  std::vector<BoundaryWire> wires;         // in the order the points were given

  [[nodiscard]] int num_cuts() const noexcept { return static_cast<int>(wires.size()); }
};

/// One fragment of the chain.
///
/// Measurement roles: every qubit is measured at the end of the fragment.
/// Outgoing cut qubits are the tomography bits; everything else (including
/// incoming, re-prepared qubits that are not cut again) are final bits of
/// the uncut circuit.
struct ChainFragment {
  Circuit circuit{1};
  std::vector<int> to_original;      // local index -> original qubit (ascending)
  std::vector<int> in_qubits;        // re-prepared locals, incoming-boundary cut order
  std::vector<int> out_cut_qubits;   // tomography locals, outgoing-boundary cut order
  std::vector<int> output_qubits;    // final-bit locals (ascending)
  std::vector<int> output_original;  // original qubit per final bit

  [[nodiscard]] int width() const noexcept { return static_cast<int>(to_original.size()); }
  [[nodiscard]] int num_in() const noexcept { return static_cast<int>(in_qubits.size()); }
  [[nodiscard]] int num_out() const noexcept { return static_cast<int>(out_cut_qubits.size()); }
  [[nodiscard]] int output_width() const noexcept {
    return static_cast<int>(output_qubits.size());
  }
};

/// A validated chain of fragments.
struct FragmentGraph {
  std::vector<ChainFragment> fragments;   // size N
  std::vector<ChainBoundary> boundaries;  // size N - 1
  int num_original_qubits = 0;

  [[nodiscard]] int num_fragments() const noexcept {
    return static_cast<int>(fragments.size());
  }
  [[nodiscard]] int num_boundaries() const noexcept {
    return static_cast<int>(boundaries.size());
  }
  [[nodiscard]] int total_cuts() const;

  /// Widest fragment (qubits) — the simulator/device requirement.
  [[nodiscard]] int max_fragment_width() const;
};

/// Which qubits each side of one prefix/suffix split holds: every qubit an
/// upstream op touches, plus every qubit no op touches, goes upstream; every
/// qubit a downstream op touches goes downstream; locals are assigned in
/// ascending qubit order. make_fragment_chain and the cut planner share this
/// one definition of which qubit lands where. A circuit has at most
/// Circuit::kMaxQubits qubits, so the maps are inline and a split
/// allocates nothing.
struct SplitQubits {
  using QubitMap = std::array<int, Circuit::kMaxQubits>;
  QubitMap up_local_of{};    // qubit -> upstream local (-1 if absent)
  QubitMap down_local_of{};  // qubit -> downstream local (-1 if absent)
  QubitMap up_qubits{};      // upstream local -> qubit, the first up_width entries
  QubitMap down_qubits{};    // downstream local -> qubit, the first down_width entries
  int up_width = 0;
  int down_width = 0;

  /// Upstream local -> qubit (ascending).
  [[nodiscard]] std::span<const int> up_to_sub() const noexcept {
    return {up_qubits.data(), static_cast<std::size_t>(up_width)};
  }
  /// Downstream local -> qubit (ascending).
  [[nodiscard]] std::span<const int> down_to_sub() const noexcept {
    return {down_qubits.data(), static_cast<std::size_t>(down_width)};
  }
};

/// The qubit assignment of `circuit` split by `op_sides` (a cut analysis's
/// op_fragment).
[[nodiscard]] SplitQubits split_qubits(const Circuit& circuit,
                                       std::span<const circuit::FragmentId> op_sides);

/// Splits `circuit` into an N-fragment chain at the given per-boundary cut
/// groups (boundaries[b] separates fragment b from fragment b+1). Throws
/// qcut::Error when any boundary fails to split its suffix, or when a cut
/// wire skips a fragment (non-chain topology).
[[nodiscard]] FragmentGraph make_fragment_chain(
    const Circuit& circuit, std::span<const std::vector<circuit::WirePoint>> boundaries);

/// The N=2 chain from a flat cut list (one boundary), the input of the
/// per-bipartition golden detectors. Throws qcut::Error (with the reason)
/// if the cuts do not induce a valid bipartition.
[[nodiscard]] Bipartition make_bipartition(const Circuit& circuit,
                                           std::span<const circuit::WirePoint> cuts);

/// One NeglectSpec per boundary.
class ChainNeglectSpec {
 public:
  /// Empty spec (no boundaries); placeholder before a run is resolved.
  ChainNeglectSpec() = default;

  /// No neglected elements anywhere on `graph`'s boundaries.
  [[nodiscard]] static ChainNeglectSpec none(const FragmentGraph& graph);

  explicit ChainNeglectSpec(std::vector<NeglectSpec> boundary_specs);

  [[nodiscard]] int num_boundaries() const noexcept {
    return static_cast<int>(boundaries_.size());
  }
  [[nodiscard]] const NeglectSpec& boundary(int b) const;
  [[nodiscard]] NeglectSpec& boundary(int b);
  [[nodiscard]] const std::vector<NeglectSpec>& all() const noexcept { return boundaries_; }

  /// Reconstruction terms: the product of per-boundary active string counts.
  [[nodiscard]] std::uint64_t num_active_terms() const;

 private:
  std::vector<NeglectSpec> boundaries_;
};

}  // namespace qcut::cutting
