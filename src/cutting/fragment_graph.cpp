#include "cutting/fragment_graph.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace qcut::cutting {

using circuit::CutAnalysis;
using circuit::FragmentId;
using circuit::WirePoint;

int FragmentGraph::total_cuts() const {
  int total = 0;
  for (const ChainBoundary& boundary : boundaries) total += boundary.num_cuts();
  return total;
}

int FragmentGraph::max_fragment_width() const {
  int widest = 0;
  for (const ChainFragment& fragment : fragments) widest = std::max(widest, fragment.width());
  return widest;
}

SplitQubits split_qubits(const Circuit& circuit, std::span<const FragmentId> op_sides) {
  const int n = circuit.num_qubits();
  constexpr std::uint8_t kUp = 1;
  constexpr std::uint8_t kDown = 2;
  std::array<std::uint8_t, Circuit::kMaxQubits> sides{};
  for (std::size_t i = 0; i < circuit.num_ops(); ++i) {
    const std::uint8_t side = op_sides[i] == FragmentId::Upstream ? kUp : kDown;
    for (int q : circuit.op(i).qubits) sides[static_cast<std::size_t>(q)] |= side;
  }

  SplitQubits split;
  split.up_local_of.fill(-1);
  split.down_local_of.fill(-1);
  for (int q = 0; q < n; ++q) {
    std::uint8_t side = sides[static_cast<std::size_t>(q)];
    // Idle qubits contribute a deterministic |0> output bit; they are
    // measured in the first fragment. (Sub-circuits below the first split
    // have no idle qubits: every suffix qubit carries a downstream op.)
    if (side == 0) side = kUp;
    if ((side & kUp) != 0) {
      split.up_local_of[static_cast<std::size_t>(q)] = split.up_width;
      split.up_qubits[static_cast<std::size_t>(split.up_width++)] = q;
    }
    if ((side & kDown) != 0) {
      split.down_local_of[static_cast<std::size_t>(q)] = split.down_width;
      split.down_qubits[static_cast<std::size_t>(split.down_width++)] = q;
    }
  }
  return split;
}

namespace {

/// One prefix/suffix split of a (sub)circuit: fragment qubits from
/// split_qubits, and each side's ops copied once, in program order, onto
/// that side's local qubits.
struct Split {
  Circuit up{1};
  Circuit down{1};
  SplitQubits qubits;
  std::vector<std::ptrdiff_t> op_to_down;  // sub-circuit op -> down op index (-1 if upstream)
  std::vector<int> cut_qubits;             // sub-circuit qubits, cut order
};

Split split_at(const Circuit& sub, std::span<const WirePoint> cuts, int boundary_index) {
  std::string why;
  const std::optional<CutAnalysis> analysis = circuit::try_analyze_cuts(sub, cuts, &why);
  QCUT_CHECK(analysis.has_value(),
             "make_fragment_chain: boundary " + std::to_string(boundary_index) + ": " + why);

  Split split;
  split.qubits = split_qubits(sub, analysis->op_fragment);
  const SplitQubits& qubits = split.qubits;
  QCUT_CHECK(qubits.up_width > 0 && qubits.down_width > 0,
             "make_fragment_chain: boundary " + std::to_string(boundary_index) +
                 ": both sides must contain at least one qubit");

  split.cut_qubits.reserve(analysis->cut_qubits.size());
  for (int cut_qubit : analysis->cut_qubits) {
    QCUT_ASSERT(qubits.up_local_of[static_cast<std::size_t>(cut_qubit)] >= 0 &&
                    qubits.down_local_of[static_cast<std::size_t>(cut_qubit)] >= 0,
                "make_fragment_chain: cut qubit missing from a side");
    split.cut_qubits.push_back(cut_qubit);
  }

  const std::vector<FragmentId>& side_of = analysis->op_fragment;
  const auto num_up = static_cast<std::size_t>(
      std::count(side_of.begin(), side_of.end(), FragmentId::Upstream));
  split.up = Circuit(qubits.up_width);
  split.down = Circuit(qubits.down_width);
  split.up.reserve(num_up);
  split.down.reserve(sub.num_ops() - num_up);
  split.op_to_down.assign(sub.num_ops(), -1);
  for (std::size_t i = 0; i < sub.num_ops(); ++i) {
    const circuit::Operation& op = sub.ops()[i];
    if (side_of[i] == FragmentId::Upstream) {
      split.up.append_remapped(op, qubits.up_local_of);
    } else {
      split.op_to_down[i] = static_cast<std::ptrdiff_t>(split.down.num_ops());
      split.down.append_remapped(op, qubits.down_local_of);
    }
  }
  return split;
}

/// Final-bit bookkeeping: every local that is not an outgoing tomography
/// qubit is a final bit of the uncut circuit.
void finish_fragment(ChainFragment& fragment) {
  std::array<bool, Circuit::kMaxQubits> is_cut{};
  for (int local : fragment.out_cut_qubits) is_cut[static_cast<std::size_t>(local)] = true;
  const auto outputs = static_cast<std::size_t>(fragment.width() - fragment.num_out());
  fragment.output_qubits.reserve(outputs);
  fragment.output_original.reserve(outputs);
  for (int local = 0; local < fragment.width(); ++local) {
    if (!is_cut[static_cast<std::size_t>(local)]) {
      fragment.output_qubits.push_back(local);
      fragment.output_original.push_back(fragment.to_original[static_cast<std::size_t>(local)]);
    }
  }
}

}  // namespace

FragmentGraph make_fragment_chain(const Circuit& circuit,
                                  std::span<const std::vector<WirePoint>> boundaries) {
  QCUT_CHECK(!boundaries.empty(), "make_fragment_chain: need at least one boundary");
  for (std::size_t b = 0; b < boundaries.size(); ++b) {
    QCUT_CHECK(!boundaries[b].empty(), "make_fragment_chain: boundary " + std::to_string(b) +
                                           " has no cut points");
  }

  FragmentGraph graph;
  graph.num_original_qubits = circuit.num_qubits();
  graph.fragments.reserve(boundaries.size() + 1);
  graph.boundaries.reserve(boundaries.size());

  // The not-yet-split tail of the chain, with maps from original-circuit
  // coordinates into it (boundary points are given in original coordinates).
  // Boundary 0 splits the caller's circuit itself; later boundaries split
  // the downstream side of the previous split, held in `suffix`.
  Circuit suffix(1);
  const Circuit* tail = &circuit;
  std::vector<int> suffix_to_original(static_cast<std::size_t>(circuit.num_qubits()));
  std::vector<int> qubit_to_suffix(static_cast<std::size_t>(circuit.num_qubits()));
  for (int q = 0; q < circuit.num_qubits(); ++q) {
    suffix_to_original[static_cast<std::size_t>(q)] = q;
    qubit_to_suffix[static_cast<std::size_t>(q)] = q;
  }
  std::vector<std::ptrdiff_t> op_to_suffix(circuit.num_ops());
  for (std::size_t i = 0; i < circuit.num_ops(); ++i) {
    op_to_suffix[i] = static_cast<std::ptrdiff_t>(i);
  }

  // Cut wires of the previous boundary, waiting for their down_qubit (the
  // local index in the fragment about to be carved out of the suffix).
  std::vector<int> pending_in_original;  // original qubits, previous-boundary cut order

  for (std::size_t b = 0; b < boundaries.size(); ++b) {
    std::vector<WirePoint> mapped;
    mapped.reserve(boundaries[b].size());
    for (const WirePoint& point : boundaries[b]) {
      QCUT_CHECK(point.qubit >= 0 && point.qubit < circuit.num_qubits(),
                 "make_fragment_chain: boundary " + std::to_string(b) +
                     " cut qubit out of range");
      QCUT_CHECK(point.after_op < circuit.num_ops(),
                 "make_fragment_chain: boundary " + std::to_string(b) +
                     " cut op index out of range");
      const int suffix_qubit = qubit_to_suffix[static_cast<std::size_t>(point.qubit)];
      const std::ptrdiff_t suffix_op = op_to_suffix[point.after_op];
      QCUT_CHECK(suffix_qubit >= 0 && suffix_op >= 0,
                 "make_fragment_chain: boundary " + std::to_string(b) +
                     " cuts inside an earlier fragment (boundaries must be ordered "
                     "front to back along the circuit)");
      mapped.push_back(WirePoint{suffix_qubit, static_cast<std::size_t>(suffix_op)});
    }

    Split split = split_at(*tail, mapped, static_cast<int>(b));

    ChainFragment fragment;
    fragment.circuit = std::move(split.up);
    fragment.to_original.reserve(static_cast<std::size_t>(split.qubits.up_width));
    fragment.in_qubits.reserve(pending_in_original.size());
    fragment.out_cut_qubits.reserve(split.cut_qubits.size());
    for (int sub : split.qubits.up_to_sub()) {
      fragment.to_original.push_back(suffix_to_original[static_cast<std::size_t>(sub)]);
    }

    // Previous boundary's wires are re-prepared here — a wire first touched
    // in a later fragment would skip this one, which a chain cannot express.
    for (std::size_t w = 0; w < pending_in_original.size(); ++w) {
      const int original = pending_in_original[w];
      const int sub = qubit_to_suffix[static_cast<std::size_t>(original)];
      const int local = split.qubits.up_local_of[static_cast<std::size_t>(sub)];
      QCUT_CHECK(local >= 0,
                 "make_fragment_chain: cut wire on qubit " + std::to_string(original) +
                     " of boundary " + std::to_string(b - 1) + " is re-prepared in a later "
                     "fragment; wires must connect adjacent fragments (chain topology)");
      fragment.in_qubits.push_back(local);
      graph.boundaries[b - 1].wires[w].down_qubit = local;
    }

    ChainBoundary boundary;
    boundary.points = boundaries[b];
    boundary.wires.reserve(split.cut_qubits.size());
    for (int sub_qubit : split.cut_qubits) {
      BoundaryWire wire;
      wire.original_qubit = suffix_to_original[static_cast<std::size_t>(sub_qubit)];
      wire.up_qubit = split.qubits.up_local_of[static_cast<std::size_t>(sub_qubit)];
      wire.down_qubit = -1;  // filled when the next fragment is carved out
      fragment.out_cut_qubits.push_back(wire.up_qubit);
      boundary.wires.push_back(wire);
    }
    finish_fragment(fragment);
    graph.fragments.push_back(std::move(fragment));
    graph.boundaries.push_back(std::move(boundary));

    pending_in_original.clear();
    for (const BoundaryWire& wire : graph.boundaries.back().wires) {
      pending_in_original.push_back(wire.original_qubit);
    }

    // Re-anchor the original-coordinate maps on the new suffix.
    std::vector<int> next_to_original;
    next_to_original.reserve(static_cast<std::size_t>(split.qubits.down_width));
    for (int sub : split.qubits.down_to_sub()) {
      next_to_original.push_back(suffix_to_original[static_cast<std::size_t>(sub)]);
    }
    std::vector<int> next_qubit_to_suffix(static_cast<std::size_t>(circuit.num_qubits()), -1);
    for (std::size_t local = 0; local < next_to_original.size(); ++local) {
      next_qubit_to_suffix[static_cast<std::size_t>(next_to_original[local])] =
          static_cast<int>(local);
    }
    std::vector<std::ptrdiff_t> next_op_to_suffix(circuit.num_ops(), -1);
    for (std::size_t i = 0; i < circuit.num_ops(); ++i) {
      if (op_to_suffix[i] >= 0) {
        next_op_to_suffix[i] = split.op_to_down[static_cast<std::size_t>(op_to_suffix[i])];
      }
    }
    suffix = std::move(split.down);
    tail = &suffix;
    suffix_to_original = std::move(next_to_original);
    qubit_to_suffix = std::move(next_qubit_to_suffix);
    op_to_suffix = std::move(next_op_to_suffix);
  }

  // The remaining suffix is the last fragment.
  ChainFragment last;
  last.circuit = std::move(suffix);
  last.to_original = std::move(suffix_to_original);
  last.in_qubits.reserve(pending_in_original.size());
  for (std::size_t w = 0; w < pending_in_original.size(); ++w) {
    const int local = qubit_to_suffix[static_cast<std::size_t>(pending_in_original[w])];
    QCUT_ASSERT(local >= 0, "make_fragment_chain: lost a cut wire of the final boundary");
    last.in_qubits.push_back(local);
    graph.boundaries.back().wires[w].down_qubit = local;
  }
  finish_fragment(last);
  graph.fragments.push_back(std::move(last));
  return graph;
}

Bipartition make_bipartition(const Circuit& circuit, std::span<const WirePoint> cuts) {
  const std::vector<std::vector<WirePoint>> boundaries = {
      std::vector<WirePoint>(cuts.begin(), cuts.end())};
  return make_fragment_chain(circuit, boundaries);
}

ChainNeglectSpec ChainNeglectSpec::none(const FragmentGraph& graph) {
  std::vector<NeglectSpec> specs;
  specs.reserve(static_cast<std::size_t>(graph.num_boundaries()));
  for (const ChainBoundary& boundary : graph.boundaries) {
    specs.push_back(NeglectSpec::none(boundary.num_cuts()));
  }
  return ChainNeglectSpec(std::move(specs));
}

ChainNeglectSpec::ChainNeglectSpec(std::vector<NeglectSpec> boundary_specs)
    : boundaries_(std::move(boundary_specs)) {}

const NeglectSpec& ChainNeglectSpec::boundary(int b) const {
  QCUT_CHECK(b >= 0 && b < num_boundaries(),
             "ChainNeglectSpec::boundary: index out of range");
  return boundaries_[static_cast<std::size_t>(b)];
}

NeglectSpec& ChainNeglectSpec::boundary(int b) {
  QCUT_CHECK(b >= 0 && b < num_boundaries(),
             "ChainNeglectSpec::boundary: index out of range");
  return boundaries_[static_cast<std::size_t>(b)];
}

std::uint64_t ChainNeglectSpec::num_active_terms() const {
  std::uint64_t total = 1;
  for (const NeglectSpec& spec : boundaries_) total *= spec.num_active_strings();
  return total;
}

}  // namespace qcut::cutting
