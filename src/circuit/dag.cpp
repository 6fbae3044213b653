#include "circuit/dag.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace qcut::circuit {

namespace {

/// Union-find over operation indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

WireChains wire_chains(const Circuit& circuit) {
  const auto n = static_cast<std::size_t>(circuit.num_qubits());
  WireChains chains;
  // Count each wire's ops into begin[q + 1], sum the counts into offsets,
  // place every op at its wire's cursor begin[q] (which leaves begin[q]
  // at the next wire's offset), then shift the offsets back.
  chains.begin.assign(n + 1, 0);
  for (const Operation& op : circuit.ops()) {
    for (int q : op.qubits) ++chains.begin[static_cast<std::size_t>(q) + 1];
  }
  for (std::size_t q = 0; q < n; ++q) chains.begin[q + 1] += chains.begin[q];
  chains.ops.resize(chains.begin[n]);
  for (std::size_t i = 0; i < circuit.num_ops(); ++i) {
    for (int q : circuit.op(i).qubits) chains.ops[chains.begin[static_cast<std::size_t>(q)]++] = i;
  }
  for (std::size_t q = n; q > 0; --q) chains.begin[q] = chains.begin[q - 1];
  chains.begin[0] = 0;
  return chains;
}

std::optional<CutAnalysis> try_analyze_cuts(const Circuit& circuit,
                                            std::span<const WirePoint> cuts,
                                            std::string* why) {
  auto fail = [&](const std::string& message) -> std::optional<CutAnalysis> {
    if (why != nullptr) *why = message;
    return std::nullopt;
  };

  if (cuts.empty()) return fail("no cuts given");
  if (circuit.num_ops() == 0) return fail("circuit has no operations");
  const WireChains chain = wire_chains(circuit);

  // Validate each cut and record the wire segment (pair of op indices) it removes.
  struct CutEdge {
    std::size_t up_op;
    std::size_t down_op;
  };
  std::vector<CutEdge> cut_edges;
  std::vector<int> cut_qubits;
  cut_edges.reserve(cuts.size());
  cut_qubits.reserve(cuts.size());
  for (const WirePoint& cut : cuts) {
    if (cut.qubit < 0 || cut.qubit >= circuit.num_qubits()) {
      return fail("cut qubit index out of range");
    }
    if (std::find(cut_qubits.begin(), cut_qubits.end(), cut.qubit) != cut_qubits.end()) {
      return fail("multiple cuts on the same qubit are not supported (injective cut map)");
    }
    if (cut.after_op >= circuit.num_ops() || !circuit.op(cut.after_op).acts_on(cut.qubit)) {
      return fail("cut.after_op must reference an operation acting on the cut qubit");
    }
    const std::span<const std::size_t> ops = chain[cut.qubit];
    const auto it = std::find(ops.begin(), ops.end(), cut.after_op);
    QCUT_ASSERT(it != ops.end(), "analyze_cuts: op chain inconsistent");
    if (std::next(it) == ops.end()) {
      return fail("cutting after the final operation on a qubit is meaningless");
    }
    cut_edges.push_back({*it, *std::next(it)});
    cut_qubits.push_back(cut.qubit);
  }

  // Connect consecutive ops on each qubit, skipping removed segments.
  auto is_cut_segment = [&](int qubit, std::size_t up, std::size_t down) {
    for (std::size_t k = 0; k < cut_edges.size(); ++k) {
      if (cut_qubits[k] == qubit && cut_edges[k].up_op == up && cut_edges[k].down_op == down) {
        return true;
      }
    }
    return false;
  };

  UnionFind uf(circuit.num_ops());
  for (int q = 0; q < circuit.num_qubits(); ++q) {
    const std::span<const std::size_t> ops = chain[q];
    for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
      if (!is_cut_segment(q, ops[i], ops[i + 1])) {
        uf.unite(ops[i], ops[i + 1]);
      }
    }
  }

  // Orient the components: a component containing the upstream endpoint of
  // any cut must be entirely upstream, one containing a downstream endpoint
  // entirely downstream. Fragments need not be internally connected (two
  // disjoint upstream blocks feeding two cuts form one fragment), so
  // components touched by no cut default to upstream.
  enum class Mark : int { None, Up, Down };
  std::vector<Mark> mark(circuit.num_ops(), Mark::None);
  auto apply_mark = [&](std::size_t op, Mark m) -> bool {
    const std::size_t root = uf.find(op);
    if (mark[root] == Mark::None) {
      mark[root] = m;
      return true;
    }
    return mark[root] == m;
  };
  for (const CutEdge& edge : cut_edges) {
    if (uf.find(edge.up_op) == uf.find(edge.down_op)) {
      return fail("cut does not disconnect the circuit (a path around the cut remains)");
    }
    if (!apply_mark(edge.up_op, Mark::Up) || !apply_mark(edge.down_op, Mark::Down)) {
      return fail("cut set is contradictory: some operations would have to be both "
                  "upstream and downstream (the cuts do not induce a bipartition)");
    }
  }

  CutAnalysis analysis;
  analysis.op_fragment.resize(circuit.num_ops());
  for (std::size_t i = 0; i < circuit.num_ops(); ++i) {
    const std::size_t root = uf.find(i);
    analysis.op_fragment[i] =
        mark[root] == Mark::Down ? FragmentId::Downstream : FragmentId::Upstream;
  }

  // Uncut qubits must live entirely in one fragment; cut qubits must be a
  // clean upstream-prefix / downstream-suffix split at the cut point.
  for (int q = 0; q < circuit.num_qubits(); ++q) {
    const std::span<const std::size_t> ops = chain[q];
    if (ops.empty()) continue;
    const auto cut_it = std::find(cut_qubits.begin(), cut_qubits.end(), q);
    if (cut_it == cut_qubits.end()) {
      for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
        if (analysis.op_fragment[ops[i]] != analysis.op_fragment[ops[i + 1]]) {
          std::ostringstream oss;
          oss << "qubit " << q << " has operations in both fragments but no cut; "
              << "add a cut on this wire";
          return fail(oss.str());
        }
      }
    } else {
      const std::size_t k = static_cast<std::size_t>(cut_it - cut_qubits.begin());
      for (std::size_t op_idx : ops) {
        const bool upstream_side = op_idx <= cut_edges[k].up_op;
        const FragmentId expected =
            upstream_side ? FragmentId::Upstream : FragmentId::Downstream;
        if (analysis.op_fragment[op_idx] != expected) {
          std::ostringstream oss;
          oss << "operations on cut qubit " << q
              << " do not split cleanly at the cut point";
          return fail(oss.str());
        }
      }
    }
  }

  analysis.cut_qubits = std::move(cut_qubits);
  return analysis;
}

SingleCuts valid_single_cuts(const Circuit& circuit) {
  const std::size_t num_ops = circuit.num_ops();
  const auto num_qubits = static_cast<std::size_t>(circuit.num_qubits());
  const WireChains chains = wire_chains(circuit);

  // The op graph as adjacency arrays. Edges are numbered in scan order
  // (qubit, then position along the wire), so edge first_edge[q] + i joins
  // chains[q][i] and chains[q][i + 1].
  std::vector<std::size_t> first_edge(num_qubits + 1, 0);
  std::vector<std::size_t> arc_begin(num_ops + 1, 0);
  for (std::size_t q = 0; q < num_qubits; ++q) {
    const std::span<const std::size_t> ops = chains[static_cast<int>(q)];
    first_edge[q + 1] = first_edge[q] + (ops.empty() ? 0 : ops.size() - 1);
    for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
      ++arc_begin[ops[i] + 1];
      ++arc_begin[ops[i + 1] + 1];
    }
  }
  for (std::size_t op = 0; op < num_ops; ++op) arc_begin[op + 1] += arc_begin[op];
  struct Arc {
    std::size_t to;
    std::size_t edge;
  };
  std::vector<Arc> arcs(arc_begin[num_ops]);
  std::vector<std::size_t> fill(arc_begin.begin(), arc_begin.end() - 1);
  for (std::size_t q = 0; q < num_qubits; ++q) {
    const std::span<const std::size_t> ops = chains[static_cast<int>(q)];
    for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
      const std::size_t edge = first_edge[q] + i;
      arcs[fill[ops[i]]++] = Arc{ops[i + 1], edge};
      arcs[fill[ops[i + 1]]++] = Arc{ops[i], edge};
    }
  }

  // Tarjan's bridge search, iterative. enter[v] numbers ops in DFS preorder
  // and last[v] is the largest number in v's subtree, so the subtree is the
  // range [enter[v], last[v]]. A tree edge into v is a bridge when nothing
  // in v's subtree reaches above v (low[v] > enter[parent]); only the edge
  // that entered v is skipped, so a parallel edge counts as a way back.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> enter(num_ops, kNone);
  std::vector<std::size_t> low(num_ops, 0);
  std::vector<std::size_t> last(num_ops, 0);
  std::vector<std::size_t> entry_edge(num_ops, kNone);
  struct Bridge {
    std::size_t child = kNone;  // the endpoint whose subtree is one side
    std::size_t root = kNone;   // the DFS root of the component
  };
  std::vector<Bridge> bridges(first_edge.back());
  std::size_t num_bridges = 0;
  std::vector<std::pair<std::size_t, std::size_t>> stack;  // (op, next arc)
  stack.reserve(num_ops);
  std::size_t counter = 0;
  for (std::size_t root = 0; root < num_ops; ++root) {
    if (enter[root] != kNone) continue;
    enter[root] = low[root] = counter++;
    stack.emplace_back(root, arc_begin[root]);
    while (!stack.empty()) {
      const std::size_t v = stack.back().first;
      const std::size_t next = stack.back().second;
      if (next < arc_begin[v + 1]) {
        ++stack.back().second;
        const Arc arc = arcs[next];
        if (arc.edge == entry_edge[v]) continue;
        if (enter[arc.to] == kNone) {
          entry_edge[arc.to] = arc.edge;
          enter[arc.to] = low[arc.to] = counter++;
          stack.emplace_back(arc.to, arc_begin[arc.to]);
        } else {
          low[v] = std::min(low[v], enter[arc.to]);
        }
        continue;
      }
      last[v] = counter - 1;
      stack.pop_back();
      if (stack.empty()) continue;
      const std::size_t parent = stack.back().first;
      low[parent] = std::min(low[parent], low[v]);
      if (low[v] > enter[parent]) {
        bridges[entry_edge[v]] = Bridge{v, root};
        ++num_bridges;
      }
    }
  }

  // Removing a bridge splits its component into the child's subtree and
  // the rest; the downstream fragment is the part holding down_op, and
  // every other component stays upstream (try_analyze_cuts's default).
  const auto in_subtree = [&](std::size_t op, std::size_t top) {
    return enter[top] <= enter[op] && enter[op] <= last[top];
  };
  SingleCuts cuts;
  cuts.num_ops = num_ops;
  cuts.points.reserve(num_bridges);
  cuts.down_ops.reserve(num_bridges);
  cuts.op_sides.reserve(num_bridges * num_ops);
  for (std::size_t q = 0; q < num_qubits; ++q) {
    const std::span<const std::size_t> ops = chains[static_cast<int>(q)];
    for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
      const Bridge& bridge = bridges[first_edge[q] + i];
      if (bridge.child == kNone) continue;
      const bool subtree_is_downstream = bridge.child == ops[i + 1];
      cuts.points.push_back(WirePoint{static_cast<int>(q), ops[i]});
      cuts.down_ops.push_back(ops[i + 1]);
      for (std::size_t op = 0; op < num_ops; ++op) {
        const bool downstream =
            subtree_is_downstream
                ? in_subtree(op, bridge.child)
                : in_subtree(op, bridge.root) && !in_subtree(op, bridge.child);
        cuts.op_sides.push_back(downstream ? FragmentId::Downstream : FragmentId::Upstream);
      }
    }
  }
  return cuts;
}

CutAnalysis analyze_cuts(const Circuit& circuit, std::span<const WirePoint> cuts) {
  std::string why;
  auto analysis = try_analyze_cuts(circuit, cuts, &why);
  QCUT_CHECK(analysis.has_value(), "analyze_cuts: " + why);
  return *std::move(analysis);
}

}  // namespace qcut::circuit
