#include "circuit/dag.hpp"

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "circuit/random.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace qcut::circuit {
namespace {

/// The paper's 3-qubit chain: U12 on (0,1), U23 on (1,2), cut wire 1.
Circuit chain3() {
  Circuit c(3);
  c.cx(0, 1);   // op 0 (upstream)
  c.ry(0.4, 1); // op 1 (upstream, last on wire 1 before the cut)
  c.cx(1, 2);   // op 2 (downstream)
  c.h(2);       // op 3 (downstream)
  return c;
}

TEST(Dag, ValidSingleCut) {
  const Circuit c = chain3();
  const std::array<WirePoint, 1> cuts = {WirePoint{1, 1}};
  const CutAnalysis analysis = analyze_cuts(c, cuts);
  EXPECT_EQ(analysis.op_fragment[0], FragmentId::Upstream);
  EXPECT_EQ(analysis.op_fragment[1], FragmentId::Upstream);
  EXPECT_EQ(analysis.op_fragment[2], FragmentId::Downstream);
  EXPECT_EQ(analysis.op_fragment[3], FragmentId::Downstream);
  EXPECT_EQ(analysis.cut_qubits, (std::vector<int>{1}));
}

TEST(Dag, CutAfterEarlierOpMovesBoundary) {
  const Circuit c = chain3();
  // Cutting after op 0 on wire 1 leaves ry(1) downstream... but then op 1
  // (ry on wire 1) is downstream while cx(0,1) is upstream - still a valid
  // split: f1 = {cx01}, f2 = {ry1, cx12, h2}.
  const std::array<WirePoint, 1> cuts = {WirePoint{1, 0}};
  const CutAnalysis analysis = analyze_cuts(c, cuts);
  EXPECT_EQ(analysis.op_fragment[0], FragmentId::Upstream);
  EXPECT_EQ(analysis.op_fragment[1], FragmentId::Downstream);
}

TEST(Dag, RejectsCutAfterLastOpOnWire) {
  const Circuit c = chain3();
  // Last op on wire 1 is op 2 (cx(1,2)); cutting after it is meaningless.
  const std::array<WirePoint, 1> cuts = {WirePoint{1, 2}};
  std::string why;
  EXPECT_FALSE(try_analyze_cuts(c, cuts, &why).has_value());
  EXPECT_NE(why.find("final operation"), std::string::npos);
  EXPECT_THROW((void)analyze_cuts(c, cuts), Error);
}

TEST(Dag, RejectsOpNotOnQubit) {
  const Circuit c = chain3();
  const std::array<WirePoint, 1> cuts = {WirePoint{2, 0}};  // op 0 does not act on qubit 2
  std::string why;
  EXPECT_FALSE(try_analyze_cuts(c, cuts, &why).has_value());
}

TEST(Dag, RejectsOutOfRange) {
  const Circuit c = chain3();
  EXPECT_FALSE(try_analyze_cuts(c, std::array<WirePoint, 1>{WirePoint{7, 0}}).has_value());
  EXPECT_FALSE(try_analyze_cuts(c, std::array<WirePoint, 1>{WirePoint{1, 99}}).has_value());
  EXPECT_FALSE(try_analyze_cuts(c, std::span<const WirePoint>{}).has_value());
}

TEST(Dag, RejectsDoubleCutOnSameQubit) {
  Circuit c(3);
  c.cx(0, 1).ry(0.1, 1).cx(1, 2).ry(0.2, 1).cx(1, 2);
  const std::array<WirePoint, 2> cuts = {WirePoint{1, 1}, WirePoint{1, 3}};
  std::string why;
  EXPECT_FALSE(try_analyze_cuts(c, cuts, &why).has_value());
  EXPECT_NE(why.find("injective"), std::string::npos);
}

TEST(Dag, RejectsCutThatDoesNotDisconnect) {
  // Two parallel wires between the halves: cutting only one leaves a path.
  Circuit c(3);
  c.cx(0, 1);      // op 0
  c.cx(0, 2);      // op 1 - second crossing path via qubit 2... build explicitly:
  c.cx(1, 2);      // op 2 downstream-ish
  // Cut wire 1 after op 0: qubit 2 still connects op 1 and op 2.
  const std::array<WirePoint, 1> cuts = {WirePoint{1, 0}};
  std::string why;
  EXPECT_FALSE(try_analyze_cuts(c, cuts, &why).has_value());
}

TEST(Dag, TwoCutsRestoreBipartition) {
  // Same topology as above, but cutting both crossing wires works.
  Circuit c(3);
  c.cx(0, 1);  // op 0
  c.cx(0, 2);  // op 1
  c.cx(1, 2);  // op 2
  const std::array<WirePoint, 2> cuts = {WirePoint{1, 0}, WirePoint{2, 1}};
  const CutAnalysis analysis = analyze_cuts(c, cuts);
  EXPECT_EQ(analysis.op_fragment[0], FragmentId::Upstream);
  EXPECT_EQ(analysis.op_fragment[1], FragmentId::Upstream);
  EXPECT_EQ(analysis.op_fragment[2], FragmentId::Downstream);
}

TEST(Dag, DisjointUpstreamBlocksAreOneFragment) {
  // Two disconnected upstream blocks feed two cuts into a joint downstream
  // block; both blocks must land upstream.
  Circuit c(4);
  c.h(0).cx(0, 1);   // ops 0,1: block A
  c.h(3).cx(3, 2);   // ops 2,3: block B
  c.cx(1, 2);        // op 4: downstream
  const std::array<WirePoint, 2> cuts = {WirePoint{1, 1}, WirePoint{2, 3}};
  const CutAnalysis analysis = analyze_cuts(c, cuts);
  EXPECT_EQ(analysis.op_fragment[0], FragmentId::Upstream);
  EXPECT_EQ(analysis.op_fragment[1], FragmentId::Upstream);
  EXPECT_EQ(analysis.op_fragment[2], FragmentId::Upstream);
  EXPECT_EQ(analysis.op_fragment[3], FragmentId::Upstream);
  EXPECT_EQ(analysis.op_fragment[4], FragmentId::Downstream);
}

TEST(Dag, UntouchedComponentDefaultsUpstream) {
  Circuit c(4);
  c.cx(0, 1);   // op 0 upstream
  c.cx(1, 2);   // op 1 downstream after cut
  c.h(3);       // op 2: disconnected from everything
  const std::array<WirePoint, 1> cuts = {WirePoint{1, 0}};
  const CutAnalysis analysis = analyze_cuts(c, cuts);
  EXPECT_EQ(analysis.op_fragment[2], FragmentId::Upstream);
}

TEST(Dag, RejectsContradictoryCuts) {
  // A cycle: cutting one direction of a feedback loop makes an op both
  // upstream (of one cut) and downstream (of the other).
  Circuit c(2);
  c.cx(0, 1);  // op 0
  c.cx(1, 0);  // op 1
  c.cx(0, 1);  // op 2
  // Cut wire 0 after op 0 and wire 1 after op 1: op 1 must be downstream of
  // cut 1... op ordering makes this contradictory.
  const std::array<WirePoint, 2> cuts = {WirePoint{0, 0}, WirePoint{1, 1}};
  std::string why;
  const auto analysis = try_analyze_cuts(c, cuts, &why);
  EXPECT_FALSE(analysis.has_value());
}

TEST(Dag, WirePointEquality) {
  EXPECT_EQ((WirePoint{1, 2}), (WirePoint{1, 2}));
  EXPECT_FALSE((WirePoint{1, 2}) == (WirePoint{1, 3}));
}

// ---- valid_single_cuts: one bridge scan == try_analyze_cuts per point ------

/// valid_single_cuts(c) against its definition: every (qubit, position)
/// that try_analyze_cuts accepts, in scan order, with that analysis.
void expect_scan_matches_per_point_analysis(const Circuit& c) {
  std::vector<WirePoint> points;
  std::vector<std::size_t> down_ops;
  std::vector<CutAnalysis> analyses;
  for (int q = 0; q < c.num_qubits(); ++q) {
    const std::vector<std::size_t> ops = c.ops_on_qubit(q);
    for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
      const std::array<WirePoint, 1> cuts = {WirePoint{q, ops[i]}};
      std::optional<CutAnalysis> analysis = try_analyze_cuts(c, cuts);
      if (analysis.has_value()) {
        points.push_back(cuts[0]);
        down_ops.push_back(ops[i + 1]);
        analyses.push_back(*std::move(analysis));
      }
    }
  }
  const SingleCuts actual = valid_single_cuts(c);
  ASSERT_EQ(actual.size(), points.size());
  ASSERT_EQ(actual.num_ops, c.num_ops());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(actual.points[i], points[i]);
    EXPECT_EQ(actual.down_ops[i], down_ops[i]);
    const std::span<const FragmentId> sides = actual.sides(i);
    EXPECT_EQ(std::vector<FragmentId>(sides.begin(), sides.end()), analyses[i].op_fragment);
    EXPECT_EQ(analyses[i].cut_qubits, std::vector<int>{points[i].qubit});
  }
}

TEST(Dag, WireChainsAreTheOpsOnEachQubit) {
  Circuit c(5);
  c.h(1).cx(1, 3).ccx(0, 1, 3).ry(0.2, 0).h(3);
  const WireChains chains = wire_chains(c);
  for (int q = 0; q < c.num_qubits(); ++q) {
    const std::span<const std::size_t> ops = chains[q];
    EXPECT_EQ(std::vector<std::size_t>(ops.begin(), ops.end()), c.ops_on_qubit(q)) << q;
  }
}

TEST(Dag, SingleCutScanHandBuiltCases) {
  {
    // Two consecutive 2q ops on one wire pair: two parallel edges, so
    // neither wire between them is a bridge on its own.
    Circuit c(3);
    c.h(0).cx(0, 1).cz(0, 1).ry(0.3, 1).cx(1, 2).h(2);
    expect_scan_matches_per_point_analysis(c);
    EXPECT_EQ(valid_single_cuts(c).size(), 4u);
  }
  {
    // Disconnected sub-circuits: the other block stays upstream.
    Circuit c(4);
    c.h(0).cx(0, 1).ry(0.2, 1).h(2).cx(2, 3).rz(0.4, 3).ry(0.1, 0).h(3);
    expect_scan_matches_per_point_analysis(c);
  }
  {
    // Idle qubits and wires carrying a single op.
    Circuit c(6);
    c.h(1).cx(1, 3).x(4).ry(0.5, 3).cx(3, 1).h(1);
    expect_scan_matches_per_point_analysis(c);
  }
  {
    // Three-qubit gates.
    Circuit c(5);
    c.h(0).h(1).ccx(0, 1, 2).ry(0.3, 2).append(GateKind::CSWAP, {2, 3, 4});
    c.h(4).ccx(2, 3, 4).rz(0.2, 3);
    expect_scan_matches_per_point_analysis(c);
  }
  {
    // A ring: no single cut disconnects it.
    Circuit c(3);
    c.cx(0, 1).cx(1, 2).cx(2, 0);
    expect_scan_matches_per_point_analysis(c);
    EXPECT_TRUE(valid_single_cuts(c).empty());
  }
  EXPECT_TRUE(valid_single_cuts(Circuit(3)).empty());
}

/// A seeded circuit of 1-, 2- and 3-qubit gates on random wires, sparse
/// enough that many wire segments are bridges.
Circuit sparse_random_circuit(int num_qubits, int num_ops, Rng& rng) {
  Circuit c(num_qubits);
  const auto qubit = [&] { return static_cast<int>(rng.uniform_int(0, num_qubits - 1)); };
  for (int i = 0; i < num_ops; ++i) {
    const std::uint64_t kind = rng.uniform_int(0, 9);
    const int a = qubit();
    int b = qubit();
    while (num_qubits > 1 && b == a) b = qubit();
    int t = qubit();
    while (num_qubits > 2 && (t == a || t == b)) t = qubit();
    if (kind < 5 || num_qubits == 1) {
      c.ry(rng.uniform(), a);
    } else if (kind < 9 || num_qubits == 2) {
      c.cx(a, b);
    } else if (rng.uniform_int(0, 1) == 0) {
      c.ccx(a, b, t);
    } else {
      c.append(GateKind::CSWAP, {a, b, t});
    }
  }
  return c;
}

TEST(Dag, SingleCutScanMatchesPerPointAnalysisOnSeededCircuits) {
  Rng rng(424242);
  std::size_t cuts = 0;
  for (int rep = 0; rep < 40; ++rep) {
    for (int n = 1; n <= 8; ++n) {
      SCOPED_TRACE(testing::Message() << "rep " << rep << ", " << n << " qubits");
      const int num_ops = 2 + static_cast<int>(rng.uniform_int(0, 24));
      const Circuit sparse = sparse_random_circuit(n, num_ops, rng);
      expect_scan_matches_per_point_analysis(sparse);
      cuts += valid_single_cuts(sparse).size();

      RandomCircuitOptions options;
      options.num_qubits = n;
      options.depth = 1 + rep % 4;
      options.two_qubit_fraction = 0.3;
      expect_scan_matches_per_point_analysis(random_circuit(options, rng));
      if (n >= 3) {
        GoldenAnsatzOptions golden;
        golden.num_qubits = n;
        expect_scan_matches_per_point_analysis(make_golden_ansatz(golden, rng).circuit);
      }
    }
  }
  EXPECT_GT(cuts, 500u);
}

}  // namespace
}  // namespace qcut::circuit
