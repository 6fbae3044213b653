// make_bipartition: the two-fragment FragmentGraph a single set of cuts
// yields. Checks fragment widths, qubit maps, boundary wires, output and
// cut qubits, and the ops each fragment circuit carries.

#include "cutting/fragment_graph.hpp"

#include <gtest/gtest.h>

#include <array>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace qcut::cutting {
namespace {

using circuit::WirePoint;

/// The paper's 3-qubit example: U12 on (0,1), cut wire 1, U23 on (1,2).
Circuit chain3() {
  Circuit c(3);
  c.cx(0, 1);    // op 0 upstream
  c.ry(0.4, 1);  // op 1 upstream
  c.cx(1, 2);    // op 2 downstream
  c.h(2);        // op 3 downstream
  return c;
}

TEST(Bipartition, ThreeQubitChain) {
  const std::array<WirePoint, 1> cuts = {WirePoint{1, 1}};
  const Bipartition bp = make_bipartition(chain3(), cuts);
  ASSERT_EQ(bp.num_fragments(), 2);
  const ChainFragment& f1 = bp.fragments[0];
  const ChainFragment& f2 = bp.fragments[1];

  EXPECT_EQ(bp.num_original_qubits, 3);
  EXPECT_EQ(bp.total_cuts(), 1);
  EXPECT_EQ(f1.width(), 2);
  EXPECT_EQ(f2.width(), 2);
  EXPECT_EQ(f1.to_original, (std::vector<int>{0, 1}));
  EXPECT_EQ(f2.to_original, (std::vector<int>{1, 2}));

  ASSERT_EQ(bp.boundaries[0].wires.size(), 1u);
  EXPECT_EQ(bp.boundaries[0].wires[0].original_qubit, 1);
  EXPECT_EQ(bp.boundaries[0].wires[0].up_qubit, 1);
  EXPECT_EQ(bp.boundaries[0].wires[0].down_qubit, 0);

  EXPECT_EQ(f1.output_qubits, (std::vector<int>{0}));
  EXPECT_EQ(f1.output_width(), 1);
  EXPECT_EQ(f1.out_cut_qubits, (std::vector<int>{1}));
  EXPECT_EQ(f2.in_qubits, (std::vector<int>{0}));

  // Fragment circuits carry the right ops.
  EXPECT_EQ(f1.circuit.num_ops(), 2u);
  EXPECT_EQ(f1.circuit.op(0).kind, circuit::GateKind::CX);
  EXPECT_EQ(f1.circuit.op(0).qubits, (std::vector<int>{0, 1}));
  EXPECT_EQ(f2.circuit.num_ops(), 2u);
  EXPECT_EQ(f2.circuit.op(0).kind, circuit::GateKind::CX);
  EXPECT_EQ(f2.circuit.op(0).qubits, (std::vector<int>{0, 1}));  // remapped 1->0, 2->1
}

TEST(Bipartition, FiveQubitMiddleCut) {
  // 5-qubit circuit cut on the middle wire: 3 + 3 fragments like the paper.
  Circuit c(5);
  c.h(0).cx(0, 1).cx(1, 2).ry(0.3, 2);  // upstream {0,1,2}
  c.cx(2, 3).cx(3, 4).rz(0.7, 4);       // downstream {2,3,4}
  const std::array<WirePoint, 1> cuts = {WirePoint{2, 3}};
  const Bipartition bp = make_bipartition(c, cuts);
  EXPECT_EQ(bp.fragments[0].width(), 3);
  EXPECT_EQ(bp.fragments[1].width(), 3);
  EXPECT_EQ(bp.fragments[0].to_original, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(bp.fragments[1].to_original, (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(bp.fragments[0].output_qubits, (std::vector<int>{0, 1}));
}

TEST(Bipartition, IdleQubitGoesUpstream) {
  Circuit c(4);
  c.cx(0, 1).ry(0.2, 1).cx(1, 2);  // qubit 3 idle
  const std::array<WirePoint, 1> cuts = {WirePoint{1, 1}};
  const Bipartition bp = make_bipartition(c, cuts);
  EXPECT_EQ(bp.fragments[0].to_original, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(bp.fragments[1].to_original, (std::vector<int>{1, 2}));
  // Idle qubit 3 is an f1 output.
  EXPECT_EQ(bp.fragments[0].output_qubits, (std::vector<int>{0, 2}));
}

TEST(Bipartition, TwoCutsSharedDownstream) {
  Circuit c(4);
  c.h(0).cx(0, 1);  // block A
  c.h(3).cx(3, 2);  // block B
  c.cx(1, 2);       // downstream
  const std::array<WirePoint, 2> cuts = {WirePoint{1, 1}, WirePoint{2, 3}};
  const Bipartition bp = make_bipartition(c, cuts);
  EXPECT_EQ(bp.total_cuts(), 2);
  EXPECT_EQ(bp.fragments[0].to_original, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(bp.fragments[1].to_original, (std::vector<int>{1, 2}));
  EXPECT_EQ(bp.fragments[0].output_qubits, (std::vector<int>{0, 3}));
  EXPECT_EQ(bp.fragments[0].out_cut_qubits, (std::vector<int>{1, 2}));
  EXPECT_EQ(bp.fragments[1].in_qubits, (std::vector<int>{0, 1}));
}

TEST(Bipartition, CutOrderIsPreserved) {
  Circuit c(4);
  c.h(0).cx(0, 1);
  c.h(3).cx(3, 2);
  c.cx(1, 2);
  // Same cuts, reversed order: the wires must follow the caller's order.
  const std::array<WirePoint, 2> cuts = {WirePoint{2, 3}, WirePoint{1, 1}};
  const Bipartition bp = make_bipartition(c, cuts);
  EXPECT_EQ(bp.boundaries[0].wires[0].original_qubit, 2);
  EXPECT_EQ(bp.boundaries[0].wires[1].original_qubit, 1);
}

TEST(Bipartition, InvalidCutsThrow) {
  const Circuit c = chain3();
  // Cut after final op on the wire.
  EXPECT_THROW((void)make_bipartition(c, std::array<WirePoint, 1>{WirePoint{2, 3}}), Error);
  // Op not acting on the qubit.
  EXPECT_THROW((void)make_bipartition(c, std::array<WirePoint, 1>{WirePoint{0, 2}}), Error);
  // Empty cut list.
  EXPECT_THROW((void)make_bipartition(c, std::span<const WirePoint>{}), Error);
}

TEST(Bipartition, CustomGatesSurviveFragmentation) {
  Circuit c(3);
  c.append_custom(linalg::CMat::identity(4), {0, 1}, "U1");
  c.ry(0.5, 1);
  c.append_custom(linalg::CMat::identity(4), {1, 2}, "U2");
  const std::array<WirePoint, 1> cuts = {WirePoint{1, 1}};
  const Bipartition bp = make_bipartition(c, cuts);
  EXPECT_EQ(bp.fragments[0].circuit.op(0).label, "U1");
  EXPECT_EQ(bp.fragments[1].circuit.op(0).label, "U2");
}

}  // namespace
}  // namespace qcut::cutting
