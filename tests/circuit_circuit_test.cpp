#include "circuit/circuit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "cutting/variants.hpp"
#include "linalg/ops.hpp"
#include "sim/statevector.hpp"

namespace qcut::circuit {
namespace {

TEST(Circuit, ConstructionBounds) {
  EXPECT_THROW(Circuit(0), Error);
  EXPECT_THROW(Circuit(31), Error);
  EXPECT_NO_THROW(Circuit(1));
  EXPECT_NO_THROW(Circuit(30));
}

TEST(Circuit, AppendValidation) {
  Circuit c(3);
  EXPECT_THROW(c.append(GateKind::H, {3}), Error);            // out of range
  EXPECT_THROW(c.append(GateKind::CX, {1, 1}), Error);        // duplicate qubits
  EXPECT_THROW(c.append(GateKind::CX, {0}), Error);           // wrong arity
  EXPECT_THROW(c.append(GateKind::RX, {0}), Error);           // missing param
  EXPECT_THROW(c.append(GateKind::H, {0}, {0.1}), Error);     // extra param
  EXPECT_THROW(c.append(GateKind::Custom, {0}), Error);       // must use append_custom
  EXPECT_EQ(c.num_ops(), 0u);
  c.h(0).cx(0, 1).rx(0.5, 2);
  EXPECT_EQ(c.num_ops(), 3u);
}

TEST(Circuit, AppendCustomValidation) {
  Circuit c(2);
  // Non-unitary rejected.
  CMat bad = {{cx{1, 0}, cx{1, 0}}, {cx{0, 0}, cx{1, 0}}};
  EXPECT_THROW(c.append_custom(bad, {0}), Error);
  // Wrong dimension rejected.
  EXPECT_THROW(c.append_custom(CMat::identity(4), {0}), Error);
  EXPECT_NO_THROW(c.append_custom(CMat::identity(4), {0, 1}, "block"));
  EXPECT_EQ(c.op(0).label, "block");
}

TEST(Circuit, OperationMatrixIsTheGateMatrix) {
  Circuit c(2);
  c.rx(1.25, 0).append_custom(gate_matrix(GateKind::ISwap, {}), {0, 1}, "block");
  const CMat rx = c.op(0).matrix();
  const CMat expected = gate_matrix(GateKind::RX, {1.25});
  ASSERT_EQ(rx.rows(), 2u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(rx.data()[i], expected.data()[i]);
  const CMat custom = c.op(1).matrix();
  EXPECT_EQ(custom.rows(), 4u);
  EXPECT_TRUE(custom.approx_equal(c.op(1).custom, 0.0));
}

TEST(Circuit, ComposeAndRemap) {
  Circuit inner(2);
  inner.h(0).cx(0, 1);

  Circuit outer(4);
  const std::array<int, 2> map = {2, 3};
  outer.compose(inner, map);
  EXPECT_EQ(outer.num_ops(), 2u);
  EXPECT_EQ(outer.op(0).qubits, (std::vector<int>{2}));
  EXPECT_EQ(outer.op(1).qubits, (std::vector<int>{2, 3}));

  // remapped: move back down
  std::vector<int> down = {-1, -1, 0, 1};
  const Circuit back = outer.remapped(down, 2);
  EXPECT_EQ(back.op(1).qubits, (std::vector<int>{0, 1}));

  // remapping an op whose qubit has no mapping fails
  std::vector<int> broken = {-1, -1, -1, 1};
  EXPECT_THROW((void)outer.remapped(broken, 2), Error);
}

TEST(Circuit, InverseReversesTheUnitary) {
  Circuit c(2);
  c.h(0).t(0).cx(0, 1).rz(0.3, 1).append(GateKind::ISwap, {0, 1});
  Circuit round_trip(2);
  round_trip.compose(c);
  round_trip.compose(c.inverse());
  const CMat u = sim::circuit_unitary(round_trip);
  EXPECT_TRUE(u.approx_equal(CMat::identity(4), 1e-9));
}

TEST(Circuit, InverseOfCustomUsesDagger) {
  Circuit c(1);
  c.append_custom(gate_matrix(GateKind::S, {}), {0}, "sgate");
  const Circuit inv = c.inverse();
  EXPECT_EQ(inv.op(0).kind, GateKind::Custom);
  EXPECT_TRUE(inv.op(0).matrix().approx_equal(gate_matrix(GateKind::Sdg, {}), 1e-12));
}

TEST(Circuit, SliceAndOpAccess) {
  Circuit c(2);
  c.h(0).x(1).cx(0, 1).z(0);
  const Circuit mid = c.slice(1, 3);
  EXPECT_EQ(mid.num_ops(), 2u);
  EXPECT_EQ(mid.op(0).kind, GateKind::X);
  EXPECT_EQ(mid.op(1).kind, GateKind::CX);
  EXPECT_THROW((void)c.slice(3, 2), Error);
  EXPECT_THROW((void)c.op(4), Error);
}

TEST(Circuit, DepthComputation) {
  Circuit c(3);
  EXPECT_EQ(c.depth(), 0);
  c.h(0);
  EXPECT_EQ(c.depth(), 1);
  c.h(1);  // parallel with the first
  EXPECT_EQ(c.depth(), 1);
  c.cx(0, 1);
  EXPECT_EQ(c.depth(), 2);
  c.h(2);  // parallel wire
  EXPECT_EQ(c.depth(), 2);
  c.cx(1, 2);
  EXPECT_EQ(c.depth(), 3);
}

TEST(Circuit, TwoQubitOpCountAndActiveQubits) {
  Circuit c(4);
  c.h(0).cx(0, 1).swap(1, 2).rz(0.2, 1);
  EXPECT_EQ(c.two_qubit_op_count(), 2u);
  EXPECT_EQ(c.active_qubits(), (std::vector<int>{0, 1, 2}));
}

TEST(Circuit, OpsOnQubit) {
  Circuit c(3);
  c.h(0).cx(0, 1).x(2).cx(1, 2);
  EXPECT_EQ(c.ops_on_qubit(0), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(c.ops_on_qubit(1), (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(c.ops_on_qubit(2), (std::vector<std::size_t>{2, 3}));
  EXPECT_THROW((void)c.ops_on_qubit(5), Error);
}

// ---- Inline qubit and parameter lists -----------------------------------------

/// One op of each list shape the inline storage distinguishes: 1-3 qubits
/// with 0, 1 and 3 parameters (no named gate takes 2), and Custom blocks on
/// 4 and 5 qubits, whose qubit lists outgrow the inline capacity.
Circuit list_shapes() {
  Circuit c(6);
  c.h(0);                                   // 1 qubit, 0 params
  c.rx(0.25, 1);                            // 1 qubit, 1 param
  c.u(0.1, -0.2, 0.3, 2);                   // 1 qubit, 3 params
  c.cx(3, 1);                               // 2 qubits, 0 params
  c.append(GateKind::RZZ, {4, 0}, {-0.7});  // 2 qubits, 1 param
  c.ccx(5, 2, 0);                           // 3 qubits, 0 params
  const CMat h = gate_matrix(GateKind::H, {});
  const CMat s = gate_matrix(GateKind::S, {});
  const CMat t = gate_matrix(GateKind::T, {});
  c.append_custom(linalg::kron_all({h, s, t, h}), {1, 4, 2, 5}, "u4");
  c.append_custom(linalg::kron_all({t, h, h, s, t}), {5, 3, 1, 0, 2}, "u5");
  return c;
}

/// The qubit lists of list_shapes(), op by op.
std::vector<std::vector<int>> list_shape_qubits() {
  return {{0}, {1}, {2}, {3, 1}, {4, 0}, {5, 2, 0}, {1, 4, 2, 5}, {5, 3, 1, 0, 2}};
}

/// Every op of `a` equals the op of `b` at the same index (same_operation,
/// labels included).
void expect_same_ops(const Circuit& a, const Circuit& b) {
  ASSERT_EQ(a.num_ops(), b.num_ops());
  for (std::size_t i = 0; i < a.num_ops(); ++i) {
    EXPECT_TRUE(same_operation(a.op(i), b.op(i))) << i;
    EXPECT_EQ(a.op(i).label, b.op(i).label) << i;
  }
}

TEST(InlineLists, HoldEveryListShape) {
  const Circuit c = list_shapes();
  const std::vector<std::vector<int>> qubits = list_shape_qubits();
  ASSERT_EQ(c.num_ops(), qubits.size());
  for (std::size_t i = 0; i < c.num_ops(); ++i) {
    EXPECT_EQ(c.op(i).qubits, qubits[i]) << i;
    EXPECT_EQ(std::vector<int>(c.op(i).qubits.begin(), c.op(i).qubits.end()), qubits[i]) << i;
    EXPECT_EQ(c.op(i).qubits.front(), qubits[i].front()) << i;
    EXPECT_EQ(c.op(i).qubits.back(), qubits[i].back()) << i;
  }
  EXPECT_TRUE(c.op(0).params.empty());
  EXPECT_EQ(c.op(1).params, (std::vector<double>{0.25}));
  EXPECT_EQ(c.op(2).params, (std::vector<double>{0.1, -0.2, 0.3}));
  EXPECT_EQ(c.op(4).params, (std::vector<double>{-0.7}));
  EXPECT_TRUE(c.op(7).params.empty());
}

TEST(InlineLists, SurviveCopyAndMove) {
  const Circuit c = list_shapes();
  Circuit copy = c;
  expect_same_ops(copy, c);
  const Circuit moved = std::move(copy);
  expect_same_ops(moved, c);

  // Op by op, for the inline and the heap-backed qubit lists alike.
  for (std::size_t i = 0; i < c.num_ops(); ++i) {
    Operation op = c.op(i);
    Operation taken = std::move(op);
    EXPECT_TRUE(same_operation(taken, c.op(i))) << i;
    op = taken;  // a moved-from op takes new lists
    EXPECT_TRUE(same_operation(op, c.op(i))) << i;
    op = c.op((i + 1) % c.num_ops());  // and lists of another shape
    EXPECT_TRUE(same_operation(op, c.op((i + 1) % c.num_ops()))) << i;
  }
}

TEST(InlineLists, SurviveRemappingAndComposition) {
  const Circuit c = list_shapes();
  const std::vector<std::vector<int>> qubits = list_shape_qubits();
  const std::vector<int> rotate = {2, 3, 4, 5, 0, 1};  // q -> q + 2 mod 6
  const std::vector<int> unrotate = {4, 5, 0, 1, 2, 3};

  const Circuit rotated = c.remapped(rotate, 6);
  ASSERT_EQ(rotated.num_ops(), c.num_ops());
  for (std::size_t i = 0; i < c.num_ops(); ++i) {
    std::vector<int> expected = qubits[i];
    for (int& q : expected) q = rotate[static_cast<std::size_t>(q)];
    EXPECT_EQ(rotated.op(i).qubits, expected) << i;
    EXPECT_EQ(rotated.op(i).params, c.op(i).params) << i;
  }
  expect_same_ops(rotated.remapped(unrotate, 6), c);

  // compose onto a wider register: qubit j lands on 7 - j.
  Circuit wide(8);
  wide.x(7);
  const std::vector<int> reverse = {7, 6, 5, 4, 3, 2};
  wide.compose(c, reverse);
  ASSERT_EQ(wide.num_ops(), c.num_ops() + 1);
  for (std::size_t i = 0; i < c.num_ops(); ++i) {
    std::vector<int> expected = qubits[i];
    for (int& q : expected) q = reverse[static_cast<std::size_t>(q)];
    EXPECT_EQ(wide.op(i + 1).qubits, expected) << i;
    EXPECT_EQ(wide.op(i + 1).params, c.op(i).params) << i;
  }
  const std::vector<int> back = {-1, -1, 5, 4, 3, 2, 1, 0};
  expect_same_ops(wide.slice(1, wide.num_ops()).remapped(back, 6), c);

  // A mapping that merges two qubits of a heap-backed list is rejected.
  const std::vector<int> merge = {0, 1, 2, 3, 4, 1};
  EXPECT_THROW((void)c.slice(6, 7).remapped(merge, 6), Error);
}

TEST(InlineLists, SurviveInversion) {
  const Circuit c = list_shapes();
  const Circuit inv = c.inverse();
  ASSERT_EQ(inv.num_ops(), c.num_ops());
  for (std::size_t i = 0; i < c.num_ops(); ++i) {
    const Operation& original = c.op(c.num_ops() - 1 - i);
    EXPECT_EQ(inv.op(i).qubits, original.qubits) << i;
    EXPECT_EQ(inv.op(i).params.size(), original.params.size()) << i;
  }
  EXPECT_EQ(inv.op(5).params, (std::vector<double>{-0.1, -0.3, 0.2}));  // U(-theta, -lambda, -phi)
  // Negating an angle twice and taking the dagger twice are exact.
  const Circuit twice = inv.inverse();
  ASSERT_EQ(twice.num_ops(), c.num_ops());
  EXPECT_EQ(common_prefix_ops(twice, c), c.num_ops());
}

TEST(InlineLists, DecideSameOperationAndCommonPrefix) {
  const Circuit c = list_shapes();
  EXPECT_EQ(common_prefix_ops(c, list_shapes()), c.num_ops());
  for (std::size_t i = 0; i < c.num_ops(); ++i) {
    // The same op with its qubit list reversed (every list but the 1-qubit
    // ones changes) or with a longer one.
    Circuit changed = c.slice(0, i);
    const Operation& op = c.op(i);
    std::vector<int> reversed(op.qubits.begin(), op.qubits.end());
    std::reverse(reversed.begin(), reversed.end());
    if (op.kind == GateKind::Custom) {
      changed.append_custom(op.custom, reversed, op.label);
    } else {
      changed.append(op.kind, reversed, op.params);
    }
    changed.compose(c.slice(i + 1, c.num_ops()));
    const bool differs = op.num_qubits() > 1;
    EXPECT_EQ(same_operation(changed.op(i), op), !differs) << i;
    EXPECT_EQ(common_prefix_ops(changed, c), differs ? i : c.num_ops()) << i;
  }
  // Parameters are compared too, bit for bit.
  Circuit other_angle(6);
  other_angle.h(0).rx(-0.25, 1);
  EXPECT_EQ(common_prefix_ops(other_angle, c.slice(0, 2)), 1u);
}

TEST(InlineLists, SortForPrefixGroupingLikeStdVector) {
  // Circuits that differ only in the qubit list of their second op, a Custom
  // block of 1-5 qubits, so group_by_shared_prefix orders them by those
  // lists alone.
  const std::vector<std::vector<int>> lists = {
      {2, 0, 1, 3}, {2, 0, 1}, {2, 0, 1, 3, 4}, {0, 5, 1, 2}, {2, 0, 3},
      {0, 5, 1, 2, 3}, {1}, {2, 0, 1, 4}, {2}, {0, 5}, {1, 0, 2, 3, 5}};
  std::vector<Circuit> circuits;
  for (const std::vector<int>& qubits : lists) {
    Circuit c(6);
    c.h(0);
    c.append_custom(CMat::identity(pow2(static_cast<int>(qubits.size()))), qubits, "id");
    circuits.push_back(std::move(c));
  }
  std::vector<const Circuit*> pointers;
  for (const Circuit& c : circuits) pointers.push_back(&c);

  std::vector<std::size_t> sorted;
  for (const cutting::PrefixGroup& group : cutting::group_by_shared_prefix(pointers)) {
    sorted.insert(sorted.end(), group.members.begin(), group.members.end());
  }
  std::vector<std::size_t> expected(lists.size());
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  std::sort(expected.begin(), expected.end(),
            [&](std::size_t x, std::size_t y) { return lists[x] < lists[y]; });
  EXPECT_EQ(sorted, expected);
}

TEST(InlineLists, CompareLikeStdVector) {
  // Seeded lists of 0-5 values (the inline capacity is 3), many sharing a
  // prefix: == and < must agree with std::vector's on every pair.
  Rng rng(11);
  std::vector<std::vector<int>> values;
  for (int k = 0; k < 60; ++k) {
    std::vector<int> list(rng.uniform_int(0, 5));
    for (int& v : list) v = static_cast<int>(rng.uniform_int(0, 2));
    values.push_back(std::move(list));
  }
  for (const std::vector<int>& a : values) {
    const QubitList la = a;
    for (const std::vector<int>& b : values) {
      const QubitList lb = b;
      EXPECT_EQ(la == lb, a == b);
      EXPECT_EQ(la < lb, a < b);
    }
  }
  const ParamList two = {0.5, -0.5};
  EXPECT_EQ(two, (std::vector<double>{0.5, -0.5}));
  EXPECT_TRUE(ParamList{0.5} < two);
}

TEST(Circuit, ComposeWidthCheck) {
  Circuit narrow(2);
  Circuit wide(3);
  wide.h(2);
  EXPECT_THROW(narrow.compose(wide), Error);
  EXPECT_NO_THROW(wide.compose(narrow));
}

}  // namespace
}  // namespace qcut::circuit
