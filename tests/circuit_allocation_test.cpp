// Heap allocations of circuit handling. An op stores its qubit and
// parameter lists inline, so copying or remapping a circuit allocates its op
// vector and nothing per op. The test counts every global operator new, so
// it lives in its own binary.

#include <gtest/gtest.h>

#include <bit>
#include <numeric>
#include <vector>

#include "circuit/circuit.hpp"
#include "support/counting_new.hpp"
#include "support/qaoa_path.hpp"

namespace qcut::circuit {
namespace {

using support::allocations_of;

/// The benchmark's parameter-sweep circuit: 81 ops, RZZ and RX (a qubit
/// list and a parameter list each) and H (a qubit list).
Circuit sweep_circuit() { return qaoa_path(12, 3, 0.4, 0.3); }

TEST(CircuitAllocations, CopyAllocatesOnlyTheOpVector) {
  const Circuit c = sweep_circuit();
  ASSERT_EQ(c.num_ops(), 81u);
  std::size_t ops = 0;
  EXPECT_EQ(allocations_of([&] {
              const Circuit copy = c;
              ops = copy.num_ops();
            }),
            1u);
  EXPECT_EQ(ops, c.num_ops());
}

TEST(CircuitAllocations, RemapAllocatesOnlyTheOpVector) {
  const Circuit c = sweep_circuit();
  std::vector<int> reverse(12);
  std::iota(reverse.rbegin(), reverse.rend(), 0);
  std::size_t ops = 0;
  EXPECT_EQ(allocations_of([&] { ops = c.remapped(reverse, 12).num_ops(); }), 1u);
  EXPECT_EQ(ops, c.num_ops());
}

TEST(CircuitAllocations, BuildingAllocatesOnlyToGrowTheOpVector) {
  std::size_t ops = 0;
  const std::size_t count = allocations_of([&] { ops = sweep_circuit().num_ops(); });
  // Geometric growth of the op vector: one allocation per capacity 1, 2,
  // 4, ... up to the first power of two >= ops, none per op.
  EXPECT_LE(count, static_cast<std::size_t>(std::bit_width(ops)) + 1);
}

}  // namespace
}  // namespace qcut::circuit
