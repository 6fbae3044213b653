// FragmentGraph construction: chain splitting, the two-fragment split
// make_bipartition builds (the N=2 chain), rejection of non-chain
// topologies, and the per-bipartition detectors' refusal of longer chains.
// The field-by-field layout of a bipartition is in cutting_bipartition_test.

#include "cutting/fragment_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "common/error.hpp"
#include "cutting/observables.hpp"

namespace qcut::cutting {
namespace {

using circuit::WirePoint;

/// 5 qubits, 3 fragments: {0,1} -q1-> {1,2,3} -q3-> {3,4}.
Circuit chain5() {
  Circuit c(5);
  c.h(0).cx(0, 1).ry(0.3, 1);      // ops 0-2, fragment 0
  c.cx(1, 2).ry(0.5, 2).cx(2, 3);  // ops 3-5, fragment 1
  c.ry(0.7, 3).cx(3, 4).ry(0.2, 4);  // ops 6-8, fragment 2
  return c;
}

std::vector<std::vector<WirePoint>> chain5_boundaries() {
  return {{WirePoint{1, 2}}, {WirePoint{3, 5}}};
}

TEST(FragmentGraph, ThreeFragmentChainStructure) {
  const FragmentGraph graph = make_fragment_chain(chain5(), chain5_boundaries());

  ASSERT_EQ(graph.num_fragments(), 3);
  ASSERT_EQ(graph.num_boundaries(), 2);
  EXPECT_EQ(graph.num_original_qubits, 5);
  EXPECT_EQ(graph.total_cuts(), 2);
  EXPECT_EQ(graph.max_fragment_width(), 3);

  const ChainFragment& f0 = graph.fragments[0];
  const ChainFragment& f1 = graph.fragments[1];
  const ChainFragment& f2 = graph.fragments[2];
  EXPECT_EQ(f0.to_original, (std::vector<int>{0, 1}));
  EXPECT_EQ(f1.to_original, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(f2.to_original, (std::vector<int>{3, 4}));

  // Fragment 0 measures its cut wire tomographically; q0 is a final bit.
  EXPECT_EQ(f0.in_qubits, (std::vector<int>{}));
  EXPECT_EQ(f0.out_cut_qubits, (std::vector<int>{1}));
  EXPECT_EQ(f0.output_original, (std::vector<int>{0}));

  // Fragment 1 re-prepares q1, measures q3 tomographically; q1, q2 final.
  EXPECT_EQ(f1.in_qubits, (std::vector<int>{0}));
  EXPECT_EQ(f1.out_cut_qubits, (std::vector<int>{2}));
  EXPECT_EQ(f1.output_original, (std::vector<int>{1, 2}));

  // Fragment 2 re-prepares q3; everything is a final bit.
  EXPECT_EQ(f2.in_qubits, (std::vector<int>{0}));
  EXPECT_EQ(f2.out_cut_qubits, (std::vector<int>{}));
  EXPECT_EQ(f2.output_original, (std::vector<int>{3, 4}));

  // Boundary wires in all three coordinate systems.
  EXPECT_EQ(graph.boundaries[0].wires[0].original_qubit, 1);
  EXPECT_EQ(graph.boundaries[0].wires[0].up_qubit, 1);
  EXPECT_EQ(graph.boundaries[0].wires[0].down_qubit, 0);
  EXPECT_EQ(graph.boundaries[1].wires[0].original_qubit, 3);
  EXPECT_EQ(graph.boundaries[1].wires[0].up_qubit, 2);
  EXPECT_EQ(graph.boundaries[1].wires[0].down_qubit, 0);

  // Every original qubit is a final bit of exactly one fragment.
  std::vector<int> seen;
  for (const ChainFragment& fragment : graph.fragments) {
    seen.insert(seen.end(), fragment.output_original.begin(),
                fragment.output_original.end());
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));

  // Fragment circuits carry their ops.
  EXPECT_EQ(f0.circuit.num_ops(), 3u);
  EXPECT_EQ(f1.circuit.num_ops(), 3u);
  EXPECT_EQ(f2.circuit.num_ops(), 3u);
}

TEST(FragmentGraph, BipartitionIsTheTwoFragmentChain) {
  Circuit c(4);
  c.cx(0, 1).ry(0.2, 1).cx(1, 2).cx(2, 3);
  const std::array<WirePoint, 1> cuts = {WirePoint{1, 1}};

  const std::vector<std::vector<WirePoint>> boundaries = {{cuts.begin(), cuts.end()}};
  const FragmentGraph graph = make_fragment_chain(c, boundaries);
  const Bipartition bp = make_bipartition(c, cuts);

  ASSERT_EQ(graph.num_fragments(), 2);
  ASSERT_EQ(bp.num_fragments(), 2);
  EXPECT_EQ(graph.fragments[0].to_original, bp.fragments[0].to_original);
  EXPECT_EQ(graph.fragments[1].to_original, bp.fragments[1].to_original);
  EXPECT_EQ(graph.fragments[0].output_qubits, bp.fragments[0].output_qubits);
  EXPECT_EQ(graph.fragments[0].out_cut_qubits, bp.fragments[0].out_cut_qubits);
  EXPECT_EQ(graph.fragments[1].in_qubits, bp.fragments[1].in_qubits);
  EXPECT_EQ(graph.fragments[0].circuit.num_ops(), bp.fragments[0].circuit.num_ops());
  EXPECT_EQ(graph.fragments[1].circuit.num_ops(), bp.fragments[1].circuit.num_ops());

  ASSERT_EQ(bp.num_boundaries(), 1);
  EXPECT_EQ(graph.boundaries[0].wires.size(), bp.boundaries[0].wires.size());
  EXPECT_EQ(graph.boundaries[0].wires[0].original_qubit, bp.boundaries[0].wires[0].original_qubit);
  EXPECT_EQ(graph.boundaries[0].wires[0].up_qubit, bp.boundaries[0].wires[0].up_qubit);
  EXPECT_EQ(graph.boundaries[0].wires[0].down_qubit, bp.boundaries[0].wires[0].down_qubit);
}

TEST(FragmentGraph, FragmentSkippingWireIsRejected) {
  // q0 runs from fragment 0 straight into fragment 2 with no ops in
  // fragment 1: not expressible as a chain.
  Circuit c(4);
  c.h(0).cx(0, 1);             // ops 0-1, fragment 0 on {0,1}
  c.cx(1, 2).ry(0.4, 2);       // ops 2-3, fragment 1 on {1,2}
  c.cx(2, 3).cx(0, 3);         // ops 4-5, fragment 2 wants q0 again
  const std::vector<std::vector<WirePoint>> boundaries = {
      {WirePoint{1, 1}, WirePoint{0, 1}},  // cut q1 and q0 after op 1
      {WirePoint{2, 3}},
  };
  EXPECT_THROW((void)make_fragment_chain(c, boundaries), Error);
}

TEST(FragmentGraph, OutOfOrderBoundariesAreRejected) {
  const Circuit c = chain5();
  auto boundaries = chain5_boundaries();
  std::swap(boundaries[0], boundaries[1]);
  EXPECT_THROW((void)make_fragment_chain(c, boundaries), Error);
}

TEST(FragmentGraph, BipartitionDetectorsRejectLongerChains) {
  // Boundary b of a chain is tested on its whole prefix, so none of the
  // per-bipartition detectors may quietly read fragment 0 of three.
  const FragmentGraph graph = make_fragment_chain(chain5(), chain5_boundaries());
  ASSERT_EQ(graph.num_fragments(), 3);
  const DiagonalObservable observable(std::vector<double>(32, 1.0));
  const std::vector<std::vector<double>> upstream(3, std::vector<double>(4, 0.25));

  EXPECT_THROW((void)detect_golden_exact(graph), Error);
  EXPECT_THROW((void)detect_golden_from_counts(graph, upstream, 1000), Error);
  EXPECT_THROW((void)detect_golden_for_observable(graph, observable), Error);
  EXPECT_THROW((void)try_detect_golden_for_observable(graph, observable), Error);

  // The same detectors accept the two-fragment prefix split of boundary 0.
  const Bipartition bp = make_bipartition(chain5(), chain5_boundaries()[0]);
  EXPECT_NO_THROW((void)detect_golden_exact(bp));
  EXPECT_NO_THROW((void)detect_golden_from_counts(bp, upstream, 1000));
  EXPECT_NO_THROW((void)detect_golden_for_observable(bp, observable));
}

TEST(FragmentGraph, ChainNeglectSpecCountsTerms) {
  const FragmentGraph graph = make_fragment_chain(chain5(), chain5_boundaries());
  ChainNeglectSpec spec = ChainNeglectSpec::none(graph);
  ASSERT_EQ(spec.num_boundaries(), 2);
  EXPECT_EQ(spec.num_active_terms(), 16u);  // 4 x 4
  spec.boundary(0).neglect(0, Pauli::Y);
  EXPECT_EQ(spec.num_active_terms(), 12u);  // 3 x 4
  spec.boundary(1).neglect(0, Pauli::Y);
  EXPECT_EQ(spec.num_active_terms(), 9u);   // 3 x 3
}

}  // namespace
}  // namespace qcut::cutting
