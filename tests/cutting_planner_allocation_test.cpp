// Heap allocations of cut planning and of the simulations around it. A
// plan_best_single_cut or plan_chain_cuts call writes its cut scan into
// flat per-call buffers, keeps op matrices and qubit maps inline, reuses
// one register per role across cuts and builds CutCandidates only for what
// it returns, so it allocates a fixed number of blocks: the same on a
// circuit and on its op-doubled copy, which has more ops and more cuts.
// The reference simulator applies named gates from inline matrices, and
// StatevectorBackend::run_batch forks a state only for a unit with more
// than one member. The test counts every global operator new, so it lives
// in its own binary.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "cutting/fragment_graph.hpp"
#include "cutting/planner.hpp"
#include "cutting/variants.hpp"
#include "sim/statevector.hpp"
#include "support/counting_new.hpp"

namespace qcut::cutting {
namespace {

using circuit::Circuit;
using support::allocations_of;

/// The benchmark's Fig. 2 circuit at `n` qubits (bench/micro_planner's).
Circuit fig2_circuit(int n) {
  Rng rng(static_cast<std::uint64_t>(n));
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = n;
  return circuit::make_golden_ansatz(options, rng).circuit;
}

/// `c` with each op applied twice in a row: twice the ops, and every
/// single-qubit op adds a wire segment, so more cuts.
Circuit doubled(const Circuit& c) {
  Circuit out(c.num_qubits());
  std::vector<int> identity(static_cast<std::size_t>(c.num_qubits()));
  for (int q = 0; q < c.num_qubits(); ++q) identity[static_cast<std::size_t>(q)] = q;
  for (const circuit::Operation& op : c.ops()) {
    out.append_remapped(op, identity).append_remapped(op, identity);
  }
  return out;
}

std::size_t valid_cuts(const Circuit& c) { return enumerate_single_cuts(c).size(); }

ChainPlannerOptions capped(const Circuit& c) {
  ChainPlannerOptions options;
  options.max_fragment_width = c.num_qubits() / 2 + 1;
  return options;
}

// Pinned per-call counts. plan_best_single_cut: the cut scan (15: wire
// chains, op graph, bridge search, flat output), the op matrices and their
// adjoints, the views and records, the f1, full-circuit and screen
// registers, and the returned candidate's golden bases. plan_chain_cuts
// adds the upstream op sets, the chain planner's tables, the plan and the
// fragment chain it builds (30 for one boundary: every plan here has one).
constexpr std::size_t kBestSingleCutAllocations = 26;
constexpr std::size_t kChainAllocations = 64;

TEST(PlannerAllocations, PlanningAllocatesNothingPerCutOrOp) {
  for (const int n : {5, 6, 7}) {
    SCOPED_TRACE(testing::Message() << n << " qubits");
    const Circuit c = fig2_circuit(n);
    const Circuit twice = doubled(c);
    ASSERT_GT(valid_cuts(twice), valid_cuts(c));

    std::optional<CutCandidate> best;
    const std::size_t best_once = allocations_of([&] { best = plan_best_single_cut(c); });
    ASSERT_TRUE(best.has_value());
    const std::size_t best_twice = allocations_of([&] { best = plan_best_single_cut(twice); });
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best_once, kBestSingleCutAllocations);
    EXPECT_EQ(best_twice, kBestSingleCutAllocations);

    std::optional<ChainPlan> plan;
    const std::size_t chain_once = allocations_of([&] { plan = plan_chain_cuts(c, capped(c)); });
    ASSERT_TRUE(plan.has_value());
    ASSERT_EQ(plan->num_boundaries(), 1);
    const std::size_t chain_twice =
        allocations_of([&] { plan = plan_chain_cuts(twice, capped(twice)); });
    ASSERT_TRUE(plan.has_value());
    ASSERT_EQ(plan->num_boundaries(), 1);
    EXPECT_EQ(chain_once, kChainAllocations);
    EXPECT_EQ(chain_twice, kChainAllocations);
  }
}

TEST(PlannerAllocations, ReferenceSimulatorAllocatesNothingPerOp) {
  for (const int n : {5, 6, 7}) {
    SCOPED_TRACE(testing::Message() << n << " qubits");
    const Circuit c = fig2_circuit(n);
    sim::StateVector state(n);
    EXPECT_EQ(allocations_of([&] { state.apply_circuit(c); }), 0u);
    EXPECT_EQ(allocations_of([&] { state.apply_circuit(doubled(c)); }),
              allocations_of([&] { (void)doubled(c); }));
  }
  // Three-qubit gates too.
  Circuit c(4);
  c.h(0).ccx(0, 1, 2).append(circuit::GateKind::CSWAP, {3, 2, 1}).ccx(2, 3, 0);
  sim::StateVector state(4);
  EXPECT_EQ(allocations_of([&] { state.apply_circuit(c); }), 0u);
}

TEST(PlannerAllocations, RunBatchForksAStateOnlyForASharedPrefixUnit) {
  // A one-cut 6-qubit Fig. 2 job: fragment 0's 3 settings share a prefix
  // (one unit of 3), fragment 1's 6 preps are singleton units.
  Rng rng(6);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 6;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::vector<std::vector<circuit::WirePoint>> boundaries = {{ansatz.cut}};
  const FragmentGraph graph = make_fragment_chain(ansatz.circuit, boundaries);
  const ChainNeglectSpec none = ChainNeglectSpec::none(graph);

  backend::StatevectorBackend backend(3);
  const sim::Device& device = backend.device();

  // The downstream preps as a batch of k singletons: each further unit
  // costs its compiles, one state, its job list and its result vector.
  std::vector<Circuit> preps;
  for (const FragmentVariantKey& key : required_fragment_variants(graph, 1, none)) {
    preps.push_back(make_fragment_variant(graph, 1, key).circuit);
  }
  ASSERT_EQ(preps.size(), 6u);
  const auto batch_of = [&](std::size_t k) {
    backend::BatchRequest batch;
    batch.exact = true;
    for (std::size_t i = 0; i < k; ++i) batch.jobs.push_back(backend::BatchJob{preps[i], 1, i});
    return batch;
  };
  const auto run = [&](const backend::BatchRequest& batch) {
    return allocations_of([&] { (void)backend.run_batch(batch); });
  };
  (void)run(batch_of(preps.size()));  // first-call set-up
  for (std::size_t k = 2; k <= preps.size(); ++k) {
    SCOPED_TRACE(testing::Message() << k << " singletons");
    const Circuit& prep = preps[k - 1];
    std::unique_ptr<sim::CompiledProgram> prefix;
    const std::size_t compiles =
        allocations_of([&] { prefix = device.compile_prefix(prep, 0); }) +
        allocations_of([&] { (void)device.compile_suffix(*prefix, prep); });
    const std::size_t state =
        allocations_of([&] { (void)device.create_state(prep.num_qubits()); });
    EXPECT_EQ(run(batch_of(k)) - run(batch_of(k - 1)), compiles + state + 2);
  }
}

}  // namespace
}  // namespace qcut::cutting
