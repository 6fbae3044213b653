// Fixed total shot budgets: the golden cutting point concentrates the same
// budget on fewer variants, so accuracy at equal cost improves - the
// resource-economics reading of the paper's runtime result.

#include <gtest/gtest.h>
#include <span>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "common/error.hpp"
#include "cutting/pipeline.hpp"
#include "metrics/distance.hpp"
#include "sim/statevector.hpp"
#include "support/run_cut.hpp"

namespace qcut::cutting {
namespace {

TEST(ShotBudget, SplitsEvenlyWithRemainderToEarliest) {
  Rng rng(1);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const FragmentGraph graph = make_bipartition(ansatz.circuit, cuts);

  backend::StatevectorBackend backend(2);
  ExecutionOptions exec;
  exec.total_shot_budget = 9005;  // 9 variants: 5 get 1001 shots, 4 get 1000
  const ChainFragmentData data =
      execute_chain(graph, ChainNeglectSpec::none(graph), backend, exec);
  EXPECT_EQ(data.total_shots, 9005u);
  EXPECT_EQ(data.total_jobs, 9u);
  EXPECT_EQ(data.shots_per_variant, 1000u);  // the smallest share
}

TEST(ShotBudget, BudgetTooSmallRejected) {
  Rng rng(2);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const FragmentGraph graph = make_bipartition(ansatz.circuit, cuts);
  backend::StatevectorBackend backend(3);
  ExecutionOptions exec;
  exec.total_shot_budget = 5;  // fewer than 9 variants
  EXPECT_THROW((void)execute_chain(graph, ChainNeglectSpec::none(graph), backend, exec), Error);
}

TEST(ShotBudget, GoldenGetsMoreShotsPerVariantAtEqualBudget) {
  Rng rng(3);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const FragmentGraph graph = make_bipartition(ansatz.circuit, cuts);

  NeglectSpec golden(1);
  golden.neglect(0, ansatz.golden_basis);

  backend::StatevectorBackend backend(4);
  ExecutionOptions exec;
  exec.total_shot_budget = 18000;
  const ChainFragmentData standard_data =
      execute_chain(graph, ChainNeglectSpec::none(graph), backend, exec);
  const ChainFragmentData golden_data =
      execute_chain(graph, ChainNeglectSpec{{golden}}, backend, exec);

  EXPECT_EQ(standard_data.total_shots, 18000u);
  EXPECT_EQ(golden_data.total_shots, 18000u);
  EXPECT_EQ(standard_data.shots_per_variant, 2000u);  // 18000 / 9
  EXPECT_EQ(golden_data.shots_per_variant, 3000u);    // 18000 / 6
}

TEST(ShotBudget, GoldenIsMoreAccurateAtEqualBudget) {
  // Average d_w over several trials at a fixed total budget: golden should
  // beat (or at least match) standard because each variant gets 1.5x shots.
  Rng rng(4);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};

  sim::StateVector sv(5);
  sv.apply_circuit(ansatz.circuit);
  const std::vector<double> truth = sv.probabilities();

  backend::StatevectorBackend backend(5);
  double standard_total = 0.0, golden_total = 0.0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    CutRunOptions standard;
    standard.total_shot_budget = 9000;
    standard.seed_stream_base = static_cast<std::uint64_t>(trial) << 24;
    standard_total += metrics::weighted_distance(
        run_cut(ansatz.circuit, cuts, backend, standard).probabilities(), truth);

    CutRunOptions golden_run = standard;
    golden_run.golden_mode = GoldenMode::Provided;
    golden_run.provided_spec = NeglectSpec(1);
    golden_run.provided_spec->neglect(0, ansatz.golden_basis);
    golden_total += metrics::weighted_distance(
        run_cut(ansatz.circuit, cuts, backend, golden_run).probabilities(), truth);
  }
  // Allow slack for statistical fluctuation; golden must not be clearly worse.
  EXPECT_LT(golden_total, 1.3 * standard_total);
}

TEST(ShotBudget, PipelinePlumbing) {
  Rng rng(6);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  backend::StatevectorBackend backend(7);
  CutRunOptions run;
  run.total_shot_budget = 4500;
  const CutResponse report = run_cut(ansatz.circuit, cuts, backend, run);
  EXPECT_EQ(report.data.total_shots, 4500u);
  EXPECT_EQ(report.backend_delta.shots, 4500u);
}

}  // namespace
}  // namespace qcut::cutting
