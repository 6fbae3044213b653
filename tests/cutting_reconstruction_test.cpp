// Integration tests of the full cut -> execute -> reconstruct pipeline with
// exact fragment distributions: the reconstructed distribution must equal
// the uncut circuit's distribution to numerical precision. This is the core
// correctness property of the whole library (Eq. 13 of the paper).

#include <gtest/gtest.h>
#include <span>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "cutting/pipeline.hpp"
#include "sim/statevector.hpp"
#include "support/run_cut.hpp"

namespace qcut {
namespace {

using circuit::Circuit;
using circuit::GateSet;
using circuit::RandomCircuitOptions;
using circuit::WirePoint;
using cutting::CutRunOptions;
using cutting::GoldenMode;

std::vector<double> uncut_exact(const Circuit& c) {
  sim::StateVector sv(c.num_qubits());
  sv.apply_circuit(c);
  return sv.probabilities();
}

void expect_distributions_equal(const std::vector<double>& a, const std::vector<double>& b,
                                double tol = 1e-9) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "outcome " << i;
  }
}

/// Hand-built 3-qubit chain circuit: U12 on (0,1), cut on wire 1, U23 on (1,2).
Circuit chain3(std::uint64_t seed) {
  Rng rng(seed);
  Circuit c(3);
  RandomCircuitOptions options;
  options.num_qubits = 3;
  options.depth = 2;
  const std::array<int, 2> low = {0, 1};
  const std::array<int, 2> high = {1, 2};
  c.cx(0, 1);
  c.compose(circuit::random_circuit_on(options, low, 3, rng));
  c.cx(1, 2);
  c.compose(circuit::random_circuit_on(options, high, 3, rng));
  return c;
}

WirePoint last_upstream_point(const Circuit& c, int qubit, std::size_t before_op) {
  // Cut after the last op on `qubit` with index < before_op.
  std::size_t after = 0;
  for (std::size_t i = 0; i < before_op; ++i) {
    if (c.op(i).acts_on(qubit)) after = i;
  }
  return WirePoint{qubit, after};
}

TEST(Reconstruction, ThreeQubitChainExactMatchesUncut) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    const Circuit c = chain3(seed);
    // The cut sits after the last op of the upstream block on qubit 1;
    // ops are [cx01, U1(2 layers on {0,1}), cx12, U2...]; find the cx12.
    std::size_t cx12 = 0;
    for (std::size_t i = 0; i < c.num_ops(); ++i) {
      if (c.op(i).acts_on(2)) {
        cx12 = i;
        break;
      }
    }
    const WirePoint cut = last_upstream_point(c, 1, cx12);

    backend::StatevectorBackend backend(42);
    CutRunOptions options;
    options.exact = true;
    const std::array<WirePoint, 1> cuts = {cut};
    const auto report = run_cut(c, cuts, backend, options);

    expect_distributions_equal(report.reconstruction.raw_probabilities, uncut_exact(c));
    EXPECT_EQ(report.reconstruction.terms, 4u);
  }
}

struct SweepParam {
  int num_qubits;
  int cut_qubit;
  std::uint64_t seed;

  friend void PrintTo(const SweepParam& p, std::ostream* os) {
    *os << "n" << p.num_qubits << "_cut" << p.cut_qubit << "_seed" << p.seed;
  }
};

class GoldenAnsatzSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(GoldenAnsatzSweep, ExactReconstructionMatchesUncut) {
  const SweepParam param = GetParam();
  Rng rng(param.seed);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = param.num_qubits;
  options.cut_qubit = param.cut_qubit;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);

  backend::StatevectorBackend backend(7);
  CutRunOptions run;
  run.exact = true;
  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  const auto report = run_cut(ansatz.circuit, cuts, backend, run);

  expect_distributions_equal(report.reconstruction.raw_probabilities,
                             uncut_exact(ansatz.circuit));
}

TEST_P(GoldenAnsatzSweep, GoldenReconstructionAlsoMatchesUncut) {
  // Neglecting the designed golden basis must not change the result at all
  // (the skipped terms are identically zero): the paper's "no loss of
  // accuracy" claim, exact version.
  const SweepParam param = GetParam();
  Rng rng(param.seed);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = param.num_qubits;
  options.cut_qubit = param.cut_qubit;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);

  backend::StatevectorBackend backend(7);
  CutRunOptions run;
  run.exact = true;
  run.golden_mode = GoldenMode::Provided;
  run.provided_spec = cutting::NeglectSpec(1);
  run.provided_spec->neglect(0, ansatz.golden_basis);

  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  const auto report = run_cut(ansatz.circuit, cuts, backend, run);

  expect_distributions_equal(report.reconstruction.raw_probabilities,
                             uncut_exact(ansatz.circuit));
  EXPECT_EQ(report.reconstruction.terms, 3u);
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndSeeds, GoldenAnsatzSweep,
    ::testing::Values(SweepParam{3, 1, 11}, SweepParam{4, 2, 12}, SweepParam{5, 2, 13},
                      SweepParam{5, 2, 14}, SweepParam{5, 3, 15}, SweepParam{6, 3, 16},
                      SweepParam{7, 3, 17}, SweepParam{7, 3, 18}, SweepParam{8, 4, 19},
                      SweepParam{5, 1, 20}, SweepParam{6, 2, 21}, SweepParam{7, 2, 22}));

class GoldenXSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(GoldenXSweep, IXClassAnsatzReconstructsExactly) {
  const SweepParam param = GetParam();
  Rng rng(param.seed);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = param.num_qubits;
  options.cut_qubit = param.cut_qubit;
  options.golden_basis = linalg::Pauli::X;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);

  backend::StatevectorBackend backend(7);
  CutRunOptions run;
  run.exact = true;
  run.golden_mode = GoldenMode::Provided;
  run.provided_spec = cutting::NeglectSpec(1);
  run.provided_spec->neglect(0, linalg::Pauli::X);

  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  const auto report = run_cut(ansatz.circuit, cuts, backend, run);
  expect_distributions_equal(report.reconstruction.raw_probabilities,
                             uncut_exact(ansatz.circuit));
}

INSTANTIATE_TEST_SUITE_P(WidthsAndSeeds, GoldenXSweep,
                         ::testing::Values(SweepParam{3, 1, 31}, SweepParam{5, 2, 32},
                                           SweepParam{6, 3, 33}, SweepParam{7, 3, 34}));

/// 4-qubit ladder with two cuts: two independent upstream blocks (one per
/// cut wire) and a joint downstream block.
///   ops 0..2: block A on {0,1}, cut on wire 1 after op 2
///   ops 3..5: block B on {2,3}, cut on wire 2 after op 5
///   ops 6... : downstream on {1,2}
Circuit two_cut_ladder() {
  Circuit c(4);
  c.h(0).cx(0, 1).ry(0.7, 1);
  c.h(3).cx(3, 2).ry(1.1, 2);
  c.cx(1, 2).rx(0.4, 1).u(0.3, 0.9, 1.2, 2);
  return c;
}

TEST(Reconstruction, TwoCutsExactMatchesUncut) {
  const Circuit c = two_cut_ladder();
  backend::StatevectorBackend backend(9);
  CutRunOptions run;
  run.exact = true;
  const std::array<WirePoint, 2> cuts = {WirePoint{1, 2}, WirePoint{2, 5}};
  const auto report = run_cut(c, cuts, backend, run);

  expect_distributions_equal(report.reconstruction.raw_probabilities, uncut_exact(c));
  EXPECT_EQ(report.reconstruction.terms, 16u);
  EXPECT_EQ(report.graph.fragments[0].width(), 4);
  EXPECT_EQ(report.graph.fragments[1].width(), 2);
}

TEST(Reconstruction, TwoCutsOddYNeglectMatchesUncutForRealUpstream) {
  // Real-amplitude upstream: basis strings with an odd number of Y factors
  // vanish identically, so neglecting them must not change the result.
  const Circuit c = two_cut_ladder();
  backend::StatevectorBackend backend(9);
  CutRunOptions run;
  run.exact = true;
  run.golden_mode = GoldenMode::Provided;
  run.provided_spec = cutting::neglect_odd_y_strings(2);

  const std::array<WirePoint, 2> cuts = {WirePoint{1, 2}, WirePoint{2, 5}};
  const auto report = run_cut(c, cuts, backend, run);
  expect_distributions_equal(report.reconstruction.raw_probabilities, uncut_exact(c));
  EXPECT_EQ(report.reconstruction.terms, 10u);  // (4^2 + 2^2) / 2
}

TEST(Reconstruction, TwoCutsPerCutGoldenWithDisjointRealBlocks) {
  // With *disjoint* real upstream blocks feeding each cut, per-cut golden-Y
  // holds: the (Y, Y) string also vanishes because the blocks factorize
  // (<O x Y>_A * <O x Y>_B = 0 * 0).
  const Circuit c = two_cut_ladder();
  cutting::NeglectSpec spec(2);
  spec.neglect(0, linalg::Pauli::Y);
  spec.neglect(1, linalg::Pauli::Y);

  backend::StatevectorBackend backend(9);
  CutRunOptions run;
  run.exact = true;
  run.golden_mode = GoldenMode::Provided;
  run.provided_spec = spec;

  const std::array<WirePoint, 2> cuts = {WirePoint{1, 2}, WirePoint{2, 5}};
  const auto report = run_cut(c, cuts, backend, run);
  expect_distributions_equal(report.reconstruction.raw_probabilities, uncut_exact(c));
  EXPECT_EQ(report.reconstruction.terms, 9u);  // 3 * 3
}

TEST(Reconstruction, SampledReconstructionConvergesWithShots) {
  Rng rng(77);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::vector<double> truth = uncut_exact(ansatz.circuit);

  backend::StatevectorBackend backend(123);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};

  double previous_error = 1e9;
  for (std::size_t shots : {2000ull, 200000ull}) {
    CutRunOptions run;
    run.shots_per_variant = shots;
    const auto report = run_cut(ansatz.circuit, cuts, backend, run);
    const std::vector<double>& raw = report.reconstruction.raw_probabilities;
    double max_error = 0.0;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      max_error = std::max(max_error, std::abs(raw[i] - truth[i]));
    }
    EXPECT_LT(max_error, previous_error);
    previous_error = max_error;
  }
  // 200k shots/variant across 9 variants: reconstruction error should be
  // well under 2e-2 on every outcome.
  EXPECT_LT(previous_error, 2e-2);
}

TEST(Reconstruction, ProbabilityOfSingleOutcomeMatchesFullDistribution) {
  Rng rng(88);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);

  backend::StatevectorBackend backend(5);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  CutRunOptions run;
  run.exact = true;
  const auto report = run_cut(ansatz.circuit, cuts, backend, run);

  for (index_t outcome = 0; outcome < 32; ++outcome) {
    const double p =
        cutting::reconstruct_probability_of(report.graph, report.data, report.specs, outcome);
    EXPECT_NEAR(p, report.reconstruction.raw_probabilities[outcome], 1e-9);
  }
}

TEST(Reconstruction, DiagonalExpectationMatchesDistribution) {
  Rng rng(89);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);

  backend::StatevectorBackend backend(5);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  CutRunOptions run;
  run.exact = true;
  const auto report = run_cut(ansatz.circuit, cuts, backend, run);

  // <Z on qubit 0> as a diagonal observable.
  std::vector<double> diag(32);
  for (index_t i = 0; i < 32; ++i) diag[i] = bit(i, 0) == 0 ? 1.0 : -1.0;
  const double via_recon = cutting::reconstruct_diagonal_expectation(
      report.graph, report.data, report.specs, diag);

  sim::StateVector sv(5);
  sv.apply_circuit(ansatz.circuit);
  circuit::PauliString z0(5);
  z0.set_label(0, linalg::Pauli::Z);
  EXPECT_NEAR(via_recon, sv.expectation_pauli(z0), 1e-9);
}

TEST(Reconstruction, MismatchedFragmentDataIsRejected) {
  Rng rng(90);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  const cutting::FragmentGraph graph = cutting::make_bipartition(ansatz.circuit, cuts);
  const cutting::ChainNeglectSpec none = cutting::ChainNeglectSpec::none(graph);

  cutting::ChainFragmentData extra_fragment = cutting::make_chain_data(graph);
  extra_fragment.fragments.push_back(extra_fragment.fragments.back());  // wrong count
  EXPECT_THROW((void)cutting::reconstruct_distribution(graph, extra_fragment, none), Error);

  cutting::ChainFragmentData wrong_width = cutting::make_chain_data(graph);
  wrong_width.fragments[1].width += 1;
  EXPECT_THROW((void)cutting::reconstruct_distribution(graph, wrong_width, none), Error);
  EXPECT_THROW((void)cutting::reconstruct_probability_of(graph, wrong_width, none, 0), Error);
}

TEST(Reconstruction, GoldenSpecMissingDataIsRejected) {
  // Fragment data gathered under a golden spec lacks the Y-setting data;
  // reconstructing with the FULL spec must fail loudly, not silently.
  Rng rng(91);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  const cutting::FragmentGraph graph = cutting::make_bipartition(ansatz.circuit, cuts);

  cutting::NeglectSpec golden_spec(1);
  golden_spec.neglect(0, ansatz.golden_basis);
  const cutting::ChainNeglectSpec golden{{golden_spec}};

  backend::StatevectorBackend backend(6);
  cutting::ExecutionOptions exec;
  exec.exact = true;
  const auto data = cutting::execute_chain(graph, golden, backend, exec);

  EXPECT_NO_THROW((void)cutting::reconstruct_distribution(graph, data, golden));
  EXPECT_THROW((void)cutting::reconstruct_distribution(graph, data,
                                                       cutting::ChainNeglectSpec::none(graph)),
               Error);
}

}  // namespace
}  // namespace qcut
