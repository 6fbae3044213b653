#include "cutting/uncertainty.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <limits>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "common/error.hpp"
#include "cutting/pipeline.hpp"
#include "sim/statevector.hpp"
#include "support/digest.hpp"

namespace qcut::cutting {
namespace {

struct Fixture {
  circuit::GoldenAnsatz ansatz;
  FragmentGraph graph;
  ChainNeglectSpec none;
  ChainFragmentData data;
  std::vector<double> truth;

  static Fixture make(std::size_t shots, std::uint64_t seed) {
    Rng rng(seed);
    circuit::GoldenAnsatzOptions options;
    options.num_qubits = 5;
    circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
    const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
    FragmentGraph graph = make_bipartition(ansatz.circuit, cuts);
    ChainNeglectSpec none = ChainNeglectSpec::none(graph);

    backend::StatevectorBackend backend(seed * 7 + 1);
    ExecutionOptions exec;
    exec.shots_per_variant = shots;
    ChainFragmentData data = execute_chain(graph, none, backend, exec);

    sim::StateVector sv(5);
    sv.apply_circuit(ansatz.circuit);
    return Fixture{std::move(ansatz), std::move(graph), std::move(none), std::move(data),
                   sv.probabilities()};
  }
};

TEST(Bootstrap, DistributionBandsCoverTruth) {
  const Fixture fx = Fixture::make(4000, 1);
  BootstrapOptions options;
  options.replicas = 150;
  const DistributionUncertainty u =
      bootstrap_distribution(fx.graph, fx.data, fx.none, options);

  ASSERT_EQ(u.mean.size(), 32u);
  int covered = 0;
  for (index_t x = 0; x < 32; ++x) {
    EXPECT_GE(u.ci_upper[x], u.ci_lower[x]);
    // Widen the bootstrap band slightly: it is centered on the observed
    // data, whose own deviation from truth is one extra sigma.
    const double slack = 2.0 * u.standard_error[x] + 1e-6;
    if (fx.truth[x] >= u.ci_lower[x] - slack && fx.truth[x] <= u.ci_upper[x] + slack) {
      ++covered;
    }
  }
  // Expect the overwhelming majority of outcomes covered.
  EXPECT_GE(covered, 29);
}

TEST(Bootstrap, StandardErrorShrinksWithShots) {
  const Fixture coarse = Fixture::make(500, 2);
  const Fixture fine = Fixture::make(50000, 2);
  BootstrapOptions options;
  options.replicas = 100;

  const DistributionUncertainty u_coarse =
      bootstrap_distribution(coarse.graph, coarse.data, coarse.none, options);
  const DistributionUncertainty u_fine =
      bootstrap_distribution(fine.graph, fine.data, fine.none, options);

  double coarse_total = 0.0, fine_total = 0.0;
  for (index_t x = 0; x < 32; ++x) {
    coarse_total += u_coarse.standard_error[x];
    fine_total += u_fine.standard_error[x];
  }
  // Shots grew by 100x, SE should drop by about 10x; require at least 5x.
  EXPECT_LT(fine_total * 5.0, coarse_total);
}

TEST(Bootstrap, ExpectationCoversStatevectorValue) {
  const Fixture fx = Fixture::make(8000, 3);
  circuit::PauliString z_all(5);
  for (int q = 0; q < 5; ++q) z_all.set_label(q, linalg::Pauli::Z);
  const DiagonalObservable obs = DiagonalObservable::from_pauli(z_all);

  sim::StateVector sv(5);
  sv.apply_circuit(fx.ansatz.circuit);
  const double exact = sv.expectation_pauli(z_all);

  BootstrapOptions options;
  options.replicas = 150;
  const ExpectationUncertainty u =
      bootstrap_expectation(fx.graph, fx.data, fx.none, obs, options);

  EXPECT_NEAR(u.estimate, exact, 5.0 * u.standard_error + 0.05);
  EXPECT_LT(u.ci_lower, u.ci_upper);
  EXPECT_GT(u.standard_error, 0.0);
  // The true value should sit within a slightly widened CI.
  EXPECT_GE(exact, u.ci_lower - 2.0 * u.standard_error);
  EXPECT_LE(exact, u.ci_upper + 2.0 * u.standard_error);
}

TEST(Bootstrap, GoldenSpecGivesComparableErrorWithFewerVariants) {
  // Same per-variant shots: the golden pipeline estimates the same quantity
  // from 6 variants instead of 9 with comparable (not worse) uncertainty.
  Rng rng(4);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const FragmentGraph graph = make_bipartition(ansatz.circuit, cuts);
  const ChainNeglectSpec none = ChainNeglectSpec::none(graph);

  NeglectSpec golden_spec(1);
  golden_spec.neglect(0, ansatz.golden_basis);
  const ChainNeglectSpec golden{{golden_spec}};

  backend::StatevectorBackend backend(11);
  ExecutionOptions exec;
  exec.shots_per_variant = 4000;
  const ChainFragmentData full_data = execute_chain(graph, none, backend, exec);
  const ChainFragmentData golden_data = execute_chain(graph, golden, backend, exec);

  const DiagonalObservable obs = DiagonalObservable::parity(5);
  BootstrapOptions boot;
  boot.replicas = 100;
  const ExpectationUncertainty u_full = bootstrap_expectation(graph, full_data, none, obs, boot);
  const ExpectationUncertainty u_golden =
      bootstrap_expectation(graph, golden_data, golden, obs, boot);

  EXPECT_LT(u_golden.standard_error, 2.0 * u_full.standard_error + 1e-3);
}

TEST(Bootstrap, RejectsExactData) {
  Rng rng(5);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const FragmentGraph graph = make_bipartition(ansatz.circuit, cuts);
  const ChainNeglectSpec none = ChainNeglectSpec::none(graph);
  backend::StatevectorBackend backend(2);
  ExecutionOptions exec;
  exec.exact = true;
  const ChainFragmentData data = execute_chain(graph, none, backend, exec);
  EXPECT_THROW((void)bootstrap_distribution(graph, data, none), Error);
}

TEST(Bootstrap, OptionValidation) {
  const Fixture fx = Fixture::make(100, 6);
  const DiagonalObservable parity = DiagonalObservable::parity(5);
  BootstrapOptions bad;
  bad.replicas = 1;
  EXPECT_THROW((void)bootstrap_distribution(fx.graph, fx.data, fx.none, bad), Error);
  EXPECT_THROW((void)bootstrap_expectation(fx.graph, fx.data, fx.none, parity, bad), Error);
  bad.replicas = 10;
  for (const double confidence :
       {1.5, -1.0, 0.0, 1.0, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(confidence);
    bad.confidence = confidence;
    EXPECT_THROW(check_bootstrap_options(bad), Error);
    EXPECT_THROW((void)bootstrap_distribution(fx.graph, fx.data, fx.none, bad), Error);
    // 1.5 would put the lower quantile's position below 0.
    EXPECT_THROW((void)bootstrap_expectation(fx.graph, fx.data, fx.none, parity, bad), Error);
  }
}

TEST(Bootstrap, DeterministicForSeed) {
  const Fixture fx = Fixture::make(1000, 7);
  BootstrapOptions options;
  options.replicas = 20;
  options.seed = 99;
  const DistributionUncertainty a = bootstrap_distribution(fx.graph, fx.data, fx.none, options);
  const DistributionUncertainty b = bootstrap_distribution(fx.graph, fx.data, fx.none, options);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.ci_lower, b.ci_lower);
}

/// A 3-fragment chain: every fragment's variants are resampled, and the
/// estimate is the expectation over the chain reconstruction of the data.
TEST(Bootstrap, RunsOnThreeFragmentChain) {
  Circuit c(5);
  c.h(0).cx(0, 1).ry(0.3, 1);
  c.cx(1, 2).ry(0.5, 2).cx(2, 3).ry(0.4, 3);
  c.cx(3, 4).ry(0.2, 4);
  const std::vector<std::vector<circuit::WirePoint>> boundaries = {
      {circuit::WirePoint{1, 2}}, {circuit::WirePoint{3, 6}}};
  const FragmentGraph graph = make_fragment_chain(c, boundaries);
  const ChainNeglectSpec none = ChainNeglectSpec::none(graph);

  backend::StatevectorBackend backend(12);
  ExecutionOptions exec;
  exec.shots_per_variant = 3000;
  const ChainFragmentData data = execute_chain(graph, none, backend, exec);

  const DiagonalObservable obs = DiagonalObservable::parity(5);
  BootstrapOptions boot;
  boot.replicas = 30;
  const ExpectationUncertainty u = bootstrap_expectation(graph, data, none, obs, boot);
  EXPECT_EQ(u.estimate, reconstruct_diagonal_expectation(graph, data, none, obs.diagonal()));
  EXPECT_GT(u.standard_error, 0.0);
  EXPECT_LT(u.ci_lower, u.ci_upper);

  sim::StateVector sv(5);
  sv.apply_circuit(c);
  EXPECT_NEAR(u.estimate, obs.expectation(sv.probabilities()), 5.0 * u.standard_error + 0.05);
}

/// Bootstrap results pinned bit for bit. The chain resample visits fragment
/// 0's variants (ascending setting) and then fragment 1's (ascending prep),
/// each with its own shot count: the budget case's 7013 shots give five of
/// the six variants 1169 and the last 1168. Both the fragment data and the
/// resample are sampled by sim::sample_histogram (one binomial per outcome
/// for these 3-qubit fragments), so a change to that sampler moves them.
struct FrozenBootstrapCase {
  const char* name;
  std::uint64_t seed;  // ansatz and backend seed
  std::size_t shots_per_variant;
  std::size_t total_shot_budget;
  bool golden;
  /// Bit patterns of estimate, standard_error, ci_lower, ci_upper.
  std::array<std::uint64_t, 4> expectation;
  /// fnv1a of mean, standard_error, ci_lower, ci_upper.
  std::array<std::uint64_t, 4> distribution;
};

TEST(Bootstrap, MatchesFrozenDigests) {
  const std::vector<FrozenBootstrapCase> cases = {
      {"fixed_shots",
       8,
       1500,
       0,
       false,
       {0xbf8ce7af2fd41b08ULL, 0x3f8f539f66b8e439ULL, 0xbfa4688867b97c6eULL,
        0x3f8c97e936bf97ccULL},
       {0x9f4c5fa5ae74c8b2ULL, 0x630bf3b734662cafULL, 0x6b7e44b27cb66fbaULL,
        0xb69f0d18598552c0ULL}},
      {"budget_golden",
       9,
       0,
       7013,
       true,
       {0xbfd6ec67b4098516ULL, 0x3f95c2001962d04dULL, 0xbfd8b14815f0081cULL,
        0xbfd43da7c69ffe88ULL},
       {0x5e183a38fe71d067ULL, 0xd88a9cce357875b1ULL, 0x51d3cc26e9efa18eULL,
        0xc91e106460b3869fULL}},
  };
  for (const FrozenBootstrapCase& c : cases) {
    SCOPED_TRACE(c.name);
    Rng rng(c.seed);
    circuit::GoldenAnsatzOptions options;
    options.num_qubits = 5;
    const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
    const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
    NeglectSpec boundary(1);
    if (c.golden) boundary.neglect(0, ansatz.golden_basis);
    const ChainNeglectSpec spec{{boundary}};

    backend::StatevectorBackend backend(c.seed);
    ExecutionOptions exec;
    exec.shots_per_variant = c.shots_per_variant;
    exec.total_shot_budget = c.total_shot_budget;
    const FragmentGraph graph = make_bipartition(ansatz.circuit, cuts);
    const ChainFragmentData data = execute_chain(graph, spec, backend, exec);

    BootstrapOptions boot;
    boot.replicas = 40;
    const ExpectationUncertainty e =
        bootstrap_expectation(graph, data, spec, DiagonalObservable::parity(5), boot);
    const DistributionUncertainty d = bootstrap_distribution(graph, data, spec, boot);

    const std::array<std::uint64_t, 4> expectation = {
        std::bit_cast<std::uint64_t>(e.estimate), std::bit_cast<std::uint64_t>(e.standard_error),
        std::bit_cast<std::uint64_t>(e.ci_lower), std::bit_cast<std::uint64_t>(e.ci_upper)};
    const std::array<std::uint64_t, 4> distribution = {
        fnv1a(d.mean), fnv1a(d.standard_error), fnv1a(d.ci_lower), fnv1a(d.ci_upper)};
    EXPECT_EQ(expectation, c.expectation);
    EXPECT_EQ(distribution, c.distribution);
  }
}

}  // namespace
}  // namespace qcut::cutting
