// The paper's Section-IV proposal: detecting golden cutting points online
// from the measured upstream data, with a statistical threshold.

#include <gtest/gtest.h>
#include <span>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "common/error.hpp"
#include "cutting/pipeline.hpp"
#include "sim/statevector.hpp"
#include "support/run_cut.hpp"

namespace qcut::cutting {
namespace {

using circuit::WirePoint;

/// Fragment 0's sampled distribution under each of the 3 settings of a
/// single cut (setting s on seed stream s): the upstream data online
/// detection reads.
std::vector<std::vector<double>> sampled_upstream(const Circuit& circuit,
                                                  std::span<const WirePoint> cuts,
                                                  std::size_t shots, std::uint64_t seed) {
  const FragmentGraph graph = make_bipartition(circuit, cuts);
  backend::StatevectorBackend backend(seed);
  std::vector<std::vector<double>> upstream;
  for (std::uint32_t s = 0; s < 3; ++s) {
    const Circuit variant = make_fragment_variant(graph, 0, FragmentVariantKey{0, s}).circuit;
    upstream.push_back(backend.run(variant, shots, s).to_probabilities());
  }
  return upstream;
}

TEST(OnlineDetection, DetectsDesignedGoldenY) {
  int detected = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    circuit::GoldenAnsatzOptions options;
    options.num_qubits = 5;
    const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
    const std::array<WirePoint, 1> cuts = {ansatz.cut};
    const GoldenDetectionReport report =
        detect_golden_from_counts(make_bipartition(ansatz.circuit, cuts),
                                  sampled_upstream(ansatz.circuit, cuts, 4000, seed), 4000);
    if (report.golden[0][static_cast<std::size_t>(Pauli::Y)]) ++detected;
  }
  // The test controls false positives at alpha; power at 4000 shots should
  // identify the designed golden basis in (at least) the large majority of
  // seeds.
  EXPECT_GE(detected, 4);
}

TEST(OnlineDetection, RejectsStronglyNonGoldenBasis) {
  // A state with <Z> = 1 on the cut wire: Z is maximally non-golden.
  circuit::Circuit c(3);
  c.h(0).cx(0, 1).cx(1, 2);
  // Upstream: h(0), cx(0,1); cut on wire 1 after op 1.
  const std::array<WirePoint, 1> cuts = {WirePoint{1, 1}};
  const Bipartition bp = make_bipartition(c, cuts);

  const GoldenDetectionReport report =
      detect_golden_from_counts(bp, sampled_upstream(c, cuts, 4000, 3), 4000);
  EXPECT_FALSE(report.golden[0][static_cast<std::size_t>(Pauli::Z)]);
  // Bell pair upstream: Y (and X) weighted sums cancel.
  EXPECT_TRUE(report.golden[0][static_cast<std::size_t>(Pauli::Y)]);
}

TEST(OnlineDetection, FalsePositiveRateIsControlled) {
  // Non-golden circuit (complex upstream): with alpha = 0.05 the detector
  // should rarely declare any basis golden when violations are large.
  int false_positives = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    circuit::Circuit c(3);
    c.h(0).t(0).cx(0, 1).t(1).sx(1).rz(0.8, 1);
    std::size_t cut_after = 0;
    for (std::size_t i = 0; i < c.num_ops(); ++i) {
      if (c.op(i).acts_on(1)) cut_after = i;
    }
    c.cx(1, 2);
    const std::array<WirePoint, 1> cuts = {WirePoint{1, cut_after}};
    const Bipartition bp = make_bipartition(c, cuts);
    const std::vector<std::vector<double>> upstream = sampled_upstream(c, cuts, 4000, seed * 11);

    // The exact violations for this circuit are sizable on all three bases.
    const GoldenDetectionReport exact = detect_golden_exact(bp, 1e-9);
    for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
      if (exact.violation[0][static_cast<std::size_t>(p)] < 0.05) continue;
      const GoldenDetectionReport online = detect_golden_from_counts(bp, upstream, 4000);
      if (online.golden[0][static_cast<std::size_t>(p)]) ++false_positives;
    }
  }
  EXPECT_EQ(false_positives, 0);
}

TEST(OnlineDetection, InputValidation) {
  Rng rng(1);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  const Bipartition bp = make_bipartition(ansatz.circuit, cuts);

  std::vector<std::vector<double>> too_few(2);
  EXPECT_THROW((void)detect_golden_from_counts(bp, too_few, 100), Error);

  std::vector<std::vector<double>> wrong_dim(3, std::vector<double>(4, 0.25));
  EXPECT_THROW((void)detect_golden_from_counts(bp, wrong_dim, 100), Error);

  std::vector<std::vector<double>> ok(3, std::vector<double>(8, 0.125));
  EXPECT_THROW((void)detect_golden_from_counts(bp, ok, 0), Error);
  OnlineDetectionOptions bad;
  bad.alpha = 0.0;
  EXPECT_THROW((void)detect_golden_from_counts(bp, ok, 100, bad), Error);
}

TEST(OnlineDetection, PipelineModeSavesDownstreamEvaluations) {
  Rng rng(21);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};

  backend::StatevectorBackend backend(77);
  CutRunOptions run;
  run.shots_per_variant = 4000;
  run.golden_mode = GoldenMode::DetectOnline;
  const CutResponse report = run_cut(ansatz.circuit, cuts, backend, run);

  // Upstream needs all 3 settings (detection), downstream only 4 preps.
  EXPECT_EQ(report.data.total_jobs, 3u + 4u);
  EXPECT_TRUE(report.specs.boundary(0).is_neglected(0, ansatz.golden_basis));
  EXPECT_EQ(report.reconstruction.terms, 3u);

  // Result still close to the truth.
  sim::StateVector sv(5);
  sv.apply_circuit(ansatz.circuit);
  const std::vector<double> truth = sv.probabilities();
  const std::vector<double> estimate = report.reconstruction.raw_probabilities;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(estimate[i], truth[i], 0.05);
  }
}

TEST(OnlineDetection, ExactModeIsRejected) {
  Rng rng(22);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  backend::StatevectorBackend backend(1);
  CutRunOptions run;
  run.exact = true;
  run.golden_mode = GoldenMode::DetectOnline;
  EXPECT_THROW((void)run_cut(ansatz.circuit, cuts, backend, run), Error);
}

}  // namespace
}  // namespace qcut::cutting
