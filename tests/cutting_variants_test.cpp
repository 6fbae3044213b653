// Direct unit tests of the variant circuits: an upstream variant measured
// computationally must realize the tomographic measurement |<b1, m_r|psi>|^2,
// and a downstream variant must equal the fragment applied to the prepared
// product state.

#include "cutting/variants.hpp"

#include "cutting/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "linalg/ops.hpp"
#include "sim/statevector.hpp"
#include "support/run_cut.hpp"

namespace qcut::cutting {
namespace {

/// One cut of a golden ansatz: the N=2 chain the variants are built from.
Bipartition make_test_cut(std::uint64_t seed) {
  Rng rng(seed);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  return make_bipartition(ansatz.circuit, cuts);
}

/// Fragment 0's variant under one setting; fragment 1's under one prep.
Circuit upstream_variant(const Bipartition& bp, MeasSetting setting) {
  return make_fragment_variant(bp, 0, FragmentVariantKey{0, encode_settings(std::array{setting})})
      .circuit;
}
Circuit downstream_variant(const Bipartition& bp, linalg::PrepState prep) {
  return make_fragment_variant(bp, 1, FragmentVariantKey{encode_preps(std::array{prep}), 0})
      .circuit;
}

TEST(Variants, UpstreamVariantRealizesTomographicMeasurement) {
  const Bipartition bp = make_test_cut(1);
  const ChainFragment& f1 = bp.fragments[0];
  const int cut_qubit = bp.boundaries[0].wires[0].up_qubit;

  sim::StateVector psi(f1.width());
  psi.apply_circuit(f1.circuit);

  struct Case {
    MeasSetting setting;
    Pauli pauli;
  };
  for (const Case test_case : {Case{MeasSetting::X, Pauli::X}, Case{MeasSetting::Y, Pauli::Y},
                               Case{MeasSetting::Z, Pauli::Z}}) {
    sim::StateVector rotated(f1.width());
    rotated.apply_circuit(upstream_variant(bp, test_case.setting));
    const std::vector<double> measured = rotated.probabilities();

    // Reference: project psi onto the eigenstates of the Pauli on the cut
    // qubit; outcome bit k of the cut qubit <-> eigenstate slot k.
    for (index_t outcome = 0; outcome < measured.size(); ++outcome) {
      const int slot = bit(outcome, cut_qubit);
      sim::StateVector projected = psi;
      const std::array<int, 1> cq = {cut_qubit};
      projected.apply_matrix(linalg::pauli_eigenprojector(test_case.pauli, slot), cq);
      // Probability of the non-cut bits AND this eigenstate:
      // sum over amplitudes with matching non-cut bits.
      double reference = 0.0;
      for (index_t i = 0; i < projected.dim(); ++i) {
        if ((i & ~(index_t{1} << cut_qubit)) == (outcome & ~(index_t{1} << cut_qubit))) {
          reference += std::norm(projected.amplitude(i));
        }
      }
      EXPECT_NEAR(measured[outcome], reference, 1e-10)
          << setting_name(test_case.setting) << " outcome " << outcome;
    }
  }
}

TEST(Variants, DownstreamVariantEqualsPreparedFragment) {
  const Bipartition bp = make_test_cut(2);
  const ChainFragment& f2 = bp.fragments[1];
  const int cut_qubit = bp.boundaries[0].wires[0].down_qubit;

  for (linalg::PrepState prep : linalg::kAllPrepStates) {
    sim::StateVector via_variant(f2.width());
    via_variant.apply_circuit(downstream_variant(bp, prep));

    // Reference: product state with the cut qubit in the prep state.
    std::vector<linalg::CVec> initial(static_cast<std::size_t>(f2.width()),
                                      linalg::CVec{linalg::cx{1, 0}, linalg::cx{0, 0}});
    initial[static_cast<std::size_t>(cut_qubit)] = linalg::prep_state_vector(prep);
    sim::StateVector reference = sim::StateVector::product_state(initial);
    reference.apply_circuit(f2.circuit);

    const std::vector<double> a = via_variant.probabilities();
    const std::vector<double> b = reference.probabilities();
    for (index_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i], b[i], 1e-10) << linalg::prep_state_name(prep) << " outcome " << i;
    }
  }
}

TEST(Variants, RequiredIndicesForFullSpec) {
  const NeglectSpec full(1);
  EXPECT_EQ(required_setting_indices(full), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(required_prep_indices(full), (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
}

TEST(Variants, RequiredIndicesDropGoldenY) {
  NeglectSpec golden(1);
  golden.neglect(0, Pauli::Y);
  const auto settings = required_setting_indices(golden);
  EXPECT_EQ(settings.size(), 2u);
  EXPECT_TRUE(std::find(settings.begin(), settings.end(),
                        static_cast<std::uint32_t>(MeasSetting::Y)) == settings.end());
  const auto preps = required_prep_indices(golden);
  EXPECT_EQ(preps.size(), 4u);
  for (std::uint32_t p : preps) {
    EXPECT_NE(p, static_cast<std::uint32_t>(linalg::PrepState::YPlus));
    EXPECT_NE(p, static_cast<std::uint32_t>(linalg::PrepState::YMinus));
  }
}

TEST(Variants, TwoCutIndicesCombineMixedRadix) {
  NeglectSpec spec(2);
  spec.neglect(0, Pauli::Y);  // cut 0 golden
  const auto settings = required_setting_indices(spec);
  EXPECT_EQ(settings.size(), 6u);  // 2 x 3
  const auto preps = required_prep_indices(spec);
  EXPECT_EQ(preps.size(), 24u);  // 4 x 6
}

TEST(Variants, VariantCircuitsExtendFragments) {
  const Bipartition bp = make_test_cut(3);
  const std::size_t f1_ops = bp.fragments[0].circuit.num_ops();
  const std::size_t f2_ops = bp.fragments[1].circuit.num_ops();
  // One H appended for X; nothing appended for Z.
  EXPECT_EQ(upstream_variant(bp, MeasSetting::X).num_ops(), f1_ops + 1);
  EXPECT_EQ(upstream_variant(bp, MeasSetting::Z).num_ops(), f1_ops);

  // Nothing prepended for |0>; X, H, S prepended for |-i>.
  EXPECT_EQ(downstream_variant(bp, linalg::PrepState::ZPlus).num_ops(), f2_ops);
  EXPECT_EQ(downstream_variant(bp, linalg::PrepState::YMinus).num_ops(), f2_ops + 3);
}

TEST(Variants, OnlineDetectionWorksForTwoCuts) {
  // Two disjoint real blocks -> per-cut golden-Y at both cuts; the online
  // pipeline should find it and execute only the surviving variants.
  circuit::Circuit c(4);
  c.h(0).cx(0, 1).ry(0.7, 1);
  c.h(3).cx(3, 2).ry(1.1, 2);
  c.cx(1, 2).rx(0.4, 1).u(0.3, 0.9, 1.2, 2);
  const std::array<circuit::WirePoint, 2> cuts = {circuit::WirePoint{1, 2},
                                                  circuit::WirePoint{2, 5}};

  backend::StatevectorBackend backend(9);
  CutRunOptions run;
  run.shots_per_variant = 8000;
  run.golden_mode = GoldenMode::DetectOnline;
  const CutResponse report = run_cut(c, cuts, backend, run);

  EXPECT_TRUE(report.specs.boundary(0).is_neglected(0, Pauli::Y));
  EXPECT_TRUE(report.specs.boundary(0).is_neglected(1, Pauli::Y));
  // Upstream: all 9 settings (needed for detection); downstream: 4 x 4.
  EXPECT_EQ(report.data.total_jobs, 9u + 16u);
  EXPECT_EQ(report.reconstruction.terms, 9u);

  sim::StateVector sv(4);
  sv.apply_circuit(c);
  const std::vector<double> truth = sv.probabilities();
  for (index_t x = 0; x < truth.size(); ++x) {
    EXPECT_NEAR(report.reconstruction.raw_probabilities[x], truth[x], 0.05) << x;
  }
}

}  // namespace
}  // namespace qcut::cutting
