#include "cutting/observables.hpp"

#include <gtest/gtest.h>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "common/error.hpp"
#include "cutting/pipeline.hpp"
#include "sim/statevector.hpp"

namespace qcut::cutting {
namespace {

TEST(DiagonalObservable, ProjectorAndValue) {
  const DiagonalObservable proj = DiagonalObservable::projector(3, 0b101);
  EXPECT_EQ(proj.num_qubits(), 3);
  EXPECT_NEAR(proj.value(0b101), 1.0, 1e-15);
  EXPECT_NEAR(proj.value(0b100), 0.0, 1e-15);
  EXPECT_THROW((void)proj.value(8), Error);
  EXPECT_THROW((void)DiagonalObservable::projector(2, 4), Error);
}

TEST(DiagonalObservable, FromPauliMatchesMatrixDiagonal) {
  const circuit::PauliString zz = circuit::PauliString::parse("ZIZ");
  const DiagonalObservable obs = DiagonalObservable::from_pauli(zz);
  const linalg::CMat m = zz.to_matrix();
  for (index_t x = 0; x < 8; ++x) {
    EXPECT_NEAR(obs.value(x), m(x, x).real(), 1e-12) << x;
  }
  EXPECT_THROW((void)DiagonalObservable::from_pauli(circuit::PauliString::parse("XZ")), Error);
}

TEST(DiagonalObservable, ParityIsAllZ) {
  const DiagonalObservable obs = DiagonalObservable::parity(3);
  EXPECT_NEAR(obs.value(0b000), 1.0, 1e-15);
  EXPECT_NEAR(obs.value(0b001), -1.0, 1e-15);
  EXPECT_NEAR(obs.value(0b011), 1.0, 1e-15);
  EXPECT_NEAR(obs.value(0b111), -1.0, 1e-15);
}

TEST(DiagonalObservable, ExpectationAgainstDistribution) {
  const DiagonalObservable z0 =
      DiagonalObservable::from_pauli(circuit::PauliString::parse("IZ"));
  const std::vector<double> probs = {0.5, 0.25, 0.125, 0.125};  // over 2 qubits
  // <Z on qubit 0> = p(even bit0) - p(odd bit0) = (0.5 + 0.125) - (0.25 + 0.125)
  EXPECT_NEAR(z0.expectation(probs), 0.25, 1e-12);
}

TEST(DiagonalObservable, LinearCombination) {
  const DiagonalObservable a = DiagonalObservable::projector(2, 0);
  const DiagonalObservable b = DiagonalObservable::projector(2, 3);
  const DiagonalObservable combo = a.linear_combination(2.0, b, -1.0);
  EXPECT_NEAR(combo.value(0), 2.0, 1e-15);
  EXPECT_NEAR(combo.value(3), -1.0, 1e-15);
  EXPECT_NEAR(combo.value(1), 0.0, 1e-15);
}

TEST(DiagonalObservable, TryRestrict) {
  // Z on qubit 1 of 3 restricts onto {1}; it does NOT restrict onto {0}.
  const DiagonalObservable obs =
      DiagonalObservable::from_pauli(circuit::PauliString::parse("IZI"));
  std::vector<double> restricted;
  const std::array<int, 1> q1 = {1};
  EXPECT_TRUE(obs.try_restrict(q1, restricted));
  EXPECT_NEAR(restricted[0], 1.0, 1e-12);
  EXPECT_NEAR(restricted[1], -1.0, 1e-12);
  const std::array<int, 1> q0 = {0};
  EXPECT_FALSE(obs.try_restrict(q0, restricted));
}

TEST(ReconstructedExpectation, MatchesStatevector) {
  Rng rng(5);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const FragmentGraph graph = make_bipartition(ansatz.circuit, cuts);
  const ChainNeglectSpec none = ChainNeglectSpec::none(graph);

  backend::StatevectorBackend backend(3);
  ExecutionOptions exec;
  exec.exact = true;
  const ChainFragmentData data = execute_chain(graph, none, backend, exec);

  sim::StateVector sv(5);
  sv.apply_circuit(ansatz.circuit);

  for (const std::string label : {"ZIIII", "IIIIZ", "ZZZZZ", "IZIZI"}) {
    const circuit::PauliString pauli = circuit::PauliString::parse(label);
    const DiagonalObservable obs = DiagonalObservable::from_pauli(pauli);
    EXPECT_NEAR(reconstruct_diagonal_expectation(graph, data, none, obs.diagonal()),
                sv.expectation_pauli(pauli), 1e-9)
        << label;
  }
}

TEST(ObservableGolden, WeakerObservableAdmitsMoreGoldenBases) {
  // Upstream: |+> on the output qubit, generic complex state on the cut
  // wire, unentangled. For the DISTRIBUTION no basis is golden (the cut
  // state has nonzero X/Y/Z components), but for the observable
  // O = I (x) O_f2 (trivial upstream factor o1(b1) = 1), the upstream
  // weighted trace sums over b1 and the golden condition becomes
  // <M> on the cut wire alone... still nonzero. Use instead O = Z on the
  // upstream output qubit of a |+> state: tr(Z rho_out) = 0 makes EVERY
  // basis golden for that observable.
  circuit::Circuit c(3);
  c.h(0);                         // output qubit in |+>: <Z_0> = 0
  c.t(1).h(1).t(1).rx(0.7, 1);    // generic cut-wire state
  const std::size_t cut_after = c.num_ops() - 1;  // after the rx on wire 1
  c.cx(1, 2);                      // downstream
  const std::array<circuit::WirePoint, 1> cuts = {circuit::WirePoint{1, cut_after}};
  const Bipartition bp = make_bipartition(c, cuts);

  // Distribution-level: X/Y/Z all non-golden for this generic cut state.
  const GoldenDetectionReport distribution_report = detect_golden_exact(bp, 1e-9);
  int distribution_golden = 0;
  for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
    if (distribution_report.golden[0][static_cast<std::size_t>(p)]) ++distribution_golden;
  }
  EXPECT_EQ(distribution_golden, 0);

  // Observable-level with O = Z_0 (x) I: the upstream factor weights the
  // two b1 outcomes +1/-1, and <Z_0> = 0 with no output/cut entanglement
  // makes every basis cancel.
  circuit::PauliString z0(3);
  z0.set_label(0, Pauli::Z);
  const DiagonalObservable obs = DiagonalObservable::from_pauli(z0);
  const GoldenDetectionReport observable_report = detect_golden_for_observable(bp, obs, 1e-9);
  for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
    EXPECT_TRUE(observable_report.golden[0][static_cast<std::size_t>(p)])
        << linalg::pauli_name(p);
  }

  // And the reduced spec still reconstructs <Z_0> exactly.
  backend::StatevectorBackend backend(6);
  ExecutionOptions exec;
  exec.exact = true;
  const NeglectSpec spec = observable_report.to_spec();
  const FragmentGraph graph = make_bipartition(c, cuts);
  const ChainNeglectSpec chain_spec{{spec}};
  const ChainFragmentData data = execute_chain(graph, chain_spec, backend, exec);
  sim::StateVector sv(3);
  sv.apply_circuit(c);
  EXPECT_NEAR(obs.expectation(reconstruct_distribution(graph, data, chain_spec).raw_probabilities),
              sv.expectation_pauli(z0), 1e-9);
  // Only the I basis string survives: a single term.
  EXPECT_EQ(spec.num_active_strings(), 1u);
}

TEST(ObservableGolden, AgreesWithDistributionDetectorOnGoldenAnsatz) {
  Rng rng(6);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const Bipartition bp = make_bipartition(ansatz.circuit, cuts);

  // Any Z-type observable keeps the designed golden-Y property (it is a
  // real diagonal observable; the real-state argument applies).
  const DiagonalObservable obs = DiagonalObservable::parity(5);
  const GoldenDetectionReport report = detect_golden_for_observable(bp, obs, 1e-9);
  EXPECT_TRUE(report.golden[0][static_cast<std::size_t>(Pauli::Y)]);
}

TEST(ObservableGolden, RejectsNonFactorizingObservable) {
  Rng rng(7);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const Bipartition bp = make_bipartition(ansatz.circuit, cuts);

  // A diagonal coupling across the bipartition: value = parity of (q0, q3),
  // where q0 is upstream and q3 downstream - it DOES factorize (product of
  // two Z factors). Build a genuinely non-factorizing one instead:
  // value(x) = 1 if (q0 == q3) else 0 ... = (1 + Z0 Z3)/2, still a sum.
  // Non-factorizing: value = q0 OR q3 (as 0/1 indicator).
  std::vector<double> diag(32, 0.0);
  for (index_t x = 0; x < 32; ++x) {
    diag[x] = (bit(x, 0) != 0 || bit(x, 3) != 0) ? 1.0 : 0.0;
  }
  const DiagonalObservable obs{std::move(diag)};
  EXPECT_THROW((void)detect_golden_for_observable(bp, obs, 1e-9), Error);
}

TEST(ObservableGolden, ProjectorObservableFactorizes) {
  Rng rng(8);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const Bipartition bp = make_bipartition(ansatz.circuit, cuts);

  // Projectors factorize across any bipartition (Eq. 16 of the paper).
  const DiagonalObservable proj = DiagonalObservable::projector(5, 0b10110);
  EXPECT_NO_THROW((void)detect_golden_for_observable(bp, proj, 1e-9));
}

}  // namespace
}  // namespace qcut::cutting
