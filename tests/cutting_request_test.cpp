// CutRequest: builder surface, eager validation (every error message is
// specific and tested), target/cut-selection resolution, and equivalence of
// the qcut::run facade with explicit-cut requests.

#include "cutting/request.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "common/error.hpp"
#include "cutting/pipeline.hpp"
#include "support/run_cut.hpp"

namespace qcut::cutting {
namespace {

using circuit::Circuit;
using circuit::WirePoint;

circuit::GoldenAnsatz make_ansatz(int n, std::uint64_t seed) {
  Rng rng(seed);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = n;
  return circuit::make_golden_ansatz(options, rng);
}

/// Runs `fn`, expecting qcut::Error; returns its message.
std::string message_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected qcut::Error";
  return {};
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

Circuit two_qubit_circuit() {
  Circuit c(2);
  c.h(0).cx(0, 1).ry(0.3, 1);
  return c;
}

TEST(CutRequestValidation, CircuitMustBeWideEnoughToCut) {
  CutRequest request{Circuit(1)};
  EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                       "circuit must have at least 2 qubits to cut"));
}

TEST(CutRequestValidation, ExplicitSelectionMustNotBeEmpty) {
  CutRequest request{two_qubit_circuit()};
  request.with_cuts({});
  EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                       "explicit cut selection must contain at least one cut point"));
}

TEST(CutRequestValidation, CutQubitMustExist) {
  CutRequest request{two_qubit_circuit()};
  request.with_cut(WirePoint{99, 0});
  EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                       "cut point references qubit 99 but the circuit has 2 qubits"));
}

TEST(CutRequestValidation, CutOpIndexMustExist) {
  CutRequest request{two_qubit_circuit()};
  request.with_cut(WirePoint{0, 7});
  EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                       "cut point after_op 7 is out of range (circuit has 3 ops)"));
}

TEST(CutRequestValidation, ProvidedModeRequiresSpec) {
  CutRequest request{two_qubit_circuit()};
  request.with_cut(WirePoint{0, 0}).with_golden(GoldenMode::Provided);
  EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                       "GoldenMode::Provided requires provided_spec"));
}

TEST(CutRequestValidation, ProvidedModeRequiresExplicitCuts) {
  NeglectSpec spec(1);
  spec.neglect(0, Pauli::Y);
  CutRequest request{two_qubit_circuit()};
  request.with_auto_plan().with_provided_spec(spec);
  EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                       "GoldenMode::Provided requires explicit cut points"));
}

TEST(CutRequestValidation, SpecWithoutProvidedModeIsRejected) {
  CutRequest request{two_qubit_circuit()};
  request.with_cut(WirePoint{0, 0});
  request.options.provided_spec = NeglectSpec(1);  // golden_mode left at None
  EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                       "provided specs are set but golden_mode is not GoldenMode::Provided"));
}

TEST(CutRequestValidation, SpecCutCountMustMatchExplicitCuts) {
  CutRequest request{two_qubit_circuit()};
  request.with_cut(WirePoint{0, 0}).with_provided_spec(NeglectSpec(2));
  EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                       "provided_spec covers 2 cuts but 1 cut points were given"));
}

TEST(CutRequestValidation, SamplingNeedsShotsOrBudget) {
  CutRequest request{two_qubit_circuit()};
  request.with_cut(WirePoint{0, 0}).with_shots(0);
  EXPECT_TRUE(
      contains(message_of([&] { validate(request); }),
               "sampling requires shots_per_variant > 0 or a total_shot_budget"));
}

TEST(CutRequestValidation, OnlineDetectionRejectsExactMode) {
  CutRequest request{two_qubit_circuit()};
  request.with_cut(WirePoint{0, 0}).with_golden(GoldenMode::DetectOnline).with_exact();
  EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                       "GoldenMode::DetectOnline requires sampling (exact = false)"));
}

TEST(CutRequestValidation, BudgetMustCoverStandardVariants) {
  CutRequest request{two_qubit_circuit()};
  request.with_cut(WirePoint{0, 0}).with_shots(0).with_shot_budget(5);
  // One standard cut needs 3 settings + 6 preps = 9 variants.
  EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                       "total_shot_budget (5) is smaller than the 9 required variants"));
}

TEST(CutRequestValidation, BudgetMustCoverProvidedSpecVariants) {
  NeglectSpec golden(1);
  golden.neglect(0, Pauli::Y);
  CutRequest request{two_qubit_circuit()};
  request.with_cut(WirePoint{0, 0}).with_provided_spec(golden).with_shots(0).with_shot_budget(
      5);
  // A single golden basis shrinks the cut to 2 settings + 4 preps.
  EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                       "total_shot_budget (5) is smaller than the 6 required variants"));
}

TEST(CutRequestValidation, ObservableWidthMustMatchCircuit) {
  Circuit c(3);
  c.h(0).cx(0, 1).cx(1, 2);
  CutRequest request{c};
  request.with_observable(DiagonalObservable::parity(2));
  EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                       "observable acts on 2 qubits but the circuit has 3"));
}

TEST(CutRequestValidation, PauliWidthMustMatchCircuit) {
  CutRequest request{two_qubit_circuit()};
  request.with_pauli("ZZZ");
  EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                       "Pauli target acts on 3 qubits but the circuit has 2"));
}

TEST(CutRequestValidation, BootstrapNeedsObservableTarget) {
  CutRequest request{two_qubit_circuit()};
  request.with_cut(WirePoint{0, 0}).with_uncertainty();
  EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                       "bootstrap uncertainty requires an observable or Pauli target"));
}

TEST(CutRequestValidation, BootstrapNeedsSampledExecution) {
  CutRequest request{two_qubit_circuit()};
  request.with_pauli("ZZ").with_cut(WirePoint{0, 0}).with_exact().with_uncertainty();
  EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                       "bootstrap uncertainty requires sampled execution (exact = false)"));
}

TEST(CutRequestValidation, BootstrapNeedsReplicas) {
  for (const std::size_t replicas : {std::size_t{0}, std::size_t{1}}) {
    SCOPED_TRACE(replicas);
    BootstrapOptions boot;
    boot.replicas = replicas;
    CutRequest request{two_qubit_circuit()};
    request.with_pauli("ZZ").with_cut(WirePoint{0, 0}).with_uncertainty(boot);
    EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                         "bootstrap: need at least 2 replicas"));
  }
}

TEST(CutRequestValidation, BootstrapConfidenceMustBeInOpenUnitInterval) {
  for (const double confidence :
       {1.5, -1.0, 0.0, 1.0, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(confidence);
    BootstrapOptions boot;
    boot.confidence = confidence;
    CutRequest request{two_qubit_circuit()};
    request.with_pauli("ZZ").with_cut(WirePoint{0, 0}).with_uncertainty(boot);
    EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                         "bootstrap: confidence must be in (0, 1)"));
  }
}

TEST(CutRequestValidation, DeadlineMustBePositiveAndFinite) {
  for (const double seconds : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(seconds);
    CutRequest request{two_qubit_circuit()};
    request.with_cut(WirePoint{0, 0}).with_deadline(seconds);
    EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                         "deadline_seconds must be positive and finite when set"));
  }
  CutRequest largest{two_qubit_circuit()};
  largest.with_cut(WirePoint{0, 0}).with_deadline(std::numeric_limits<double>::max());
  EXPECT_NO_THROW(validate(largest));
}

/// Values a tolerance or a weight must not take.
std::vector<double> malformed_non_negatives() {
  return {-1e-9, -1.0, std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(), std::numeric_limits<double>::quiet_NaN()};
}

TEST(CutRequestValidation, GoldenToleranceMustBeFiniteAndNonNegative) {
  const auto ansatz = make_ansatz(5, 44);
  for (const double tol : malformed_non_negatives()) {
    SCOPED_TRACE(tol);
    CutRequest request(ansatz.circuit);
    request.with_cut(ansatz.cut).with_golden(GoldenMode::DetectExact);
    request.options.golden_tol = tol;
    EXPECT_TRUE(
        contains(message_of([&] { validate(request); }), "golden_tol must be finite and >= 0"));
  }
  CutRequest zero(ansatz.circuit);
  zero.with_cut(ansatz.cut).with_golden(GoldenMode::DetectExact);
  zero.options.golden_tol = 0.0;
  EXPECT_NO_THROW(validate(zero));
}

TEST(CutRequestValidation, PlannerToleranceAndWeightMustBeFiniteAndNonNegative) {
  const auto ansatz = make_ansatz(5, 45);
  for (const double value : malformed_non_negatives()) {
    SCOPED_TRACE(value);
    PlannerOptions tol;
    tol.golden_tol = value;
    PlannerOptions weight;
    weight.balance_weight = value;
    ChainPlannerOptions chain_tol;
    chain_tol.base = tol;
    ChainPlannerOptions chain_weight;
    chain_weight.base = weight;

    CutRequest request(ansatz.circuit);
    request.with_auto_plan(tol);
    EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                         "PlannerOptions::golden_tol must be finite and >= 0"));
    request.with_auto_plan(weight);
    EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                         "PlannerOptions::balance_weight must be finite and >= 0"));
    request.with_chain_plan(chain_tol);
    EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                         "PlannerOptions::golden_tol must be finite and >= 0"));
    request.with_chain_plan(chain_weight);
    EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                         "PlannerOptions::balance_weight must be finite and >= 0"));
  }
  PlannerOptions zeros;
  zeros.golden_tol = 0.0;
  zeros.balance_weight = 0.0;
  CutRequest request(ansatz.circuit);
  request.with_auto_plan(zeros);
  EXPECT_NO_THROW(validate(request));
}

TEST(CutRequestValidation, ChainWidthCapMustBeNonNegative) {
  const auto ansatz = make_ansatz(5, 46);
  ChainPlannerOptions planner;
  planner.max_fragment_width = -1;
  CutRequest request(ansatz.circuit);
  request.with_chain_plan(planner);
  EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                       "max_fragment_width must be >= 0"));
  planner.max_fragment_width = 0;  // no cap
  request.with_chain_plan(planner);
  EXPECT_NO_THROW(validate(request));
}

TEST(CutRequestValidation, ShedToleranceMultiplierMustBeFiniteAndAtLeastOne) {
  const auto ansatz = make_ansatz(5, 47);
  for (const double multiplier : {0.5, std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(multiplier);
    CutRequest request(ansatz.circuit);
    request.with_cut(ansatz.cut).with_load_shed(LoadShedPolicy{0.5, multiplier});
    EXPECT_TRUE(contains(message_of([&] { validate(request); }),
                         "golden_tol_multiplier must be finite and >= 1"));
  }
}

TEST(CutRequestValidation, WellFormedRequestPasses) {
  const auto ansatz = make_ansatz(5, 41);
  CutRequest request(ansatz.circuit);
  request.with_cut(ansatz.cut).with_shots(1000);
  EXPECT_NO_THROW(validate(request));

  CutRequest auto_planned(ansatz.circuit);
  auto_planned.with_auto_plan().with_pauli(circuit::PauliString::parse("ZZZZZ"));
  EXPECT_NO_THROW(validate(auto_planned));
}

TEST(CutRequestResolve, PauliTargetIsRotatedToZForm) {
  const auto ansatz = make_ansatz(5, 42);
  circuit::PauliString pauli(5);
  pauli.set_label(0, Pauli::X);  // X -> one appended H
  pauli.set_label(2, Pauli::Z);

  CutRequest request(ansatz.circuit);
  request.with_pauli(pauli).with_cut(ansatz.cut);
  const ResolvedRequest resolved = resolve(request);

  ASSERT_TRUE(resolved.observable.has_value());
  EXPECT_EQ(resolved.circuit.num_ops(), ansatz.circuit.num_ops() + 1);
  EXPECT_EQ(resolved.observable->num_qubits(), 5);
  EXPECT_EQ(resolved.flat_cuts().size(), 1u);
  EXPECT_EQ(resolved.flat_cuts().front(), ansatz.cut);
  EXPECT_FALSE(resolved.plan.has_value());
}

TEST(CutRequestResolve, AutoPlanUsesThePlannersChoice) {
  const auto ansatz = make_ansatz(5, 43);
  const auto best = plan_best_single_cut(ansatz.circuit);
  ASSERT_TRUE(best.has_value());

  CutRequest request(ansatz.circuit);
  request.with_auto_plan();
  const ResolvedRequest resolved = resolve(request);

  ASSERT_TRUE(resolved.plan.has_value());
  EXPECT_EQ(resolved.plan->point, best->point);
  EXPECT_EQ(resolved.flat_cuts().size(), 1u);
  EXPECT_EQ(resolved.flat_cuts().front(), best->point);
  EXPECT_FALSE(resolved.observable.has_value());
}

TEST(CutRequestRun, FacadeMatchesLegacyShimBitForBit) {
  const auto ansatz = make_ansatz(5, 44);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};

  CutRunOptions options;
  options.shots_per_variant = 900;

  backend::StatevectorBackend legacy_backend(77);
  const CutResponse legacy = run_cut(ansatz.circuit, cuts, legacy_backend, options);

  CutRequest request(ansatz.circuit);
  request.with_cuts({cuts.begin(), cuts.end()});
  request.options = options;
  backend::StatevectorBackend facade_backend(77);
  const CutResponse response = run(request, facade_backend);

  EXPECT_EQ(response.reconstruction.raw_probabilities,
            legacy.reconstruction.raw_probabilities);
  EXPECT_EQ(response.backend_delta.jobs, legacy.backend_delta.jobs);
  EXPECT_EQ(response.backend_delta.shots, legacy.backend_delta.shots);
  EXPECT_FALSE(response.expectation.has_value());
  EXPECT_EQ(response.cuts.size(), 1u);
  EXPECT_EQ(response.cuts.front(), ansatz.cut);
}

TEST(CutRequestRun, BootstrapUncertaintyIsAttachedOnRequest) {
  const auto ansatz = make_ansatz(5, 45);
  BootstrapOptions boot;
  boot.replicas = 50;

  CutRequest request(ansatz.circuit);
  request.with_pauli(circuit::PauliString::parse("ZZZZZ"))
      .with_cut(ansatz.cut)
      .with_shots(2000)
      .with_uncertainty(boot);

  backend::StatevectorBackend backend(11);
  const CutResponse response = run(request, backend);
  ASSERT_TRUE(response.expectation.has_value());
  ASSERT_TRUE(response.uncertainty.has_value());
  EXPECT_EQ(response.uncertainty->estimate, *response.expectation);
  EXPECT_GT(response.uncertainty->standard_error, 0.0);
  EXPECT_LE(response.uncertainty->ci_lower, response.uncertainty->ci_upper);
}

}  // namespace
}  // namespace qcut::cutting
