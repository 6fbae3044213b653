#include "cutting/planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "circuit/random.hpp"
#include "cutting/variants.hpp"
#include "support/planner_corpus.hpp"

namespace qcut::cutting {
namespace {

using circuit::Circuit;

TEST(Planner, FindsTheDesignedGoldenCut) {
  Rng rng(3);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);

  const auto candidates = enumerate_single_cuts(ansatz.circuit, 1e-9);
  ASSERT_FALSE(candidates.empty());

  bool found_designed = false;
  for (const CutCandidate& c : candidates) {
    if (c.point == ansatz.cut) {
      found_designed = true;
      ASSERT_EQ(c.golden_bases.size(), 1u);
      EXPECT_EQ(c.golden_bases.front(), ansatz.golden_basis);
      EXPECT_EQ(c.terms, 3u);
      EXPECT_EQ(c.evaluations, 6u);
    }
  }
  EXPECT_TRUE(found_designed);
}

TEST(Planner, BestCutPrefersGoldenAndBalanced) {
  Rng rng(4);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);

  const auto best = plan_best_single_cut(ansatz.circuit);
  ASSERT_TRUE(best.has_value());
  // A golden cut costs at most 6 evaluations; any regular cut costs 9. The
  // planner must pick a golden one. (Cuts on a freshly-|0> wire can even be
  // doubly golden - X and Y both negligible - costing only 3 evaluations.)
  EXPECT_FALSE(best->golden_bases.empty());
  EXPECT_LE(best->evaluations, 6u);
}

TEST(Planner, ChainCircuitHasValidCandidates) {
  Circuit c(3);
  c.cx(0, 1).ry(0.3, 1).cx(1, 2).h(2);
  const auto candidates = enumerate_single_cuts(c, 1e-9);
  // The cut after ry(0.3, 1) on wire 1 is valid.
  bool found = false;
  for (const CutCandidate& cand : candidates) {
    if (cand.point == circuit::WirePoint{1, 1}) {
      found = true;
      EXPECT_EQ(cand.f1_width, 2);
      EXPECT_EQ(cand.f2_width, 2);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Planner, FullyEntangledCircuitMayHaveNoValidSingleCut) {
  // All-to-all interactions in every layer: no single wire segment
  // disconnects the op graph.
  Circuit c(3);
  c.cx(0, 1).cx(1, 2).cx(0, 2);
  c.cx(0, 1).cx(1, 2).cx(0, 2);
  const auto best = plan_best_single_cut(c);
  EXPECT_FALSE(best.has_value());
}

TEST(Planner, ReportsViolationsForRegularCuts) {
  // A genuinely generic (non-golden) chain: the candidate at the generic
  // cut carries all 4 terms and 9 evaluations.
  Circuit c(3);
  c.h(0).t(0).cx(0, 1).h(1).t(1).rx(0.5, 1).ry(0.3, 1).rz(0.7, 1).cx(1, 2).h(2);
  const auto candidates = enumerate_single_cuts(c, 1e-9);
  ASSERT_FALSE(candidates.empty());
  bool found = false;
  for (const CutCandidate& cand : candidates) {
    if (cand.point == circuit::WirePoint{1, 7}) {  // after rz(0.7, 1)
      found = true;
      EXPECT_TRUE(cand.golden_bases.empty());
      EXPECT_EQ(cand.terms, 4u);
      EXPECT_EQ(cand.evaluations, 9u);
      // Every non-identity basis has a substantial violation.
      EXPECT_GT(cand.violation[1], 0.05);
      EXPECT_GT(cand.violation[2], 0.05);
      EXPECT_GT(cand.violation[3], 0.05);
    }
  }
  EXPECT_TRUE(found);
}

// ---- Bit-exactness against the fragment-building reference ------------------

/// Diagonal observables for the observable-aware planner: the all-qubit
/// parity and a Z on qubit 0 (both factorize across every cut) and seeded
/// random diagonal values (which factorize only across cuts whose upstream
/// fragment has no output qubit, so the planner falls back to the
/// distribution-level detector everywhere else).
std::vector<DiagonalObservable> corpus_observables(int num_qubits, Rng& rng) {
  circuit::PauliString z0(num_qubits);
  z0.set_label(0, Pauli::Z);
  std::vector<double> random(pow2(num_qubits));
  for (double& value : random) value = rng.uniform(-1.0, 1.0);
  return {DiagonalObservable::parity(num_qubits), DiagonalObservable::from_pauli(z0),
          DiagonalObservable(std::move(random))};
}

/// The candidate the planner is specified to produce: fragment circuits
/// built by make_bipartition, judged by a Bipartition detector.
CutCandidate reference_candidate(const circuit::WirePoint& point, const Bipartition& bp,
                                 const GoldenDetectionReport& report) {
  const NeglectSpec spec = report.to_spec();
  CutCandidate candidate;
  candidate.point = point;
  candidate.f1_width = bp.fragments[0].width();
  candidate.f2_width = bp.fragments[1].width();
  candidate.violation = report.violation.front();
  for (const Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
    if (report.golden.front()[static_cast<std::size_t>(p)]) candidate.golden_bases.push_back(p);
  }
  candidate.terms = spec.num_active_strings();
  candidate.evaluations = count_variants(spec).total();
  return candidate;
}

/// Every valid single cut in the planner's visiting order, judged by
/// `detect(bp)`.
template <typename Detect>
std::vector<CutCandidate> reference_enumeration(const Circuit& circuit, Detect&& detect) {
  std::vector<CutCandidate> out;
  for (int q = 0; q < circuit.num_qubits(); ++q) {
    const std::vector<std::size_t> ops = circuit.ops_on_qubit(q);
    for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
      const circuit::WirePoint point{q, ops[i]};
      const std::array<circuit::WirePoint, 1> cuts = {point};
      if (!circuit::try_analyze_cuts(circuit, cuts).has_value()) continue;
      const Bipartition bp = make_bipartition(circuit, cuts);
      out.push_back(reference_candidate(point, bp, detect(bp)));
    }
  }
  return out;
}

std::array<std::uint64_t, 4> bit_patterns(const std::array<double, 4>& values) {
  std::array<std::uint64_t, 4> out{};
  for (std::size_t i = 0; i < values.size(); ++i) out[i] = std::bit_cast<std::uint64_t>(values[i]);
  return out;
}

void expect_same_candidates(const std::vector<CutCandidate>& actual,
                            const std::vector<CutCandidate>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(actual[i].point, expected[i].point);
    EXPECT_EQ(actual[i].f1_width, expected[i].f1_width);
    EXPECT_EQ(actual[i].f2_width, expected[i].f2_width);
    EXPECT_EQ(bit_patterns(actual[i].violation), bit_patterns(expected[i].violation));
    EXPECT_EQ(actual[i].golden_bases, expected[i].golden_bases);
    EXPECT_EQ(actual[i].terms, expected[i].terms);
    EXPECT_EQ(actual[i].evaluations, expected[i].evaluations);
  }
}

TEST(Planner, CandidatesMatchTheFragmentBuildingReference) {
  Rng observable_rng(7);
  std::size_t candidates = 0;
  for (const Circuit& circuit : planner_corpus()) {
    SCOPED_TRACE(circuit.num_qubits());
    const std::vector<CutCandidate> expected = reference_enumeration(
        circuit, [](const Bipartition& bp) { return detect_golden_exact(bp, 1e-9); });
    expect_same_candidates(enumerate_single_cuts(circuit, 1e-9), expected);
    candidates += expected.size();

    for (const DiagonalObservable& observable :
         corpus_observables(circuit.num_qubits(), observable_rng)) {
      expect_same_candidates(
          enumerate_single_cuts(circuit, observable, 1e-9),
          reference_enumeration(circuit, [&](const Bipartition& bp) {
            std::optional<GoldenDetectionReport> report =
                try_detect_golden_for_observable(bp, observable, 1e-9);
            return report.has_value() ? *std::move(report) : detect_golden_exact(bp, 1e-9);
          }));
    }
  }
  // The corpus must reach a meaningful number of cuts.
  EXPECT_GT(candidates, 1000u);
}

/// 64-bit FNV-1a over 64-bit words, least significant byte first, so the
/// digest is the same on every host.
struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(const CutCandidate& c) {
    add(static_cast<std::uint64_t>(c.point.qubit));
    add(static_cast<std::uint64_t>(c.point.after_op));
    add(static_cast<std::uint64_t>(c.f1_width));
    add(static_cast<std::uint64_t>(c.f2_width));
    for (const double v : c.violation) add(v);
    for (const Pauli p : c.golden_bases) add(static_cast<std::uint64_t>(p));
    add(c.terms);
    add(static_cast<std::uint64_t>(c.evaluations));
  }
};

// Committed digests of the planner's output over the corpus, recorded
// before the planner stopped building a bipartition per candidate. They
// pin every violation bit, so they hold on hosts whose libm and compiler
// flags (no FMA contraction, as in a default x86-64 build) give the same
// gate matrices and amplitudes.

TEST(Planner, SingleCutCandidatesMatchCommittedDigest) {
  Fnv1a distribution;
  Fnv1a parity;
  for (const Circuit& circuit : planner_corpus()) {
    for (const CutCandidate& c : enumerate_single_cuts(circuit, 1e-9)) distribution.add(c);
    const DiagonalObservable observable = DiagonalObservable::parity(circuit.num_qubits());
    for (const CutCandidate& c : enumerate_single_cuts(circuit, observable, 1e-9)) {
      parity.add(c);
    }
  }
  EXPECT_EQ(distribution.hash, 0x96ab97447a036094ULL) << std::hex << distribution.hash;
  EXPECT_EQ(parity.hash, 0x482d2a6a881a10c4ULL) << std::hex << parity.hash;
}

/// Adds a chain plan (or its absence) to `digest`; returns whether one was
/// found.
bool add_plan(Fnv1a& digest, const std::optional<ChainPlan>& plan) {
  digest.add(static_cast<std::uint64_t>(plan.has_value()));
  if (!plan.has_value()) return false;
  for (const std::vector<circuit::WirePoint>& boundary : plan->boundaries) {
    for (const circuit::WirePoint& point : boundary) {
      digest.add(static_cast<std::uint64_t>(point.qubit));
      digest.add(static_cast<std::uint64_t>(point.after_op));
    }
  }
  for (const CutCandidate& c : plan->boundary_plans) digest.add(c);
  for (const int width : plan->fragment_widths) digest.add(static_cast<std::uint64_t>(width));
  digest.add(plan->terms);
  digest.add(static_cast<std::uint64_t>(plan->evaluations));
  return true;
}

/// Adds a planned single cut (or its absence) to `digest`.
void add_best(Fnv1a& digest, const std::optional<CutCandidate>& best) {
  digest.add(static_cast<std::uint64_t>(best.has_value()));
  if (best.has_value()) digest.add(*best);
}

TEST(Planner, ChainPlansMatchCommittedDigest) {
  Fnv1a digest;
  std::size_t planned = 0;
  for (const Circuit& circuit : planner_corpus()) {
    ChainPlannerOptions options;
    options.max_fragment_width = circuit.num_qubits() / 2 + 1;
    if (add_plan(digest, plan_chain_cuts(circuit, options))) ++planned;
  }
  EXPECT_GT(planned, 50u);
  EXPECT_EQ(digest.hash, 0x021170517ef70eecULL) << std::hex << digest.hash;
}

// ---- plan_* where the exact detector must decide ----------------------------
//
// plan_best_single_cut and plan_chain_cuts may judge a candidate from an
// approximate statevector, but only where its verdicts are clear of the
// tolerance and the circuit qualifies. These digests, recorded before the
// planner screened any candidate, pin the cases that must go to the exact
// detector instead.

/// `circuit` with Custom ops: an RXX block on wires 0 and 1 in front, and a
/// U after the last op of every wire, so every cut whose downstream part is
/// a wire's trailing gates has a Custom op downstream.
Circuit with_custom_ops(const Circuit& circuit, Rng& rng) {
  Circuit out(circuit.num_qubits());
  out.append_custom(circuit::gate_matrix(circuit::GateKind::RXX, {rng.uniform(0.0, 3.0)}),
                    {0, 1}, "rxx");
  std::vector<int> identity(static_cast<std::size_t>(circuit.num_qubits()));
  for (int q = 0; q < circuit.num_qubits(); ++q) identity[static_cast<std::size_t>(q)] = q;
  for (const circuit::Operation& op : circuit.ops()) out.append_remapped(op, identity);
  for (int q = 0; q < circuit.num_qubits(); ++q) {
    out.append_custom(circuit::gate_matrix(circuit::GateKind::U,
                                           {rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0),
                                            rng.uniform(0.0, 3.0)}),
                      {q}, "u");
  }
  return out;
}

/// Golden tolerances that put verdicts on the tolerance itself: 0, where a
/// golden element's violation sits at or just above it, and the smallest,
/// a middle and the largest X/Y/Z violation the exact detector reports on
/// `circuit`.
std::vector<double> boundary_tolerances(const Circuit& circuit) {
  std::vector<double> violations;
  for (const CutCandidate& c : enumerate_single_cuts(circuit, 1e-9)) {
    for (const Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
      violations.push_back(c.violation[static_cast<std::size_t>(p)]);
    }
  }
  std::vector<double> tolerances = {0.0};
  if (!violations.empty()) {
    std::sort(violations.begin(), violations.end());
    tolerances.push_back(violations.front());
    tolerances.push_back(violations[violations.size() / 2]);
    tolerances.push_back(violations.back());
  }
  return tolerances;
}

TEST(Planner, BestSingleCutsMatchCommittedDigest) {
  Fnv1a digest;
  for (const Circuit& circuit : planner_corpus()) add_best(digest, plan_best_single_cut(circuit));
  EXPECT_EQ(digest.hash, 0xf543b23bd2db2325ULL) << std::hex << digest.hash;
}

TEST(Planner, PlansAtBoundaryTolerancesMatchCommittedDigest) {
  Fnv1a best_digest;
  Fnv1a chain_digest;
  std::size_t plans = 0;
  for (const Circuit& circuit : planner_corpus()) {
    for (const double tol : boundary_tolerances(circuit)) {
      PlannerOptions options;
      options.golden_tol = tol;
      add_best(best_digest, plan_best_single_cut(circuit, options));
      ChainPlannerOptions chain;
      chain.base = options;
      chain.max_fragment_width = circuit.num_qubits() / 2 + 1;
      if (add_plan(chain_digest, plan_chain_cuts(circuit, chain))) ++plans;
    }
  }
  EXPECT_GT(plans, 200u);
  EXPECT_EQ(best_digest.hash, 0xeb433e12046df7c6ULL) << std::hex << best_digest.hash;
  EXPECT_EQ(chain_digest.hash, 0x05b076139235946dULL) << std::hex << chain_digest.hash;
}

TEST(Planner, PlansWithCustomOpsMatchCommittedDigest) {
  Rng rng(31);
  Fnv1a best_digest;
  Fnv1a chain_digest;
  for (const Circuit& corpus_circuit : planner_corpus()) {
    const Circuit circuit = with_custom_ops(corpus_circuit, rng);
    add_best(best_digest, plan_best_single_cut(circuit));
    ChainPlannerOptions chain;
    chain.max_fragment_width = circuit.num_qubits() / 2 + 1;
    add_plan(chain_digest, plan_chain_cuts(circuit, chain));
  }
  EXPECT_EQ(best_digest.hash, 0x87e1ebb522f92a73ULL) << std::hex << best_digest.hash;
  EXPECT_EQ(chain_digest.hash, 0x20035d035295cc0eULL) << std::hex << chain_digest.hash;
}

}  // namespace
}  // namespace qcut::cutting
