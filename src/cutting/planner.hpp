#pragma once
// Cut planning: scanning a circuit for valid single-cut bipartitions and
// ranking them, including whether each cut is golden (the paper's Section IV
// asks how golden points might be found; this is the offline answer).
//
// Two detector flavors: the distribution-level exact detector, and - when
// the run targets a specific diagonal observable - the observable-specific
// detector, which is weaker (Definition 1 is observable-dependent) and so
// can rank a cut golden that the distribution-level detector rejects.
//
// The valid cuts come from one bridge scan of the op graph
// (circuit::valid_single_cuts). enumerate_single_cuts judges every cut
// with the exact detector and stays the reference. The distribution-level
// plan_* calls screen and confirm: a cut whose upstream fragment costs more
// to simulate than undoing its downstream ops on one full-circuit state is
// judged from that state, and the verdict stands only when every X/Y/Z
// violation is clear of golden_tol by a margin that bounds the rounding
// difference (planner.cpp). Other cuts, and the cut(s) a plan returns, go
// to the exact detector, so every plan is the one enumerate_single_cuts
// would rank, bit for bit.
//
// A distribution-level plan_* call allocates a fixed number of blocks and
// none per cut or per op: the scan writes every cut into flat buffers, op
// matrices are computed once into inline storage, the qubit maps are
// inline, one register per role is reused across cuts, and cuts stay
// compact records until the returned CutCandidate or ChainPlan is built.

#include <optional>
#include <vector>

#include "cutting/fragment_graph.hpp"
#include "cutting/golden.hpp"
#include "cutting/observables.hpp"

namespace qcut::cutting {

/// One analyzed cut position.
struct CutCandidate {
  WirePoint point;
  int f1_width = 0;
  int f2_width = 0;

  /// Exact Definition-1 violation per Pauli {I, X, Y, Z} at this cut.
  std::array<double, 4> violation = {0.0, 0.0, 0.0, 0.0};

  /// Paulis detected golden at tolerance.
  std::vector<Pauli> golden_bases;

  /// Reconstruction terms with the detected golden bases neglected
  /// (4 for a regular cut, 3 or fewer for a golden cut).
  std::uint64_t terms = 4;

  /// Circuit evaluations (upstream settings + downstream preps).
  std::size_t evaluations = 9;
};

/// Enumerates every valid single-cut bipartition of the circuit and
/// evaluates it with the exact golden detector.
[[nodiscard]] std::vector<CutCandidate> enumerate_single_cuts(const Circuit& circuit,
                                                              double golden_tol = 1e-9);

/// Observable-aware enumeration: candidates are evaluated with the
/// observable-specific detector (detect_golden_for_observable), which
/// neglects at least as much as the distribution-level one. Candidates
/// where the observable does not factorize across the bipartition fall
/// back to the distribution-level detector.
[[nodiscard]] std::vector<CutCandidate> enumerate_single_cuts(
    const Circuit& circuit, const DiagonalObservable& observable, double golden_tol = 1e-9);

/// Ranking preferences for plan_best_single_cut.
struct PlannerOptions {
  double golden_tol = 1e-9;
  /// Weight of fragment balance vs term count in the score (see planner.cpp).
  double balance_weight = 0.25;
};

/// Picks the lowest-cost cut: fewest reconstruction terms, ties broken by
/// how evenly the fragments split. Returns nullopt if no valid single cut
/// exists. Screens candidates (see the top of this file); the result equals
/// ranking enumerate_single_cuts(circuit, options.golden_tol).
[[nodiscard]] std::optional<CutCandidate> plan_best_single_cut(
    const Circuit& circuit, const PlannerOptions& options = {});

/// Observable-aware planning: ranks the observable-specific candidate set
/// (judged exactly, unscreened). For expectation-value workloads this can
/// pick a cut with fewer variant executions than any distribution-level
/// golden cut admits.
[[nodiscard]] std::optional<CutCandidate> plan_best_single_cut(
    const Circuit& circuit, const DiagonalObservable& observable,
    const PlannerOptions& options = {});

// ---- Chain planning ---------------------------------------------------------
//
// When a device (or simulator budget) caps the fragment width, one cut
// boundary may not exist that satisfies the cap — the regime where
// CutQC-style chains pay off. plan_chain_cuts picks an ordered sequence of
// single-cut boundaries whose fragments all fit, minimizing total circuit
// evaluations with each boundary's golden neglection (detected exactly,
// per boundary) priced in.

struct ChainPlannerOptions {
  PlannerOptions base;
  /// Hard cap on every fragment's qubit count; 0 = unconstrained.
  int max_fragment_width = 0;
  /// Largest number of boundaries to consider (fragments - 1).
  int max_boundaries = 3;
};

/// A planned chain of single-cut boundaries.
struct ChainPlan {
  std::vector<std::vector<WirePoint>> boundaries;  // one cut point per boundary
  std::vector<CutCandidate> boundary_plans;        // per-boundary golden analysis
  std::vector<int> fragment_widths;                // qubits per fragment, chain order
  std::uint64_t terms = 1;      // reconstruction terms (product over boundaries)
  std::size_t evaluations = 0;  // total fragment circuit evaluations

  [[nodiscard]] int num_boundaries() const noexcept {
    return static_cast<int>(boundaries.size());
  }
};

/// Picks the cheapest valid chain of at most max_boundaries single-cut
/// boundaries whose fragments all satisfy max_fragment_width. Returns
/// nullopt when no such chain exists. With no width cap this degenerates to
/// the best single boundary (more boundaries never cost fewer evaluations).
/// Screens boundary candidates like plan_best_single_cut; every returned
/// boundary_plans entry is the exact candidate.
[[nodiscard]] std::optional<ChainPlan> plan_chain_cuts(const Circuit& circuit,
                                                       const ChainPlannerOptions& options = {});

/// A chain plan and its fragment chain.
struct PlannedChain {
  ChainPlan plan;
  FragmentGraph graph;  // == make_fragment_chain(circuit, plan.boundaries)
};

/// plan_chain_cuts, keeping the chain it builds to validate the plan, so a
/// caller that executes the plan builds its chain once.
[[nodiscard]] std::optional<PlannedChain> plan_chain(const Circuit& circuit,
                                                     const ChainPlannerOptions& options = {});

/// The report detect_golden_exact(make_bipartition(circuit, {candidate.point}),
/// tol) returns, read off the candidate's exact violations instead of
/// re-simulating its upstream fragment. `candidate` must carry exact
/// distribution-level violations: enumerate_single_cuts(circuit)'s do, as
/// do plan_best_single_cut(circuit)'s result and every
/// plan_chain_cuts(circuit) boundary plan, at any planner tolerance.
[[nodiscard]] GoldenDetectionReport exact_report(const CutCandidate& candidate, double tol);

}  // namespace qcut::cutting
