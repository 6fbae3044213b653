#include "cutting/planner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <span>
#include <utility>

#include "cutting/fragment_graph.hpp"
#include "cutting/variants.hpp"
#include "sim/statevector.hpp"

namespace qcut::cutting {

namespace {

/// What ranking and golden detection need from one single cut, read off
/// its cut analysis instead of built fragment circuits. The qubit
/// assignment is make_fragment_chain's own (split_qubits), so the layout is
/// the one make_bipartition's f1 and f2 would have.
struct CutView {
  circuit::CutAnalysis analysis;
  SplitQubits qubits;       // original qubit <-> f1 / f2 locals
  FragmentLayout upstream;  // f1: width, cut-wire local, output locals

  [[nodiscard]] int f1_width() const noexcept { return upstream.width; }
  [[nodiscard]] int f2_width() const noexcept {
    return static_cast<int>(qubits.down_to_sub.size());
  }

  /// Original qubits of the f1 outputs (the observable planner's
  /// factorization side A; f2's are qubits.down_to_sub).
  [[nodiscard]] std::vector<int> output_original() const {
    std::vector<int> out;
    out.reserve(upstream.out_qubits.size());
    for (int local : upstream.out_qubits) {
      out.push_back(qubits.up_to_sub[static_cast<std::size_t>(local)]);
    }
    return out;
  }
};

CutView make_cut_view(const Circuit& circuit, circuit::CutAnalysis analysis) {
  CutView view;
  view.qubits = split_qubits(circuit, analysis);
  FragmentLayout& up = view.upstream;
  up.num_cuts = static_cast<int>(analysis.cut_qubits.size());
  up.width = static_cast<int>(view.qubits.up_to_sub.size());
  // Every f1 local that is not a cut wire is an output (finish_fragment's rule).
  std::vector<bool> is_cut(static_cast<std::size_t>(up.width), false);
  for (int q : analysis.cut_qubits) {
    const int local = view.qubits.up_local_of[static_cast<std::size_t>(q)];
    up.cut_qubits.push_back(local);
    is_cut[static_cast<std::size_t>(local)] = true;
  }
  for (int local = 0; local < up.width; ++local) {
    if (!is_cut[static_cast<std::size_t>(local)]) up.out_qubits.push_back(local);
  }
  view.analysis = std::move(analysis);
  return view;
}

/// Every op's unitary, computed once per planner call. Operation::matrix()
/// would fill the op's lazy cache: a write into the caller's circuit, which
/// concurrent plan_* calls on one const Circuit must not make.
std::vector<linalg::CMat> op_matrices(const Circuit& circuit) {
  std::vector<linalg::CMat> matrices;
  matrices.reserve(circuit.num_ops());
  for (const circuit::Operation& op : circuit.ops()) {
    matrices.push_back(op.kind == circuit::GateKind::Custom
                           ? op.custom
                           : circuit::gate_matrix(op.kind, op.params));
  }
  return matrices;
}

/// The f1 state of `view`, simulated in place: every upstream op of the
/// original circuit, in program order, on its f1-local qubits. These are
/// the ops, matrices and qubit lists make_bipartition's f1 would apply, so
/// the amplitudes are bit for bit the same.
sim::StateVector simulate_upstream(const Circuit& circuit,
                                   std::span<const linalg::CMat> matrices, const CutView& view) {
  sim::StateVector psi(view.f1_width());
  std::vector<int> locals;
  for (std::size_t i = 0; i < circuit.num_ops(); ++i) {
    if (view.analysis.op_fragment[i] != circuit::FragmentId::Upstream) continue;
    locals.clear();
    for (int q : circuit.op(i).qubits) {
      locals.push_back(view.qubits.up_local_of[static_cast<std::size_t>(q)]);
    }
    psi.apply_matrix(matrices[i], locals);
  }
  return psi;
}

/// Enumeration skeleton shared by the single-cut and chain planners:
/// visits every valid single cut as
/// visit(point, view, f1 amplitudes, up_op, down_op).
template <typename Visit>
void for_each_single_cut(const Circuit& circuit, Visit&& visit) {
  const std::vector<linalg::CMat> matrices = op_matrices(circuit);
  const std::vector<std::vector<std::size_t>> chains = circuit::wire_chains(circuit);
  for (int q = 0; q < circuit.num_qubits(); ++q) {
    const std::vector<std::size_t>& ops = chains[static_cast<std::size_t>(q)];
    // Cutting after the last op on a wire is meaningless; skip it.
    for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
      const WirePoint point{q, ops[i]};
      const std::array<WirePoint, 1> cuts = {point};
      std::optional<circuit::CutAnalysis> analysis =
          circuit::try_analyze_cuts(circuit, cuts, chains);
      if (!analysis.has_value()) continue;
      const CutView view = make_cut_view(circuit, *std::move(analysis));
      const sim::StateVector upstream = simulate_upstream(circuit, matrices, view);
      visit(point, view, upstream.amplitudes(), ops[i], ops[i + 1]);
    }
  }
}

/// What a single cut's neglect spec costs.
struct SpecCosts {
  std::uint64_t terms = 0;   // active basis strings
  std::size_t settings = 0;  // upstream measurement settings
  std::size_t preps = 0;     // downstream preparations
};

/// SpecCosts per golden pattern. A single cut's spec, and so its costs,
/// depend only on which of X, Y and Z are golden, so one planner call
/// derives each of the 8 patterns at most once.
class SpecCostTable {
 public:
  const SpecCosts& operator()(const GoldenDetectionReport& report) {
    std::size_t pattern = 0;
    for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
      if (report.golden.front()[static_cast<std::size_t>(p)]) {
        pattern |= std::size_t{1} << (static_cast<int>(p) - 1);
      }
    }
    std::optional<SpecCosts>& costs = table_[pattern];
    if (!costs.has_value()) {
      const NeglectSpec spec = report.to_spec();
      costs = SpecCosts{spec.num_active_strings(), required_setting_indices(spec).size(),
                        required_prep_indices(spec).size()};
    }
    return *costs;
  }

 private:
  std::array<std::optional<SpecCosts>, 8> table_{};
};

/// CutCandidate from one analyzed cut and its golden report.
CutCandidate make_candidate(const WirePoint& point, const CutView& view,
                            const GoldenDetectionReport& report, const SpecCosts& costs) {
  CutCandidate candidate;
  candidate.point = point;
  candidate.f1_width = view.f1_width();
  candidate.f2_width = view.f2_width();
  candidate.violation = report.violation.front();
  for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
    if (report.golden.front()[static_cast<std::size_t>(p)]) {
      candidate.golden_bases.push_back(p);
    }
  }
  candidate.terms = costs.terms;
  // == count_variants(spec).total()
  candidate.evaluations = costs.settings + costs.preps;
  return candidate;
}

/// Candidate list; `detect(view, amplitudes)` maps a cut and its f1
/// amplitudes to the golden report that should rank it.
template <typename Detect>
std::vector<CutCandidate> enumerate_with(const Circuit& circuit, Detect&& detect) {
  std::vector<CutCandidate> candidates;
  SpecCostTable spec_costs;
  for_each_single_cut(circuit, [&](const WirePoint& point, const CutView& view,
                                   std::span<const linalg::cx> amplitudes, std::size_t,
                                   std::size_t) {
    const GoldenDetectionReport report = detect(view, amplitudes);
    candidates.push_back(make_candidate(point, view, report, spec_costs(report)));
  });
  return candidates;
}

std::optional<CutCandidate> pick_best(std::vector<CutCandidate> candidates,
                                      const PlannerOptions& options) {
  if (candidates.empty()) return std::nullopt;

  // Score: circuit evaluations dominate (that is the paper's wall-time
  // driver); fragment imbalance is penalized so the simulator load stays
  // manageable on small devices.
  const auto score = [&](const CutCandidate& c) {
    const double imbalance = std::abs(c.f1_width - c.f2_width);
    return static_cast<double>(c.evaluations) + options.balance_weight * imbalance;
  };
  const auto best = std::min_element(
      candidates.begin(), candidates.end(),
      [&](const CutCandidate& a, const CutCandidate& b) { return score(a) < score(b); });
  return *best;
}

}  // namespace

std::vector<CutCandidate> enumerate_single_cuts(const Circuit& circuit, double golden_tol) {
  return enumerate_with(circuit, [&](const CutView& view, std::span<const linalg::cx> amplitudes) {
    return detect_golden_exact_core(view.upstream, amplitudes, golden_tol);
  });
}

std::vector<CutCandidate> enumerate_single_cuts(const Circuit& circuit,
                                                const DiagonalObservable& observable,
                                                double golden_tol) {
  return enumerate_with(circuit, [&](const CutView& view, std::span<const linalg::cx> amplitudes) {
    std::optional<GoldenDetectionReport> report = try_detect_golden_for_observable_core(
        view.upstream, amplitudes, observable, view.output_original(), view.qubits.down_to_sub,
        golden_tol);
    // Non-factorizing candidates keep the distribution-level (stronger,
    // hence conservative) verdict.
    return report.has_value() ? std::move(*report)
                              : detect_golden_exact_core(view.upstream, amplitudes, golden_tol);
  });
}

std::optional<CutCandidate> plan_best_single_cut(const Circuit& circuit,
                                                 const PlannerOptions& options) {
  return pick_best(enumerate_single_cuts(circuit, options.golden_tol), options);
}

std::optional<CutCandidate> plan_best_single_cut(const Circuit& circuit,
                                                 const DiagonalObservable& observable,
                                                 const PlannerOptions& options) {
  return pick_best(enumerate_single_cuts(circuit, observable, options.golden_tol), options);
}

namespace {

/// A single-cut boundary candidate enriched with the prefix structure the
/// chain DP needs.
struct ChainCandidate {
  CutCandidate info;
  std::vector<bool> upstream_ops;  // op -> belongs to the prefix
  std::size_t num_upstream_ops = 0;
  std::size_t up_op = 0;    // last prefix op on the cut wire
  std::size_t down_op = 0;  // first suffix op on the cut wire
  std::size_t settings_count = 0;  // outgoing settings under the detected spec
  std::size_t preps_count = 0;     // incoming preps under the detected spec
};

std::vector<ChainCandidate> enumerate_chain_candidates(const Circuit& circuit, double tol) {
  std::vector<ChainCandidate> out;
  SpecCostTable spec_costs;
  for_each_single_cut(circuit, [&](const WirePoint& point, const CutView& view,
                                   std::span<const linalg::cx> amplitudes, std::size_t up_op,
                                   std::size_t down_op) {
    const GoldenDetectionReport report = detect_golden_exact_core(view.upstream, amplitudes, tol);
    const SpecCosts& costs = spec_costs(report);

    ChainCandidate candidate;
    candidate.info = make_candidate(point, view, report, costs);
    candidate.upstream_ops.assign(circuit.num_ops(), false);
    for (std::size_t op = 0; op < circuit.num_ops(); ++op) {
      if (view.analysis.op_fragment[op] == circuit::FragmentId::Upstream) {
        candidate.upstream_ops[op] = true;
        ++candidate.num_upstream_ops;
      }
    }
    candidate.up_op = up_op;
    candidate.down_op = down_op;
    candidate.settings_count = costs.settings;
    candidate.preps_count = costs.preps;
    out.push_back(std::move(candidate));
  });
  return out;
}

/// Qubits touched by the ops strictly between two prefixes (the interior
/// fragment's width; both cut wires are touched and counted).
int segment_width(const Circuit& circuit, const std::vector<bool>& inner,
                  const std::vector<bool>& outer) {
  std::vector<bool> touched(static_cast<std::size_t>(circuit.num_qubits()), false);
  for (std::size_t op = 0; op < circuit.num_ops(); ++op) {
    if (outer[op] && !inner[op]) {
      for (int q : circuit.op(op).qubits) touched[static_cast<std::size_t>(q)] = true;
    }
  }
  int width = 0;
  for (bool t : touched) width += t ? 1 : 0;
  return width;
}

bool strict_subset(const ChainCandidate& inner, const ChainCandidate& outer) {
  if (inner.num_upstream_ops >= outer.num_upstream_ops) return false;
  for (std::size_t op = 0; op < inner.upstream_ops.size(); ++op) {
    if (inner.upstream_ops[op] && !outer.upstream_ops[op]) return false;
  }
  return true;
}

}  // namespace

std::optional<ChainPlan> plan_chain_cuts(const Circuit& circuit,
                                         const ChainPlannerOptions& options) {
  const std::vector<ChainCandidate> candidates =
      enumerate_chain_candidates(circuit, options.base.golden_tol);
  if (candidates.empty()) return std::nullopt;

  const int cap = options.max_fragment_width;
  const auto fits = [&](int width) { return cap == 0 || width <= cap; };
  const int max_nb = std::max(1, options.max_boundaries);
  const std::size_t n = candidates.size();

  constexpr std::size_t kInf = static_cast<std::size_t>(-1);
  // dp[nb][i]: cheapest evaluations of every fragment closed off when
  // candidate i is the nb-th boundary of the chain (fragments 0..nb-1).
  std::vector<std::vector<std::size_t>> dp(static_cast<std::size_t>(max_nb) + 1,
                                           std::vector<std::size_t>(n, kInf));
  std::vector<std::vector<std::ptrdiff_t>> parent(
      static_cast<std::size_t>(max_nb) + 1, std::vector<std::ptrdiff_t>(n, -1));

  for (std::size_t i = 0; i < n; ++i) {
    if (fits(candidates[i].info.f1_width)) {
      dp[1][i] = candidates[i].settings_count;
    }
  }
  // Valid transitions are independent of the boundary count; compute each
  // (p, i) pair's verdict once instead of re-scanning ops per nb level.
  std::vector<char> transition_ok(max_nb >= 2 ? n * n : 0, 0);
  if (max_nb >= 2) {
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t i = 0; i < n; ++i) {
        const ChainCandidate& prev = candidates[p];
        const ChainCandidate& next = candidates[i];
        if (!strict_subset(prev, next)) continue;
        // Chain adjacency: the previous boundary's wire resumes, and the
        // next boundary's wire ends, inside the fragment between them.
        if (!next.upstream_ops[prev.down_op]) continue;
        if (prev.upstream_ops[next.up_op]) continue;
        if (!fits(segment_width(circuit, prev.upstream_ops, next.upstream_ops))) continue;
        transition_ok[p * n + i] = 1;
      }
    }
  }
  for (int nb = 2; nb <= max_nb; ++nb) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t p = 0; p < n; ++p) {
        if (dp[nb - 1][p] == kInf || transition_ok[p * n + i] == 0) continue;
        const std::size_t cost =
            dp[nb - 1][p] + candidates[p].preps_count * candidates[i].settings_count;
        if (cost < dp[nb][i]) {
          dp[nb][i] = cost;
          parent[nb][i] = static_cast<std::ptrdiff_t>(p);
        }
      }
    }
  }

  // Close each finite state with its last fragment and rank: fewest total
  // evaluations, then fewer boundaries, then the single-cut tie-break.
  struct Choice {
    int nb = 0;
    std::size_t last = 0;
    std::size_t evaluations = kInf;
  };
  std::optional<Choice> best;
  const auto better = [&](const Choice& a, const Choice& b) {
    if (a.evaluations != b.evaluations) return a.evaluations < b.evaluations;
    if (a.nb != b.nb) return a.nb < b.nb;
    const int ia = std::abs(candidates[a.last].info.f1_width - candidates[a.last].info.f2_width);
    const int ib = std::abs(candidates[b.last].info.f1_width - candidates[b.last].info.f2_width);
    return ia < ib;
  };
  for (int nb = 1; nb <= max_nb; ++nb) {
    for (std::size_t i = 0; i < n; ++i) {
      if (dp[nb][i] == kInf) continue;
      if (!fits(candidates[i].info.f2_width)) continue;
      const Choice choice{nb, i, dp[nb][i] + candidates[i].preps_count};
      if (!best.has_value() || better(choice, *best)) best = choice;
    }
  }
  if (!best.has_value()) return std::nullopt;

  // Walk the parent chain back to the first boundary.
  std::vector<std::size_t> path(static_cast<std::size_t>(best->nb));
  std::size_t at = best->last;
  for (int nb = best->nb; nb >= 1; --nb) {
    path[static_cast<std::size_t>(nb - 1)] = at;
    if (nb > 1) at = static_cast<std::size_t>(parent[nb][at]);
  }

  ChainPlan plan;
  plan.evaluations = best->evaluations;
  for (std::size_t step = 0; step < path.size(); ++step) {
    const ChainCandidate& candidate = candidates[path[step]];
    plan.boundaries.push_back({candidate.info.point});
    plan.boundary_plans.push_back(candidate.info);
    plan.terms *= candidate.info.terms;
    plan.fragment_widths.push_back(
        step == 0 ? candidate.info.f1_width
                  : segment_width(circuit, candidates[path[step - 1]].upstream_ops,
                                  candidate.upstream_ops));
  }
  plan.fragment_widths.push_back(candidates[path.back()].info.f2_width);

  // The DP conditions mirror make_fragment_chain's validation; building the
  // graph here catches any divergence before the plan escapes.
  (void)make_fragment_chain(circuit, plan.boundaries);
  return plan;
}

}  // namespace qcut::cutting
