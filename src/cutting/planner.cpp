#include "cutting/planner.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "cutting/fragment_graph.hpp"
#include "cutting/variants.hpp"
#include "linalg/ops.hpp"
#include "sim/statevector.hpp"

namespace qcut::cutting {

namespace {

/// What ranking and golden detection need from one single cut, read off
/// its cut analysis instead of built fragment circuits. The qubit
/// assignment is make_fragment_chain's own (split_qubits), so the layout is
/// the one make_bipartition's fragments f1 and f2 would have.
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
  up.cut_qubits.reserve(analysis.cut_qubits.size());
  for (int q : analysis.cut_qubits) {
    up.cut_qubits.push_back(view.qubits.up_local_of[static_cast<std::size_t>(q)]);
  }
  // Every f1 local that is not a cut wire is an output (finish_fragment's rule).
  up.out_qubits.reserve(static_cast<std::size_t>(up.width));
  for (int local = 0; local < up.width; ++local) {
    if (std::find(up.cut_qubits.begin(), up.cut_qubits.end(), local) == up.cut_qubits.end()) {
      up.out_qubits.push_back(local);
    }
  }
  view.analysis = std::move(analysis);
  return view;
}

/// Every op's unitary, computed once per planner call.
std::vector<linalg::CMat> op_matrices(const Circuit& circuit) {
  std::vector<linalg::CMat> matrices;
  matrices.reserve(circuit.num_ops());
  for (const circuit::Operation& op : circuit.ops()) matrices.push_back(op.matrix());
  return matrices;
}

/// The f1 state of `view`, simulated in place: every upstream op of the
/// original circuit, in program order, on its f1-local qubits. These are
/// the ops, matrices and qubit lists of make_bipartition's fragment 0, so
/// the amplitudes are bit for bit the same.
sim::StateVector simulate_upstream(const Circuit& circuit,
                                   std::span<const linalg::CMat> matrices, const CutView& view) {
  sim::StateVector psi(view.f1_width());
  for (std::size_t i = 0; i < circuit.num_ops(); ++i) {
    if (view.analysis.op_fragment[i] != circuit::FragmentId::Upstream) continue;
    circuit::QubitList locals = circuit.op(i).qubits;
    for (int& q : locals) q = view.qubits.up_local_of[static_cast<std::size_t>(q)];
    psi.apply_matrix(matrices[i], locals);
  }
  return psi;
}

/// What a single cut's neglect spec costs.
struct SpecCosts {
  std::uint64_t terms = 0;   // active basis strings
  std::size_t settings = 0;  // upstream measurement settings
  std::size_t preps = 0;     // downstream preparations
};

/// The SpecCosts of a single cut's report. They depend only on which of X,
/// Y and Z are golden, so each of the 8 patterns is derived once per
/// process.
const SpecCosts& spec_costs(const GoldenDetectionReport& report) {
  static const std::array<SpecCosts, 8> table = [] {
    std::array<SpecCosts, 8> costs{};
    for (std::size_t pattern = 0; pattern < costs.size(); ++pattern) {
      NeglectSpec spec(1);
      for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
        if ((pattern >> (static_cast<int>(p) - 1)) & 1U) spec.neglect(0, p);
      }
      costs[pattern] = SpecCosts{spec.num_active_strings(), required_setting_indices(spec).size(),
                                 required_prep_indices(spec).size()};
    }
    return costs;
  }();
  std::size_t pattern = 0;
  for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
    if (report.golden.front()[static_cast<std::size_t>(p)]) {
      pattern |= std::size_t{1} << (static_cast<int>(p) - 1);
    }
  }
  return table[pattern];
}

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
  const std::vector<linalg::CMat> matrices = op_matrices(circuit);
  std::vector<circuit::SingleCut> cuts = circuit::valid_single_cuts(circuit);
  std::vector<CutCandidate> candidates;
  candidates.reserve(cuts.size());
  for (circuit::SingleCut& cut : cuts) {
    const CutView view = make_cut_view(circuit, std::move(cut.analysis));
    const sim::StateVector upstream = simulate_upstream(circuit, matrices, view);
    const GoldenDetectionReport report = detect(view, upstream.amplitudes());
    candidates.push_back(make_candidate(cut.point, view, report, spec_costs(report)));
  }
  return candidates;
}

/// Index of the lowest-scoring candidate (the first of equals).
std::optional<std::size_t> pick_best(const std::vector<CutCandidate>& candidates,
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
  return static_cast<std::size_t>(best - candidates.begin());
}

// ---- Screening --------------------------------------------------------------
//
// A cut's f1 state is also the whole circuit's state with the downstream
// ops D undone: every op of D follows every upstream op it shares a wire
// with, so undoing D (adjoints, in reverse program order) leaves the
// upstream state on f1's qubits and |0> on the rest. One full simulation
// per planner call therefore serves every cut whose |D| undo steps on 2^n
// amplitudes cost less than the |U| forward steps on 2^w1 that
// simulate_upstream takes, above all cuts whose downstream part is a wire's
// trailing gates and whose upstream is nearly the whole circuit.
//
// Those violations are approximate, so they only screen. A screened
// verdict stands only when it is at least kScreenMargin from the
// tolerance; otherwise, and for the cut(s) a plan finally returns, the
// exact detector decides. How far a screened violation can be from the
// exact detector's, with u = 2^-53 and N ops, all named gates on at most 3
// qubits (m <= 8 amplitudes per group):
//  * a computed gate matrix is within ~12u of a unitary in the 2-norm, and
//    one application (m-term complex dot products) adds at most ~35u times
//    the state's norm, so each op moves a computed state at most 64u from
//    the exactly applied unitary;
//  * the screen's state takes N + |D| such steps and the exact detector's
//    upstream |U|, 2N in all, and every state keeps norm 1 + O(Nu);
//  * a violation is a max over 2x2 traces of amplitude pairs, which moves
//    by at most 3x the 2-norm change of the state, plus 16u of rounding in
//    each detector.
// So |screened - exact| <= 3 * 64u * 2N + 32u < 4.3e-14 * N + 4e-15, which
// kMaxScreenedOps = 1024 keeps below 4.4e-11, under half of kScreenMargin.
// A Custom op is unitary only to append_custom's check (a tolerance the
// caller may loosen), so a circuit holding one is never screened.
constexpr double kScreenMargin = 1e-10;
constexpr std::size_t kMaxScreenedOps = 1024;
// The screen keeps two full registers: above 2^20 amplitudes (16 MiB each)
// that outgrows the upstream simulation it would save.
constexpr int kMaxScreenedQubits = 20;

/// Golden reports for the single cuts of one circuit: screened where that
/// is cheaper and its verdicts are clear of the tolerance, exact otherwise.
class CutJudge {
 public:
  CutJudge(const Circuit& circuit, double tol)
      : circuit_(circuit), matrices_(op_matrices(circuit)), tol_(tol) {
    screenable_ = circuit.num_ops() <= kMaxScreenedOps &&
                  circuit.num_qubits() <= kMaxScreenedQubits &&
                  std::none_of(circuit.ops().begin(), circuit.ops().end(),
                               [](const circuit::Operation& op) {
                                 return op.kind == circuit::GateKind::Custom;
                               });
  }

  /// The exact detector's report.
  [[nodiscard]] GoldenDetectionReport exact(const CutView& view) const {
    const sim::StateVector upstream = simulate_upstream(circuit_, matrices_, view);
    return detect_golden_exact_core(view.upstream, upstream.amplitudes(), tol_);
  }

  /// A report whose golden verdicts are exact(view)'s. Its violations are
  /// exact unless `screened` is set.
  GoldenDetectionReport operator()(const CutView& view, bool& screened) {
    screened = false;
    if (!screenable_) return exact(view);
    std::size_t downstream_ops = 0;
    for (const circuit::FragmentId id : view.analysis.op_fragment) {
      downstream_ops += id == circuit::FragmentId::Downstream ? 1 : 0;
    }
    const std::size_t upstream_ops = circuit_.num_ops() - downstream_ops;
    if ((downstream_ops << circuit_.num_qubits()) >= (upstream_ops << view.f1_width())) {
      return exact(view);
    }
    GoldenDetectionReport report = screen(view);
    for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
      // Written so that NaN goes to the exact detector too.
      if (!(std::abs(report.violation.front()[static_cast<std::size_t>(p)] - tol_) >
            kScreenMargin)) {
        return exact(view);
      }
    }
    screened = true;
    return report;
  }

 private:
  GoldenDetectionReport screen(const CutView& view) {
    if (!full_.has_value()) {
      full_.emplace(circuit_.num_qubits());
      for (std::size_t i = 0; i < circuit_.num_ops(); ++i) {
        full_->apply_matrix(matrices_[i], circuit_.op(i).qubits);
      }
    }
    sim::StateVector state = *full_;
    for (std::size_t i = circuit_.num_ops(); i-- > 0;) {
      if (view.analysis.op_fragment[i] != circuit::FragmentId::Downstream) continue;
      state.apply_matrix(linalg::dagger(matrices_[i]), circuit_.op(i).qubits);
    }
    // The f1 amplitudes, read in place: f1's cut and output qubits under
    // their original indices, every other qubit at 0.
    FragmentLayout layout;
    layout.num_cuts = 1;
    layout.width = circuit_.num_qubits();
    layout.cut_qubits = view.analysis.cut_qubits;
    layout.out_qubits = view.output_original();
    return detect_golden_exact_core(layout, state.amplitudes(), tol_);
  }

  const Circuit& circuit_;
  std::vector<linalg::CMat> matrices_;
  double tol_;
  bool screenable_ = false;
  std::optional<sim::StateVector> full_;  // the whole circuit, once screened
};

/// Every valid single cut in scan order, ranked from its judged report, for
/// the plan_* entry points. confirmed(i) is the exact candidate.
class SingleCutRanking {
 public:
  SingleCutRanking(const Circuit& circuit, double tol) : judge_(circuit, tol) {
    std::vector<circuit::SingleCut> cuts = circuit::valid_single_cuts(circuit);
    candidates_.reserve(cuts.size());
    views_.reserve(cuts.size());
    costs_.reserve(cuts.size());
    down_ops_.reserve(cuts.size());
    screened_.reserve(cuts.size());
    for (circuit::SingleCut& cut : cuts) {
      CutView view = make_cut_view(circuit, std::move(cut.analysis));
      bool screened = false;
      const GoldenDetectionReport report = judge_(view, screened);
      const SpecCosts& costs = spec_costs(report);
      candidates_.push_back(make_candidate(cut.point, view, report, costs));
      costs_.push_back(costs);
      down_ops_.push_back(cut.down_op);
      screened_.push_back(screened ? 1 : 0);
      views_.push_back(std::move(view));
    }
  }

  /// Candidates whose golden verdicts, and so terms and evaluations, are
  /// exact; their violations may be screened.
  [[nodiscard]] const std::vector<CutCandidate>& candidates() const { return candidates_; }
  [[nodiscard]] const CutView& view(std::size_t i) const { return views_[i]; }
  [[nodiscard]] const SpecCosts& costs(std::size_t i) const { return costs_[i]; }
  [[nodiscard]] std::size_t down_op(std::size_t i) const { return down_ops_[i]; }

  /// Candidate i as enumerate_single_cuts reports it.
  CutCandidate confirmed(std::size_t i) {
    if (screened_[i] != 0) {
      const GoldenDetectionReport report = judge_.exact(views_[i]);
      CutCandidate exact =
          make_candidate(candidates_[i].point, views_[i], report, spec_costs(report));
      QCUT_ASSERT(exact.golden_bases == candidates_[i].golden_bases,
                  "planner: a screened golden verdict differs from the exact detector's");
      candidates_[i] = std::move(exact);
      screened_[i] = 0;
    }
    return candidates_[i];
  }

 private:
  CutJudge judge_;
  std::vector<CutCandidate> candidates_;
  std::vector<CutView> views_;
  std::vector<SpecCosts> costs_;
  std::vector<std::size_t> down_ops_;
  std::vector<char> screened_;
};

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
  SingleCutRanking ranking(circuit, options.golden_tol);
  const std::optional<std::size_t> best = pick_best(ranking.candidates(), options);
  if (!best.has_value()) return std::nullopt;
  return ranking.confirmed(*best);
}

std::optional<CutCandidate> plan_best_single_cut(const Circuit& circuit,
                                                 const DiagonalObservable& observable,
                                                 const PlannerOptions& options) {
  std::vector<CutCandidate> candidates =
      enumerate_single_cuts(circuit, observable, options.golden_tol);
  const std::optional<std::size_t> best = pick_best(candidates, options);
  if (!best.has_value()) return std::nullopt;
  return std::move(candidates[*best]);
}

namespace {

/// A set of op indices, 64 to a word.
using OpSet = std::vector<std::uint64_t>;

bool contains(const OpSet& set, std::size_t op) {
  return ((set[op / 64] >> (op % 64)) & 1U) != 0;
}

/// A single-cut boundary candidate (entry `cut` of the ranking) enriched
/// with the prefix structure the chain DP needs.
struct ChainCandidate {
  std::size_t cut = 0;
  int f1_width = 0;
  int f2_width = 0;
  OpSet upstream_ops;  // the prefix's ops
  std::size_t num_upstream_ops = 0;
  std::size_t up_op = 0;    // last prefix op on the cut wire
  std::size_t down_op = 0;  // first suffix op on the cut wire
  std::size_t settings_count = 0;  // outgoing settings under the detected spec
  std::size_t preps_count = 0;     // incoming preps under the detected spec
};

std::vector<ChainCandidate> chain_candidates(const Circuit& circuit,
                                             const SingleCutRanking& ranking) {
  std::vector<ChainCandidate> out;
  out.reserve(ranking.candidates().size());
  for (std::size_t i = 0; i < ranking.candidates().size(); ++i) {
    const CutCandidate& info = ranking.candidates()[i];
    const CutView& view = ranking.view(i);
    ChainCandidate candidate;
    candidate.cut = i;
    candidate.f1_width = info.f1_width;
    candidate.f2_width = info.f2_width;
    candidate.upstream_ops.assign((circuit.num_ops() + 63) / 64, 0);
    for (std::size_t op = 0; op < circuit.num_ops(); ++op) {
      if (view.analysis.op_fragment[op] == circuit::FragmentId::Upstream) {
        candidate.upstream_ops[op / 64] |= std::uint64_t{1} << (op % 64);
        ++candidate.num_upstream_ops;
      }
    }
    candidate.up_op = info.point.after_op;
    candidate.down_op = ranking.down_op(i);
    candidate.settings_count = ranking.costs(i).settings;
    candidate.preps_count = ranking.costs(i).preps;
    out.push_back(std::move(candidate));
  }
  return out;
}

/// Qubits touched by the ops strictly between two prefixes (the interior
/// fragment's width; both cut wires are touched and counted). `touched`
/// is scratch space of one flag per qubit.
int segment_width(const Circuit& circuit, const OpSet& inner, const OpSet& outer,
                  std::vector<char>& touched) {
  touched.assign(static_cast<std::size_t>(circuit.num_qubits()), 0);
  int width = 0;
  for (std::size_t word = 0; word < outer.size(); ++word) {
    for (std::uint64_t ops = outer[word] & ~inner[word]; ops != 0; ops &= ops - 1) {
      const std::size_t op = word * 64 + static_cast<std::size_t>(std::countr_zero(ops));
      for (int q : circuit.op(op).qubits) {
        char& flag = touched[static_cast<std::size_t>(q)];
        width += flag == 0 ? 1 : 0;
        flag = 1;
      }
    }
  }
  return width;
}

bool strict_subset(const ChainCandidate& inner, const ChainCandidate& outer) {
  if (inner.num_upstream_ops >= outer.num_upstream_ops) return false;
  for (std::size_t word = 0; word < inner.upstream_ops.size(); ++word) {
    if ((inner.upstream_ops[word] & ~outer.upstream_ops[word]) != 0) return false;
  }
  return true;
}

}  // namespace

std::optional<ChainPlan> plan_chain_cuts(const Circuit& circuit,
                                         const ChainPlannerOptions& options) {
  SingleCutRanking ranking(circuit, options.base.golden_tol);
  const std::vector<ChainCandidate> candidates = chain_candidates(circuit, ranking);
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
    if (fits(candidates[i].f1_width)) {
      dp[1][i] = candidates[i].settings_count;
    }
  }
  // Valid transitions are independent of the boundary count; compute each
  // (p, i) pair's verdict once instead of re-scanning ops per nb level.
  std::vector<char> transition_ok(max_nb >= 2 ? n * n : 0, 0);
  std::vector<char> touched;
  if (max_nb >= 2) {
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t i = 0; i < n; ++i) {
        const ChainCandidate& prev = candidates[p];
        const ChainCandidate& next = candidates[i];
        if (!strict_subset(prev, next)) continue;
        // Chain adjacency: the previous boundary's wire resumes, and the
        // next boundary's wire ends, inside the fragment between them.
        if (!contains(next.upstream_ops, prev.down_op)) continue;
        if (contains(prev.upstream_ops, next.up_op)) continue;
        if (!fits(segment_width(circuit, prev.upstream_ops, next.upstream_ops, touched))) {
          continue;
        }
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
    const int ia = std::abs(candidates[a.last].f1_width - candidates[a.last].f2_width);
    const int ib = std::abs(candidates[b.last].f1_width - candidates[b.last].f2_width);
    return ia < ib;
  };
  for (int nb = 1; nb <= max_nb; ++nb) {
    for (std::size_t i = 0; i < n; ++i) {
      if (dp[nb][i] == kInf) continue;
      if (!fits(candidates[i].f2_width)) continue;
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
    CutCandidate info = ranking.confirmed(candidate.cut);
    plan.boundaries.push_back({info.point});
    plan.terms *= info.terms;
    plan.fragment_widths.push_back(
        step == 0 ? info.f1_width
                  : segment_width(circuit, candidates[path[step - 1]].upstream_ops,
                                  candidate.upstream_ops, touched));
    plan.boundary_plans.push_back(std::move(info));
  }
  plan.fragment_widths.push_back(candidates[path.back()].f2_width);

  // The DP conditions mirror make_fragment_chain's validation; building the
  // graph here catches any divergence before the plan escapes.
  (void)make_fragment_chain(circuit, plan.boundaries);
  return plan;
}

}  // namespace qcut::cutting
