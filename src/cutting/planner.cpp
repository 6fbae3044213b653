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
#include "sim/statevector.hpp"

namespace qcut::cutting {

namespace {

using circuit::FragmentId;
/// A list of qubits, inline: a circuit has at most Circuit::kMaxQubits.
using Qubits = circuit::InlineList<int, Circuit::kMaxQubits>;

/// Every op's unitary, computed once per planner call: a named gate's
/// inline matrix (circuit::gate_matrix_1q/2q/3q), its entries back to back
/// in one buffer, and a Custom op's stored matrix, read in place. The
/// screen's adjoints are computed into a second buffer on first use.
class OpMatrices {
 public:
  explicit OpMatrices(const Circuit& circuit) {
    std::size_t named_entries = 0;
    for (const circuit::Operation& op : circuit.ops()) {
      if (op.kind != circuit::GateKind::Custom) named_entries += pow2(2 * op.num_qubits());
    }
    entries_.resize(named_entries);
    views_.reserve(circuit.num_ops());
    linalg::cx* next = entries_.data();
    const auto keep = [&](const auto& m) {
      std::copy(m.entries.begin(), m.entries.end(), next);
      views_.push_back(linalg::SquareView{next, m.view().dim});
      next += m.entries.size();
    };
    for (const circuit::Operation& op : circuit.ops()) {
      if (op.kind == circuit::GateKind::Custom) {
        views_.push_back(op.custom.view());
      } else if (op.num_qubits() == 1) {
        keep(circuit::gate_matrix_1q(op.kind, op.params));
      } else if (op.num_qubits() == 2) {
        keep(circuit::gate_matrix_2q(op.kind, op.params));
      } else {
        keep(circuit::gate_matrix_3q(op.kind));
      }
    }
  }

  [[nodiscard]] linalg::SquareView operator[](std::size_t op) const { return views_[op]; }

  /// The conjugate transpose of op `op`'s matrix (linalg::dagger's entries).
  [[nodiscard]] linalg::SquareView adjoint(std::size_t op) {
    if (adjoint_views_.empty()) {
      std::size_t total = 0;
      for (const linalg::SquareView m : views_) total += m.dim * m.dim;
      adjoint_entries_.resize(total);
      adjoint_views_.reserve(views_.size());
      linalg::cx* next = adjoint_entries_.data();
      for (const linalg::SquareView m : views_) {
        for (std::size_t r = 0; r < m.dim; ++r) {
          for (std::size_t c = 0; c < m.dim; ++c) next[c * m.dim + r] = std::conj(m(r, c));
        }
        adjoint_views_.push_back(linalg::SquareView{next, m.dim});
        next += m.dim * m.dim;
      }
    }
    return adjoint_views_[op];
  }

 private:
  std::vector<linalg::cx> entries_;
  std::vector<linalg::SquareView> views_;
  std::vector<linalg::cx> adjoint_entries_;
  std::vector<linalg::SquareView> adjoint_views_;
};

/// What ranking and golden detection need from one single cut, read off
/// the cut scan instead of built fragment circuits. The qubit assignment
/// is make_fragment_chain's own (split_qubits), so f1's layout is the one
/// make_bipartition's fragment 0 would have. Fixed size: the qubit maps
/// are inline and the op sides a row of the scan's table.
struct CutView {
  WirePoint point;
  std::size_t down_op = 0;  // the op after point.after_op on its wire
  std::span<const FragmentId> sides;
  std::size_t downstream_ops = 0;
  SplitQubits qubits;  // original qubit <-> f1 / f2 locals

  [[nodiscard]] int f1_width() const noexcept { return qubits.up_width; }
  [[nodiscard]] int f2_width() const noexcept { return qubits.down_width; }
  [[nodiscard]] int cut_local() const noexcept {
    return qubits.up_local_of[static_cast<std::size_t>(point.qubit)];
  }

  /// f1's output locals: every local but the cut wire's, ascending.
  [[nodiscard]] Qubits output_locals() const {
    Qubits out(static_cast<std::size_t>(f1_width() - 1));
    std::size_t next = 0;
    for (int local = 0; local < f1_width(); ++local) {
      if (local != cut_local()) out[next++] = local;
    }
    return out;
  }

  /// The original qubits of those outputs, in the same order.
  [[nodiscard]] Qubits output_original() const {
    Qubits out(static_cast<std::size_t>(f1_width() - 1));
    std::size_t next = 0;
    for (const int q : qubits.up_to_sub()) {
      if (q != point.qubit) out[next++] = q;
    }
    return out;
  }
};

/// Which of X, Y and Z are golden at `tol`: bit p - 1 for Pauli p.
std::uint8_t golden_pattern(const std::array<double, 4>& violation, double tol) {
  std::uint8_t pattern = 0;
  for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
    if (violation[static_cast<std::size_t>(p)] <= tol) {
      pattern |= static_cast<std::uint8_t>(1U << (static_cast<int>(p) - 1));
    }
  }
  return pattern;
}

/// One judged cut, compact: what ranking reads, until a CutCandidate is
/// built for a cut the caller gets back.
struct Judged {
  std::array<double, 4> violation = {0.0, 0.0, 0.0, 0.0};
  std::uint8_t golden = 0;  // golden_pattern
  bool screened = false;    // violation from the screen, not the exact detector
};

/// One planner call's cuts: every valid single cut from one flat scan, its
/// view, every op's matrix, and one f1 register reused across cuts.
class CutScan {
 public:
  explicit CutScan(const Circuit& circuit)
      : circuit_(circuit),
        cuts_(circuit::valid_single_cuts(circuit)),
        matrices_(circuit),
        f1_(circuit.num_qubits()) {
    views_.reserve(cuts_.size());
    for (std::size_t i = 0; i < cuts_.size(); ++i) {
      CutView view;
      view.point = cuts_.points[i];
      view.down_op = cuts_.down_ops[i];
      view.sides = cuts_.sides(i);
      view.downstream_ops = static_cast<std::size_t>(
          std::count(view.sides.begin(), view.sides.end(), FragmentId::Downstream));
      view.qubits = split_qubits(circuit, view.sides);
      views_.push_back(view);
    }
  }

  [[nodiscard]] const Circuit& circuit() const noexcept { return circuit_; }
  [[nodiscard]] std::size_t size() const noexcept { return views_.size(); }
  [[nodiscard]] const CutView& view(std::size_t i) const { return views_[i]; }
  [[nodiscard]] OpMatrices& matrices() noexcept { return matrices_; }

  /// The f1 amplitudes of cut i, simulated in the reused register: every
  /// upstream op of the circuit, in program order, on its f1-local qubits.
  /// These are the ops, matrices and qubit lists of make_bipartition's
  /// fragment 0, so the amplitudes are bit for bit the same. Valid until
  /// the next call.
  std::span<const linalg::cx> upstream(std::size_t i) {
    const CutView& view = views_[i];
    f1_.reset(view.f1_width());
    for (std::size_t op = 0; op < circuit_.num_ops(); ++op) {
      if (view.sides[op] != FragmentId::Upstream) continue;
      circuit::QubitList locals = circuit_.op(op).qubits;
      for (int& q : locals) q = view.qubits.up_local_of[static_cast<std::size_t>(q)];
      f1_.apply_matrix(matrices_[op], locals);
    }
    return f1_.amplitudes();
  }

  /// Cut i judged by the exact detector at `tol`.
  Judged judge_exactly(std::size_t i, double tol) {
    const std::span<const linalg::cx> amplitudes = upstream(i);
    Judged judged;
    judged.violation =
        single_cut_violations(amplitudes, views_[i].cut_local(), views_[i].output_locals());
    judged.golden = golden_pattern(judged.violation, tol);
    return judged;
  }

 private:
  const Circuit& circuit_;
  circuit::SingleCuts cuts_;
  std::vector<CutView> views_;
  OpMatrices matrices_;
  sim::StateVector f1_;
};

/// What a single cut's neglect spec costs.
struct SpecCosts {
  std::uint64_t terms = 0;   // active basis strings
  std::size_t settings = 0;  // upstream measurement settings
  std::size_t preps = 0;     // downstream preparations
};

/// The SpecCosts of a golden pattern. They depend only on which of X, Y
/// and Z are golden, so each of the 8 patterns is derived once per process.
const SpecCosts& spec_costs(std::uint8_t pattern) {
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
  return table[pattern];
}

/// CutCandidate of one judged cut.
CutCandidate make_candidate(const CutView& view, const Judged& judged) {
  CutCandidate candidate;
  candidate.point = view.point;
  candidate.f1_width = view.f1_width();
  candidate.f2_width = view.f2_width();
  candidate.violation = judged.violation;
  for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
    if ((judged.golden >> (static_cast<int>(p) - 1)) & 1U) candidate.golden_bases.push_back(p);
  }
  const SpecCosts& costs = spec_costs(judged.golden);
  candidate.terms = costs.terms;
  // == count_variants(spec).total()
  candidate.evaluations = costs.settings + costs.preps;
  return candidate;
}

/// The record of a detector report on a single cut.
Judged judged_from(const GoldenDetectionReport& report) {
  Judged judged;
  judged.violation = report.violation.front();
  for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
    if (report.golden.front()[static_cast<std::size_t>(p)]) {
      judged.golden |= static_cast<std::uint8_t>(1U << (static_cast<int>(p) - 1));
    }
  }
  return judged;
}

/// Candidate list; `detect(scan, i)` judges cut i the way that should rank
/// it.
template <typename Detect>
std::vector<CutCandidate> enumerate_with(const Circuit& circuit, Detect&& detect) {
  CutScan scan(circuit);
  std::vector<CutCandidate> candidates;
  candidates.reserve(scan.size());
  for (std::size_t i = 0; i < scan.size(); ++i) {
    candidates.push_back(make_candidate(scan.view(i), detect(scan, i)));
  }
  return candidates;
}

/// Index of the lowest-scoring candidate (the first of equals); `widths(i)`
/// and `evaluations(i)` describe candidate i of `n`.
template <typename Evaluations, typename Widths>
std::optional<std::size_t> pick_best(std::size_t n, const PlannerOptions& options,
                                     Evaluations&& evaluations, Widths&& widths) {
  if (n == 0) return std::nullopt;

  // Score: circuit evaluations dominate (that is the paper's wall-time
  // driver); fragment imbalance is penalized so the simulator load stays
  // manageable on small devices.
  const auto score = [&](std::size_t i) {
    const auto [f1_width, f2_width] = widths(i);
    const double imbalance = std::abs(f1_width - f2_width);
    return static_cast<double>(evaluations(i)) + options.balance_weight * imbalance;
  };
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (score(i) < score(best)) best = i;
  }
  return best;
}

// ---- Screening --------------------------------------------------------------
//
// A cut's f1 state is also the whole circuit's state with the downstream
// ops D undone: every op of D follows every upstream op it shares a wire
// with, so undoing D (adjoints, in reverse program order) leaves the
// upstream state on f1's qubits and |0> on the rest. One full simulation
// per planner call therefore serves every cut whose |D| undo steps on 2^n
// amplitudes cost less than the |U| forward steps on 2^w1 that
// CutScan::upstream takes, above all cuts whose downstream part is a wire's
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

/// Every valid single cut in scan order, judged: screened where that is
/// cheaper and its verdicts are clear of the tolerance, exact otherwise.
/// The plan_* entry points rank these records; confirmed(i) is cut i's
/// candidate as enumerate_single_cuts reports it.
class SingleCutRanking {
 public:
  SingleCutRanking(const Circuit& circuit, double tol) : scan_(circuit), tol_(tol) {
    screenable_ = circuit.num_ops() <= kMaxScreenedOps &&
                  circuit.num_qubits() <= kMaxScreenedQubits &&
                  std::none_of(circuit.ops().begin(), circuit.ops().end(),
                               [](const circuit::Operation& op) {
                                 return op.kind == circuit::GateKind::Custom;
                               });
    judged_.reserve(scan_.size());
    for (std::size_t i = 0; i < scan_.size(); ++i) judged_.push_back(judge(i));
  }

  [[nodiscard]] const Circuit& circuit() const noexcept { return scan_.circuit(); }
  [[nodiscard]] std::size_t size() const noexcept { return judged_.size(); }
  [[nodiscard]] const CutView& view(std::size_t i) const { return scan_.view(i); }
  /// Exact golden verdicts, so exact costs; the violations may be screened.
  [[nodiscard]] const SpecCosts& costs(std::size_t i) const {
    return spec_costs(judged_[i].golden);
  }

  /// The best single cut under `options`' score, if any cut is valid.
  [[nodiscard]] std::optional<std::size_t> best(const PlannerOptions& options) const {
    return pick_best(
        size(), options, [&](std::size_t i) { return costs(i).settings + costs(i).preps; },
        [&](std::size_t i) { return std::pair{view(i).f1_width(), view(i).f2_width()}; });
  }

  /// Cut i as enumerate_single_cuts reports it.
  CutCandidate confirmed(std::size_t i) {
    Judged& judged = judged_[i];
    if (judged.screened) {
      const Judged exact = scan_.judge_exactly(i, tol_);
      QCUT_ASSERT(exact.golden == judged.golden,
                  "planner: a screened golden verdict differs from the exact detector's");
      judged = exact;
    }
    return make_candidate(view(i), judged);
  }

 private:
  /// A record whose golden verdicts are the exact detector's. Its
  /// violations are exact unless `screened` is set.
  Judged judge(std::size_t i) {
    const CutView& view = scan_.view(i);
    if (!screenable_) return scan_.judge_exactly(i, tol_);
    const std::size_t upstream_ops = circuit().num_ops() - view.downstream_ops;
    if ((view.downstream_ops << circuit().num_qubits()) >= (upstream_ops << view.f1_width())) {
      return scan_.judge_exactly(i, tol_);
    }
    Judged judged;
    judged.violation = screen(view);
    for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
      // Written so that NaN goes to the exact detector too.
      if (!(std::abs(judged.violation[static_cast<std::size_t>(p)] - tol_) > kScreenMargin)) {
        return scan_.judge_exactly(i, tol_);
      }
    }
    judged.golden = golden_pattern(judged.violation, tol_);
    judged.screened = true;
    return judged;
  }

  /// The violations read off the whole circuit's state with `view`'s
  /// downstream ops undone, in a register reused across cuts.
  std::array<double, 4> screen(const CutView& view) {
    const Circuit& c = circuit();
    OpMatrices& matrices = scan_.matrices();
    if (!full_.has_value()) {
      full_.emplace(c.num_qubits());
      for (std::size_t op = 0; op < c.num_ops(); ++op) {
        full_->apply_matrix(matrices[op], c.op(op).qubits);
      }
      state_.emplace(*full_);
    } else {
      *state_ = *full_;
    }
    for (std::size_t op = c.num_ops(); op-- > 0;) {
      if (view.sides[op] != FragmentId::Downstream) continue;
      state_->apply_matrix(matrices.adjoint(op), c.op(op).qubits);
    }
    // The f1 amplitudes, read in place: f1's cut and output qubits under
    // their original indices, every other qubit at 0.
    return single_cut_violations(state_->amplitudes(), view.point.qubit,
                                 view.output_original());
  }

  CutScan scan_;
  double tol_;
  bool screenable_ = false;
  std::vector<Judged> judged_;
  std::optional<sim::StateVector> full_;   // the whole circuit, once screened
  std::optional<sim::StateVector> state_;  // full_ with one cut's downstream undone
};

}  // namespace

std::vector<CutCandidate> enumerate_single_cuts(const Circuit& circuit, double golden_tol) {
  return enumerate_with(
      circuit, [&](CutScan& scan, std::size_t i) { return scan.judge_exactly(i, golden_tol); });
}

std::vector<CutCandidate> enumerate_single_cuts(const Circuit& circuit,
                                                const DiagonalObservable& observable,
                                                double golden_tol) {
  return enumerate_with(circuit, [&](CutScan& scan, std::size_t i) {
    const CutView& view = scan.view(i);
    const Qubits outputs = view.output_locals();
    FragmentLayout layout;
    layout.num_cuts = 1;
    layout.width = view.f1_width();
    layout.cut_qubits = {view.cut_local()};
    layout.out_qubits.assign(outputs.begin(), outputs.end());
    const std::span<const linalg::cx> amplitudes = scan.upstream(i);
    std::optional<GoldenDetectionReport> report = try_detect_golden_for_observable_core(
        layout, amplitudes, observable, view.output_original(), view.qubits.down_to_sub(),
        golden_tol);
    // Non-factorizing candidates keep the distribution-level (stronger,
    // hence conservative) verdict.
    return judged_from(report.has_value()
                           ? *report
                           : detect_golden_exact_core(layout, amplitudes, golden_tol));
  });
}

std::optional<CutCandidate> plan_best_single_cut(const Circuit& circuit,
                                                 const PlannerOptions& options) {
  SingleCutRanking ranking(circuit, options.golden_tol);
  const std::optional<std::size_t> best = ranking.best(options);
  if (!best.has_value()) return std::nullopt;
  return ranking.confirmed(*best);
}

std::optional<CutCandidate> plan_best_single_cut(const Circuit& circuit,
                                                 const DiagonalObservable& observable,
                                                 const PlannerOptions& options) {
  std::vector<CutCandidate> candidates =
      enumerate_single_cuts(circuit, observable, options.golden_tol);
  const std::optional<std::size_t> best = pick_best(
      candidates.size(), options, [&](std::size_t i) { return candidates[i].evaluations; },
      [&](std::size_t i) { return std::pair{candidates[i].f1_width, candidates[i].f2_width}; });
  if (!best.has_value()) return std::nullopt;
  return std::move(candidates[*best]);
}

GoldenDetectionReport exact_report(const CutCandidate& candidate, double tol) {
  GoldenDetectionReport report;
  report.violation = {candidate.violation};
  report.golden = {{false, false, false, false}};
  for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
    report.golden.front()[static_cast<std::size_t>(p)] =
        candidate.violation[static_cast<std::size_t>(p)] <= tol;
  }
  return report;
}

namespace {

/// The cuts' upstream op sets, one row of 64-bit words per cut.
class OpSets {
 public:
  OpSets(const SingleCutRanking& ranking, std::size_t num_ops)
      : words_((num_ops + 63) / 64), bits_(ranking.size() * words_, 0) {
    for (std::size_t i = 0; i < ranking.size(); ++i) {
      const std::span<const FragmentId> sides = ranking.view(i).sides;
      std::uint64_t* row = bits_.data() + i * words_;
      for (std::size_t op = 0; op < num_ops; ++op) {
        if (sides[op] == FragmentId::Upstream) row[op / 64] |= std::uint64_t{1} << (op % 64);
      }
    }
  }

  [[nodiscard]] bool contains(std::size_t set, std::size_t op) const {
    return ((row(set)[op / 64] >> (op % 64)) & 1U) != 0;
  }

  /// Whether set `inner` is a subset of set `outer`.
  [[nodiscard]] bool subset(std::size_t inner, std::size_t outer) const {
    for (std::size_t word = 0; word < words_; ++word) {
      if ((row(inner)[word] & ~row(outer)[word]) != 0) return false;
    }
    return true;
  }

  /// Qubits touched by the ops in `outer` but not in `inner` (the interior
  /// fragment's width; both cut wires are touched and counted).
  [[nodiscard]] int segment_width(const Circuit& circuit, std::size_t inner,
                                  std::size_t outer) const {
    std::array<bool, Circuit::kMaxQubits> touched{};
    int width = 0;
    for (std::size_t word = 0; word < words_; ++word) {
      for (std::uint64_t ops = row(outer)[word] & ~row(inner)[word]; ops != 0; ops &= ops - 1) {
        const std::size_t op = word * 64 + static_cast<std::size_t>(std::countr_zero(ops));
        for (int q : circuit.op(op).qubits) {
          bool& flag = touched[static_cast<std::size_t>(q)];
          width += flag ? 0 : 1;
          flag = true;
        }
      }
    }
    return width;
  }

 private:
  [[nodiscard]] const std::uint64_t* row(std::size_t set) const {
    return bits_.data() + set * words_;
  }

  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

}  // namespace

std::optional<PlannedChain> plan_chain(const Circuit& circuit,
                                       const ChainPlannerOptions& options) {
  SingleCutRanking ranking(circuit, options.base.golden_tol);
  const std::size_t n = ranking.size();
  if (n == 0) return std::nullopt;
  const OpSets upstream(ranking, circuit.num_ops());
  const auto upstream_ops = [&](std::size_t i) {
    return circuit.num_ops() - ranking.view(i).downstream_ops;
  };

  const int cap = options.max_fragment_width;
  const auto fits = [&](int width) { return cap == 0 || width <= cap; };
  const int max_nb = std::max(1, options.max_boundaries);
  const auto levels = static_cast<std::size_t>(max_nb) + 1;

  constexpr std::size_t kInf = static_cast<std::size_t>(-1);
  // dp[nb * n + i]: cheapest evaluations of every fragment closed off when
  // candidate i is the nb-th boundary of the chain (fragments 0..nb-1);
  // parent[nb * n + i] the boundary before it.
  std::vector<std::size_t> dp(levels * n, kInf);
  std::vector<std::ptrdiff_t> parent(levels * n, -1);

  for (std::size_t i = 0; i < n; ++i) {
    if (fits(ranking.view(i).f1_width())) dp[n + i] = ranking.costs(i).settings;
  }
  // Valid transitions are independent of the boundary count; compute each
  // (p, i) pair's verdict once instead of re-scanning ops per nb level.
  std::vector<char> transition_ok(max_nb >= 2 ? n * n : 0, 0);
  if (max_nb >= 2) {
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t i = 0; i < n; ++i) {
        if (upstream_ops(p) >= upstream_ops(i) || !upstream.subset(p, i)) continue;
        // Chain adjacency: the previous boundary's wire resumes, and the
        // next boundary's wire ends, inside the fragment between them.
        if (!upstream.contains(i, ranking.view(p).down_op)) continue;
        if (upstream.contains(p, ranking.view(i).point.after_op)) continue;
        if (!fits(upstream.segment_width(circuit, p, i))) continue;
        transition_ok[p * n + i] = 1;
      }
    }
  }
  for (std::size_t nb = 2; nb < levels; ++nb) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t p = 0; p < n; ++p) {
        const std::size_t before = dp[(nb - 1) * n + p];
        if (before == kInf || transition_ok[p * n + i] == 0) continue;
        const std::size_t cost = before + ranking.costs(p).preps * ranking.costs(i).settings;
        if (cost < dp[nb * n + i]) {
          dp[nb * n + i] = cost;
          parent[nb * n + i] = static_cast<std::ptrdiff_t>(p);
        }
      }
    }
  }

  // Close each finite state with its last fragment and rank: fewest total
  // evaluations, then fewer boundaries, then the single-cut tie-break.
  struct Choice {
    std::size_t nb = 0;
    std::size_t last = 0;
    std::size_t evaluations = kInf;
  };
  const auto imbalance = [&](std::size_t i) {
    return std::abs(ranking.view(i).f1_width() - ranking.view(i).f2_width());
  };
  std::optional<Choice> best;
  const auto better = [&](const Choice& a, const Choice& b) {
    if (a.evaluations != b.evaluations) return a.evaluations < b.evaluations;
    if (a.nb != b.nb) return a.nb < b.nb;
    return imbalance(a.last) < imbalance(b.last);
  };
  for (std::size_t nb = 1; nb < levels; ++nb) {
    for (std::size_t i = 0; i < n; ++i) {
      if (dp[nb * n + i] == kInf) continue;
      if (!fits(ranking.view(i).f2_width())) continue;
      const Choice choice{nb, i, dp[nb * n + i] + ranking.costs(i).preps};
      if (!best.has_value() || better(choice, *best)) best = choice;
    }
  }
  if (!best.has_value()) return std::nullopt;

  // Walk the parent chain back to the first boundary.
  PlannedChain planned;
  ChainPlan& plan = planned.plan;
  plan.evaluations = best->evaluations;
  plan.boundaries.resize(best->nb);
  plan.boundary_plans.resize(best->nb);
  plan.fragment_widths.resize(best->nb + 1);
  std::size_t at = best->last;
  plan.fragment_widths.back() = ranking.view(at).f2_width();
  for (std::size_t nb = best->nb; nb >= 1; --nb) {
    const std::size_t before = nb > 1 ? static_cast<std::size_t>(parent[nb * n + at]) : at;
    CutCandidate info = ranking.confirmed(at);
    plan.boundaries[nb - 1] = {info.point};
    plan.fragment_widths[nb - 1] =
        nb == 1 ? info.f1_width : upstream.segment_width(circuit, before, at);
    plan.boundary_plans[nb - 1] = std::move(info);
    at = before;
  }
  for (const CutCandidate& info : plan.boundary_plans) plan.terms *= info.terms;

  // The DP conditions mirror make_fragment_chain's validation; building the
  // graph here catches any divergence before the plan escapes, and the
  // caller gets the chain.
  planned.graph = make_fragment_chain(circuit, plan.boundaries);
  return planned;
}

std::optional<ChainPlan> plan_chain_cuts(const Circuit& circuit,
                                         const ChainPlannerOptions& options) {
  std::optional<PlannedChain> planned = plan_chain(circuit, options);
  if (!planned.has_value()) return std::nullopt;
  return std::move(planned->plan);
}

}  // namespace qcut::cutting
