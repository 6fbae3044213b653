#pragma once
// The unified public API of the library: one request/response pair that
// every scenario flows through.
//
// A CutRequest holds the circuit, a *target* (full outcome distribution, a
// diagonal observable, or a general Pauli string), a *cut selection*
// (explicit wire points for one boundary, explicit per-boundary groups for
// an N-fragment chain, or Auto[Chain]Plan to let the planner choose), and
// the execution options (golden mode, shots, seeds). Both the synchronous
// facade qcut::run (cutting/pipeline.hpp) and the asynchronous
// service::CutService accept it, so auto-planned cuts, observable-specific
// golden refinement (Definition 1 is observable-dependent: a weaker
// observable admits more negligible basis elements than the full
// distribution), chain cutting, and plain distribution runs all share the
// same scheduler, variant dedup, and fragment cache.
//
// Requests are validated eagerly - validate() throws qcut::Error with a
// specific message before anything executes - and resolved once:
// resolve() rewrites Pauli targets into a rotated circuit plus a Z-form
// diagonal observable, and replaces Auto[Chain]Plan with the planner's
// boundaries.

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "cutting/observables.hpp"
#include "cutting/planner.hpp"
#include "cutting/uncertainty.hpp"
#include "cutting/variants.hpp"
#include "telemetry/metrics.hpp"

namespace qcut::cutting {

/// Per-boundary cut groups: boundaries[b] separates fragment b from b+1.
using BoundaryList = std::vector<std::vector<circuit::WirePoint>>;

/// How the run decides which basis elements to neglect.
enum class GoldenMode {
  /// Standard cutting: contract all basis strings (the baseline method of
  /// Peng et al. / quantum divide-and-compute).
  None,

  /// Use caller-supplied NeglectSpecs (the paper's experiments: the golden
  /// point is known a priori from the circuit design).
  Provided,

  /// Detect golden bases exactly, per boundary, from each boundary's
  /// prefix statevector before executing anything (possible when fragments
  /// are classically simulable). Observable targets use the
  /// observable-specific detector, which neglects at least as much as the
  /// distribution-level one.
  DetectExact,

  /// The paper's Section-IV proposal, generalized along the chain: execute
  /// fragment f's variants, run the statistical detector on its measured
  /// data, prune boundary f's spec, and only then execute fragment f+1.
  DetectOnline,
};

/// Scheduling class of a request. The service's weighted-fair scheduler
/// never serves classes strictly (strict tiers can starve Batch forever);
/// instead each class multiplies the tenant weight (Interactive 4x,
/// Standard 2x, Batch 1x), so a Batch job always makes progress - just
/// proportionally slower under contention.
enum class PriorityClass { Interactive, Standard, Batch };

/// How a job may be degraded when the service is past its load-shed
/// watermark (CutServiceOptions::admission.shed_watermark_jobs). Strictly
/// opt-in, like OnVariantFailure::Neglect: a request without a policy is
/// never silently degraded - under pressure it is either served in full or
/// rejected with ResourceExhausted. What was shed is reported in
/// CutResponse::degradation, the same report the paper's neglect machinery
/// fills: trading bounded accuracy for cost is the library's core move, and
/// under overload it doubles as a principled shed valve.
struct LoadShedPolicy {
  /// Scale factor applied to shots_per_variant / total_shot_budget while
  /// shedding, in (0, 1]. Fewer shots mean more sampling noise, never bias;
  /// the report carries the applied fraction and the sqrt noise inflation.
  double shot_fraction = 0.5;

  /// Multiplier (>= 1) on golden_tol under GoldenMode::DetectExact while
  /// shedding: a looser tolerance neglects more basis elements, exactly the
  /// paper's cost/accuracy dial. The report carries the applied tolerance
  /// and the summed violation mass of everything neglected (an L1-style
  /// bound on what the looser test may have cost).
  double golden_tol_multiplier = 1.0;
};

/// What the service does with a variant whose execution keeps failing after
/// the retry policy is exhausted (or fails permanently).
enum class OnVariantFailure {
  /// Fail the whole job: the response future carries the backend error,
  /// enriched with the failing variant's identity (the default).
  Fail,

  /// Drop the failed variant from reconstruction the same way a neglected
  /// basis element is dropped, and report the induced error bound in
  /// CutResponse::degradation. Trades a small, *quantified* reconstruction
  /// error for availability - the job still completes. A failing
  /// shared-prefix batch is split and its members rerun alone, so only the
  /// variants whose own execution fails are dropped, never their siblings.
  Neglect,
};

/// Execution options shared by every target and cut selection.
struct CutRunOptions {
  std::size_t shots_per_variant = 1000;
  /// Nonzero: split a fixed budget evenly across the run's variants.
  /// Static golden modes split it once over every fragment's variants.
  /// Under DetectOnline ONE budget is amortized across the per-fragment
  /// waves (wave f draws remaining / waves_left), so the job never exceeds
  /// this value in total.
  std::size_t total_shot_budget = 0;
  bool exact = false;  // exact fragment distributions instead of sampling

  GoldenMode golden_mode = GoldenMode::None;
  /// GoldenMode::Provided with a single-boundary cut selection.
  std::optional<NeglectSpec> provided_spec;
  /// GoldenMode::Provided with a multi-boundary selection (one per boundary).
  std::vector<NeglectSpec> provided_boundary_specs;
  double golden_tol = 1e-9;                  // DetectExact tolerance
  OnlineDetectionOptions online;             // DetectOnline test parameters

  parallel::ThreadPool* pool = nullptr;
  std::uint64_t seed_stream_base = 0;
};

// ---- Targets ----------------------------------------------------------------

/// Estimate the full outcome distribution of the uncut circuit.
struct DistributionTarget {};

/// Estimate <O> for a diagonal observable over the circuit's qubits.
struct ObservableTarget {
  DiagonalObservable observable;
};

/// Estimate <P> for a general Pauli string: resolved to a basis-rotated
/// circuit plus the Z-form diagonal observable (prepare_pauli_estimation).
struct PauliTarget {
  circuit::PauliString pauli;
};

using Target = std::variant<DistributionTarget, ObservableTarget, PauliTarget>;

// ---- Cut selection ----------------------------------------------------------

/// Let the planner pick the cheapest valid single cut. Observable targets
/// rank candidates with the observable-specific golden detector.
struct AutoPlan {
  PlannerOptions planner;
};

/// Let the chain planner pick a sequence of boundaries (plan_chain_cuts),
/// e.g. under a max-fragment-width constraint no single cut satisfies.
struct AutoChainPlan {
  ChainPlannerOptions planner;
};

using CutSelection =
    std::variant<std::vector<circuit::WirePoint>, BoundaryList, AutoPlan, AutoChainPlan>;

// ---- Request ----------------------------------------------------------------

/// One cut-execution request. Build with the fluent with_* setters or set
/// the members directly; both qcut::run and CutService::submit accept it.
struct CutRequest {
  circuit::Circuit circuit{1};
  Target target = DistributionTarget{};
  CutSelection cut_selection = AutoPlan{};
  CutRunOptions options;

  /// When set (observable targets only), the response carries a bootstrap
  /// estimate of the expectation's sampling uncertainty.
  std::optional<BootstrapOptions> bootstrap;

  /// Failure policy for variants that exhaust the service's retry policy.
  OnVariantFailure on_variant_failure = OnVariantFailure::Fail;

  /// When set, the job must finish within this many seconds of submission
  /// (measured on the service's monotonic clock); past the deadline the job
  /// fails with DeadlineExceeded at the next wave boundary. Must be finite
  /// and > 0 (validate() rejects anything else); a deadline past the
  /// clock's 2^64 ns range is no deadline. A deadline already unmeetable at
  /// submit() (deadline_at_ns in the past) is rejected immediately without
  /// enqueueing.
  std::optional<double> deadline_seconds;

  /// Absolute variant of deadline_seconds: a point on the service's
  /// injected monotonic clock (CutServiceOptions::clock, nanoseconds) by
  /// which the job must finish. Lets cooperative clients propagate one
  /// deadline across retries instead of restarting the budget each submit.
  /// When both are set the earlier effective deadline wins.
  std::optional<std::uint64_t> deadline_at_ns;

  /// Identity the weighted-fair scheduler charges this job's variant work
  /// to. Empty (the default) is itself a tenant, so single-tenant callers
  /// see plain FIFO-equivalent behavior.
  std::string tenant_id;

  /// Relative share of pool dispatch this tenant receives under contention
  /// (stride scheduling: a weight-3 tenant is dispatched 3x as often as a
  /// weight-1 tenant). Must be >= 1.
  std::uint32_t tenant_weight = 1;

  /// Scheduling class; multiplies tenant_weight (see PriorityClass).
  PriorityClass priority = PriorityClass::Standard;

  /// Opt-in pressure-adaptive degradation (see LoadShedPolicy). Disengaged
  /// means this job is never shed, only served in full or rejected.
  std::optional<LoadShedPolicy> load_shed;

  explicit CutRequest(circuit::Circuit request_circuit)
      : circuit(std::move(request_circuit)) {}

  CutRequest& with_cuts(std::vector<circuit::WirePoint> points) {
    cut_selection = std::move(points);
    return *this;
  }
  CutRequest& with_cut(circuit::WirePoint point) {
    cut_selection = std::vector<circuit::WirePoint>{point};
    return *this;
  }
  /// Explicit chain: one cut group per boundary, front to back.
  CutRequest& with_boundaries(BoundaryList boundaries) {
    cut_selection = std::move(boundaries);
    return *this;
  }
  CutRequest& with_auto_plan(PlannerOptions planner = {}) {
    cut_selection = AutoPlan{planner};
    return *this;
  }
  CutRequest& with_chain_plan(ChainPlannerOptions planner = {}) {
    cut_selection = AutoChainPlan{planner};
    return *this;
  }
  CutRequest& with_target(Target new_target) {
    target = std::move(new_target);
    return *this;
  }
  CutRequest& with_observable(DiagonalObservable observable) {
    target = ObservableTarget{std::move(observable)};
    return *this;
  }
  CutRequest& with_pauli(circuit::PauliString pauli) {
    target = PauliTarget{std::move(pauli)};
    return *this;
  }
  /// Parses "ZIZ..." (highest qubit first, as PauliString::parse).
  CutRequest& with_pauli(const std::string& labels) {
    return with_pauli(circuit::PauliString::parse(labels));
  }
  CutRequest& with_golden(GoldenMode mode) {
    options.golden_mode = mode;
    return *this;
  }
  /// Also switches golden_mode to Provided (single-boundary selections).
  CutRequest& with_provided_spec(NeglectSpec spec) {
    options.golden_mode = GoldenMode::Provided;
    options.provided_spec = std::move(spec);
    return *this;
  }
  /// Also switches golden_mode to Provided (one spec per boundary).
  CutRequest& with_provided_specs(std::vector<NeglectSpec> specs) {
    options.golden_mode = GoldenMode::Provided;
    options.provided_boundary_specs = std::move(specs);
    return *this;
  }
  CutRequest& with_shots(std::size_t shots_per_variant) {
    options.shots_per_variant = shots_per_variant;
    return *this;
  }
  CutRequest& with_shot_budget(std::size_t total_shot_budget) {
    options.total_shot_budget = total_shot_budget;
    return *this;
  }
  CutRequest& with_exact(bool exact = true) {
    options.exact = exact;
    return *this;
  }
  CutRequest& with_seed(std::uint64_t seed_stream_base) {
    options.seed_stream_base = seed_stream_base;
    return *this;
  }
  CutRequest& with_pool(parallel::ThreadPool* pool) {
    options.pool = pool;
    return *this;
  }
  CutRequest& with_options(CutRunOptions run_options) {
    options = std::move(run_options);
    return *this;
  }
  CutRequest& with_uncertainty(BootstrapOptions boot = {}) {
    bootstrap = std::move(boot);
    return *this;
  }
  /// Degrade gracefully instead of failing when a variant's execution
  /// cannot be completed (OnVariantFailure::Neglect).
  CutRequest& with_neglect_failures() {
    on_variant_failure = OnVariantFailure::Neglect;
    return *this;
  }
  CutRequest& with_on_variant_failure(OnVariantFailure policy) {
    on_variant_failure = policy;
    return *this;
  }
  CutRequest& with_deadline(double seconds) {
    deadline_seconds = seconds;
    return *this;
  }
  /// Absolute deadline on the service's injected monotonic clock.
  CutRequest& with_deadline_at_ns(std::uint64_t clock_ns) {
    deadline_at_ns = clock_ns;
    return *this;
  }
  CutRequest& with_tenant(std::string id, std::uint32_t weight = 1) {
    tenant_id = std::move(id);
    tenant_weight = weight;
    return *this;
  }
  CutRequest& with_priority(PriorityClass priority_class) {
    priority = priority_class;
    return *this;
  }
  CutRequest& with_load_shed(LoadShedPolicy policy = {}) {
    load_shed = policy;
    return *this;
  }

  [[nodiscard]] bool wants_distribution() const noexcept {
    return std::holds_alternative<DistributionTarget>(target);
  }
  [[nodiscard]] bool wants_auto_plan() const noexcept {
    return std::holds_alternative<AutoPlan>(cut_selection) ||
           std::holds_alternative<AutoChainPlan>(cut_selection);
  }
};

// ---- Degradation ------------------------------------------------------------

/// One fragment variant dropped from reconstruction after its execution
/// exhausted the retry policy (OnVariantFailure::Neglect).
struct NeglectedVariant {
  int fragment = 0;
  FragmentVariantKey key;
  std::string error;  // what() of the final failure
};

/// Reconstruction strings dropped at one boundary because a variant they
/// require was neglected.
struct BoundaryDegradation {
  int boundary = 0;
  std::uint64_t strings_dropped = 0;
};

/// How far the reconstruction degraded under OnVariantFailure::Neglect.
/// Dropping a variant removes every chain term whose basis string requires
/// it - exactly like neglecting a basis element, except forced by a fault
/// instead of chosen by golden detection, so the induced error is bounded
/// the same way.
struct DegradationReport {
  std::vector<NeglectedVariant> neglected_variants;
  std::vector<BoundaryDegradation> boundaries;

  /// Global chain terms removed from the reconstruction sum.
  std::uint64_t terms_dropped = 0;

  /// L1 bound on the reconstruction error induced by the dropped terms.
  /// Each global term's quasiprobability weight (1 / prod_b 2^K_b) times its
  /// string multiplicity is at most 1, so the bound is terms_dropped * 1.0
  /// on the unnormalized quasi-distribution. Under load shedding with a
  /// loosened DetectExact tolerance this also absorbs the summed violation
  /// mass of the extra neglected golden elements.
  double error_bound = 0.0;

  /// True when the service applied the request's LoadShedPolicy because
  /// queue depth crossed the shed watermark at admission.
  bool load_shed = false;

  /// Shot scale factor actually applied while shedding (1.0 = none).
  double shot_fraction = 1.0;

  /// Estimated shots NOT taken because of the shed shot_fraction.
  std::uint64_t shots_shed = 0;

  /// Sampling-noise inflation from the reduced shots: standard error scales
  /// as 1/sqrt(shots), so shedding to fraction f inflates it by 1/sqrt(f).
  double sampling_inflation = 1.0;

  /// DetectExact tolerance actually used (golden_tol after the shed
  /// multiplier); equals the request's golden_tol when not shed.
  double golden_tol_applied = 0.0;

  [[nodiscard]] bool degraded() const noexcept {
    return !neglected_variants.empty() || load_shed;
  }
};

// ---- Response ---------------------------------------------------------------

/// Everything a caller (or a benchmark) wants to know about one run.
struct CutResponse {
  /// Cut points actually executed, flattened in boundary order.
  std::vector<circuit::WirePoint> cuts;

  /// The same points grouped per boundary (size = fragments - 1).
  BoundaryList boundaries;

  /// Planner's analysis of the chosen cut; engaged only under AutoPlan.
  std::optional<CutCandidate> plan;

  /// Chain planner's analysis (per-boundary golden detection, fragment
  /// widths, total evaluations); engaged only under AutoChainPlan.
  std::optional<ChainPlan> chain_plan;

  FragmentGraph graph;
  ChainNeglectSpec specs;  // one NeglectSpec per boundary
  ChainFragmentData data;

  /// Distribution targets: the reconstructed outcome distribution. Also
  /// populated for observable targets (the expectation is read off it).
  ReconstructionResult reconstruction;

  /// Observable / Pauli targets: <O> over the raw reconstruction.
  std::optional<double> expectation;

  /// Bootstrap uncertainty of the expectation (CutRequest::bootstrap).
  std::optional<ExpectationUncertainty> uncertainty;

  /// Engaged when OnVariantFailure::Neglect dropped at least one variant:
  /// which variants were neglected and the induced error bound.
  std::optional<DegradationReport> degradation;

  double plan_seconds = 0.0;       // auto-planning + target resolution
  double fragment_seconds = 0.0;   // wall time gathering fragment data
  double total_seconds = 0.0;      // plan + fragment + detection + reconstruction
  backend::BackendStats backend_delta;  // backend usage consumed by this run

  /// Per-phase wall seconds recorded by the service's tracer for this job,
  /// in order of occurrence ("job.plan", "job.wave", "job.detect",
  /// "job.reconstruct", "job.bootstrap"). Empty when telemetry is disabled.
  std::vector<std::pair<std::string, double>> phase_seconds;

  /// Snapshot of the serving registry taken as the job finished; engaged
  /// only when telemetry is enabled. Counter values are process-cumulative
  /// (they cover every job served so far), not per-job deltas.
  std::optional<telemetry::MetricsSnapshot> telemetry;

  /// Convenience: clipped, normalized distribution.
  [[nodiscard]] std::vector<double> probabilities() const {
    return reconstruction.probabilities();
  }
};

// ---- Validation and resolution ----------------------------------------------

/// Eagerly validates a request, throwing qcut::Error with a specific
/// message on the first violated precondition. Called by qcut::run and
/// CutService::submit before anything is queued; callers building requests
/// programmatically can call it directly.
void validate(const CutRequest& request);

/// A request with target and cut selection resolved: Pauli targets
/// rewritten to the rotated circuit plus a Z-form diagonal observable, and
/// Auto[Chain]Plan replaced by the planner's boundaries.
struct ResolvedRequest {
  circuit::Circuit circuit{1};                   // rotated for Pauli targets
  std::optional<DiagonalObservable> observable;  // engaged for observable targets
  BoundaryList boundaries;                       // per-boundary cut groups
  std::optional<CutCandidate> plan;              // engaged under AutoPlan
  std::optional<ChainPlan> chain_plan;           // engaged under AutoChainPlan
  /// Under AutoChainPlan, the chain the planner built to validate its plan
  /// (make_fragment_chain(circuit, boundaries)); otherwise disengaged.
  std::optional<FragmentGraph> graph;
  double plan_seconds = 0.0;

  /// Flattened cut points, boundary order.
  [[nodiscard]] std::vector<circuit::WirePoint> flat_cuts() const;
};

/// Validates and resolves. Throws qcut::Error when validation fails or
/// auto-planning finds no valid cut (chain).
[[nodiscard]] ResolvedRequest resolve(const CutRequest& request);

/// Upper-bound estimate of how many fragment variants the request will
/// execute, WITHOUT resolving it (no planning work): explicit selections
/// count exactly (6^Kin x 3^Kout per fragment, summed along the chain,
/// before golden pruning); Auto[Chain]Plan assumes single-wire boundaries
/// (9 variants for one cut, +18 per additional boundary). Admission control
/// prices a job with this so submit() stays cheap and deterministic.
[[nodiscard]] std::uint64_t estimated_variant_count(const CutRequest& request);

}  // namespace qcut::cutting

namespace qcut {
using cutting::AutoChainPlan;
using cutting::AutoPlan;
using cutting::BoundaryList;
using cutting::CutRequest;
using cutting::CutResponse;
using cutting::DegradationReport;
using cutting::DistributionTarget;
using cutting::LoadShedPolicy;
using cutting::OnVariantFailure;
using cutting::ObservableTarget;
using cutting::PauliTarget;
using cutting::PriorityClass;
}  // namespace qcut
