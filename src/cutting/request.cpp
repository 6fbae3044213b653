#include "cutting/request.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "cutting/variants.hpp"

namespace qcut::cutting {

namespace {

void validate_target(const CutRequest& request) {
  const int circuit_qubits = request.circuit.num_qubits();
  if (const auto* observable = std::get_if<ObservableTarget>(&request.target)) {
    QCUT_CHECK(observable->observable.num_qubits() == circuit_qubits,
               "CutRequest: observable acts on " +
                   std::to_string(observable->observable.num_qubits()) +
                   " qubits but the circuit has " + std::to_string(circuit_qubits));
  } else if (const auto* pauli = std::get_if<PauliTarget>(&request.target)) {
    QCUT_CHECK(pauli->pauli.num_qubits() == circuit_qubits,
               "CutRequest: Pauli target acts on " +
                   std::to_string(pauli->pauli.num_qubits()) +
                   " qubits but the circuit has " + std::to_string(circuit_qubits));
  }
}

void validate_points(const CutRequest& request, const std::vector<circuit::WirePoint>& points,
                     const std::string& where) {
  QCUT_CHECK(!points.empty(),
             "CutRequest: " + where + " must contain at least one cut point");
  for (const circuit::WirePoint& point : points) {
    QCUT_CHECK(point.qubit >= 0 && point.qubit < request.circuit.num_qubits(),
               "CutRequest: cut point references qubit " + std::to_string(point.qubit) +
                   " but the circuit has " + std::to_string(request.circuit.num_qubits()) +
                   " qubits");
    QCUT_CHECK(point.after_op < request.circuit.num_ops(),
               "CutRequest: cut point after_op " + std::to_string(point.after_op) +
                   " is out of range (circuit has " +
                   std::to_string(request.circuit.num_ops()) + " ops)");
  }
}

/// Whether `value` is a usable tolerance or weight: finite and >= 0 (a
/// NaN compares false with everything, so it would silently judge nothing
/// golden or make every score tie).
bool finite_non_negative(double value) { return std::isfinite(value) && value >= 0.0; }

void validate_planner(const PlannerOptions& planner) {
  QCUT_CHECK(finite_non_negative(planner.golden_tol),
             "CutRequest: PlannerOptions::golden_tol must be finite and >= 0");
  QCUT_CHECK(finite_non_negative(planner.balance_weight),
             "CutRequest: PlannerOptions::balance_weight must be finite and >= 0");
}

void validate_cut_selection(const CutRequest& request) {
  if (const auto* points =
          std::get_if<std::vector<circuit::WirePoint>>(&request.cut_selection)) {
    validate_points(request, *points, "explicit cut selection");
  } else if (const auto* boundaries = std::get_if<BoundaryList>(&request.cut_selection)) {
    QCUT_CHECK(!boundaries->empty(),
               "CutRequest: boundary selection must contain at least one boundary");
    for (std::size_t b = 0; b < boundaries->size(); ++b) {
      validate_points(request, (*boundaries)[b], "boundary " + std::to_string(b));
    }
  } else if (const auto* auto_plan = std::get_if<AutoPlan>(&request.cut_selection)) {
    validate_planner(auto_plan->planner);
  } else {
    const ChainPlannerOptions& chain = std::get<AutoChainPlan>(request.cut_selection).planner;
    validate_planner(chain.base);
    QCUT_CHECK(chain.max_fragment_width >= 0,
               "CutRequest: ChainPlannerOptions::max_fragment_width must be >= 0 (0 = no cap)");
  }
  // Auto[Chain]Plan: the planner rejects unplannable circuits at resolve.
}

/// Boundary cut-group sizes of an explicit selection (single boundary for
/// the flat form), or empty under auto-planning.
std::vector<int> explicit_boundary_sizes(const CutRequest& request) {
  if (const auto* points =
          std::get_if<std::vector<circuit::WirePoint>>(&request.cut_selection)) {
    return {static_cast<int>(points->size())};
  }
  if (const auto* boundaries = std::get_if<BoundaryList>(&request.cut_selection)) {
    std::vector<int> sizes;
    for (const auto& boundary : *boundaries) sizes.push_back(static_cast<int>(boundary.size()));
    return sizes;
  }
  return {};
}

/// The static per-boundary specs of an explicit-selection request (Provided
/// specs, or no-neglect specs of the right sizes).
std::vector<NeglectSpec> static_boundary_specs(const CutRequest& request,
                                               const std::vector<int>& sizes) {
  const CutRunOptions& options = request.options;
  if (options.golden_mode == GoldenMode::Provided) {
    if (options.provided_spec.has_value()) return {*options.provided_spec};
    return options.provided_boundary_specs;
  }
  std::vector<NeglectSpec> specs;
  for (int size : sizes) specs.push_back(NeglectSpec::none(size));
  return specs;
}

/// Total fragment circuit evaluations of a chain with the given per-
/// boundary specs (derivable without building the graph: fragment f runs
/// |required preps of boundary f-1| x |required settings of boundary f|).
std::size_t chain_variant_total(const std::vector<NeglectSpec>& specs) {
  std::size_t total = 0;
  for (std::size_t f = 0; f <= specs.size(); ++f) {
    const std::size_t preps = f > 0 ? required_prep_indices(specs[f - 1]).size() : 1;
    const std::size_t settings =
        f < specs.size() ? required_setting_indices(specs[f]).size() : 1;
    total += preps * settings;
  }
  return total;
}

void validate_options(const CutRequest& request) {
  const CutRunOptions& options = request.options;
  const std::vector<int> sizes = explicit_boundary_sizes(request);

  if (options.golden_mode == GoldenMode::Provided) {
    // A provided spec asserts which bases are negligible at *specific*
    // cuts; letting the planner choose different boundaries would silently
    // drop non-negligible reconstruction terms.
    QCUT_CHECK(!request.wants_auto_plan(),
               "CutRequest: GoldenMode::Provided requires explicit cut points "
               "(the provided specs are tied to specific cuts, not to whatever "
               "auto-planning picks)");
    const bool single = std::holds_alternative<std::vector<circuit::WirePoint>>(
        request.cut_selection);
    if (single) {
      QCUT_CHECK(options.provided_spec.has_value(),
                 "CutRequest: GoldenMode::Provided requires provided_spec");
      QCUT_CHECK(options.provided_boundary_specs.empty(),
                 "CutRequest: use provided_spec (not provided_boundary_specs) with a "
                 "single-boundary cut selection");
      QCUT_CHECK(options.provided_spec->num_cuts() == sizes.front(),
                 "CutRequest: provided_spec covers " +
                     std::to_string(options.provided_spec->num_cuts()) + " cuts but " +
                     std::to_string(sizes.front()) + " cut points were given");
    } else {
      QCUT_CHECK(!options.provided_boundary_specs.empty(),
                 "CutRequest: GoldenMode::Provided with a boundary selection requires "
                 "provided_boundary_specs (one NeglectSpec per boundary)");
      QCUT_CHECK(!options.provided_spec.has_value(),
                 "CutRequest: use provided_boundary_specs (not provided_spec) with a "
                 "multi-boundary cut selection");
      QCUT_CHECK(options.provided_boundary_specs.size() == sizes.size(),
                 "CutRequest: provided_boundary_specs covers " +
                     std::to_string(options.provided_boundary_specs.size()) +
                     " boundaries but " + std::to_string(sizes.size()) + " were given");
      for (std::size_t b = 0; b < sizes.size(); ++b) {
        QCUT_CHECK(options.provided_boundary_specs[b].num_cuts() ==
                       sizes[b],
                   "CutRequest: provided spec of boundary " + std::to_string(b) +
                       " covers " +
                       std::to_string(options.provided_boundary_specs[b].num_cuts()) +
                       " cuts but the boundary has " + std::to_string(sizes[b]));
      }
    }
  } else {
    QCUT_CHECK(!options.provided_spec.has_value() && options.provided_boundary_specs.empty(),
               "CutRequest: provided specs are set but golden_mode is not "
               "GoldenMode::Provided");
  }

  QCUT_CHECK(finite_non_negative(options.golden_tol),
             "CutRequest: golden_tol must be finite and >= 0");
  QCUT_CHECK(!(options.golden_mode == GoldenMode::DetectOnline && options.exact),
             "CutRequest: GoldenMode::DetectOnline requires sampling (exact = false)");
  QCUT_CHECK(options.exact || options.shots_per_variant > 0 || options.total_shot_budget > 0,
             "CutRequest: sampling requires shots_per_variant > 0 or a total_shot_budget "
             "(or set exact = true)");

  // The variant count is known up front when the cuts are explicit and the
  // spec is static (None / Provided); check the budget covers it. Detection
  // modes and auto-planning are checked at execution time by
  // plan_variant_shots.
  if (!sizes.empty() && !options.exact && options.total_shot_budget > 0 &&
      (options.golden_mode == GoldenMode::None ||
       options.golden_mode == GoldenMode::Provided)) {
    const std::size_t variants = chain_variant_total(static_boundary_specs(request, sizes));
    QCUT_CHECK(options.total_shot_budget >= variants,
               "CutRequest: total_shot_budget (" + std::to_string(options.total_shot_budget) +
                   ") is smaller than the " + std::to_string(variants) +
                   " required variants");
  }
}

void validate_bootstrap(const CutRequest& request) {
  if (!request.bootstrap.has_value()) return;
  QCUT_CHECK(!request.wants_distribution(),
             "CutRequest: bootstrap uncertainty requires an observable or Pauli target");
  QCUT_CHECK(!request.options.exact,
             "CutRequest: bootstrap uncertainty requires sampled execution (exact = false)");
  check_bootstrap_options(*request.bootstrap);
}

}  // namespace

std::vector<circuit::WirePoint> ResolvedRequest::flat_cuts() const {
  std::vector<circuit::WirePoint> flat;
  for (const std::vector<circuit::WirePoint>& boundary : boundaries) {
    flat.insert(flat.end(), boundary.begin(), boundary.end());
  }
  return flat;
}

void validate(const CutRequest& request) {
  QCUT_CHECK(request.circuit.num_qubits() >= 2,
             "CutRequest: circuit must have at least 2 qubits to cut");
  QCUT_CHECK(!request.deadline_seconds.has_value() ||
                 (std::isfinite(*request.deadline_seconds) && *request.deadline_seconds > 0.0),
             "CutRequest: deadline_seconds must be positive and finite when set");
  QCUT_CHECK(request.tenant_weight > 0, "CutRequest: tenant_weight must be >= 1");
  if (request.load_shed.has_value()) {
    QCUT_CHECK(request.load_shed->shot_fraction > 0.0 &&
                   request.load_shed->shot_fraction <= 1.0,
               "CutRequest: LoadShedPolicy::shot_fraction must be in (0, 1]");
    QCUT_CHECK(std::isfinite(request.load_shed->golden_tol_multiplier) &&
                   request.load_shed->golden_tol_multiplier >= 1.0,
               "CutRequest: LoadShedPolicy::golden_tol_multiplier must be finite and >= 1 "
               "(a smaller multiplier would tighten, not shed)");
  }
  validate_target(request);
  validate_cut_selection(request);
  validate_options(request);
  validate_bootstrap(request);
}

std::uint64_t estimated_variant_count(const CutRequest& request) {
  const std::vector<int> sizes = explicit_boundary_sizes(request);
  if (!sizes.empty()) {
    // Explicit selection: exact pre-pruning count. Provided specs already
    // shrink it (the paper's point: neglect cuts the variant bill up front).
    return static_cast<std::uint64_t>(
        chain_variant_total(static_boundary_specs(request, sizes)));
  }
  // Auto-planned: assume single-wire boundaries without running the planner
  // (admission must stay O(1)). One boundary costs 6 preps x 3 settings
  // spread as 3 + 6 upstream/downstream variants = 9; each additional chain
  // boundary adds a middle fragment (6 preps x 3 settings = 18).
  if (const auto* chain = std::get_if<AutoChainPlan>(&request.cut_selection)) {
    const std::uint64_t boundaries =
        chain->planner.max_boundaries > 0
            ? static_cast<std::uint64_t>(chain->planner.max_boundaries)
            : 1;
    return 9 + 18 * (boundaries - 1);
  }
  return 9;
}

ResolvedRequest resolve(const CutRequest& request) {
  // resolve() is a public entry point, so it validates even though
  // CutService::submit already did; the re-check is a few comparisons,
  // negligible next to planning and execution.
  validate(request);
  Stopwatch timer;
  ResolvedRequest resolved;

  if (const auto* observable = std::get_if<ObservableTarget>(&request.target)) {
    resolved.circuit = request.circuit;
    resolved.observable = observable->observable;
  } else if (const auto* pauli = std::get_if<PauliTarget>(&request.target)) {
    // Basis rotations append after every existing op, so cut points of the
    // original circuit remain valid in the rotated one.
    PauliEstimationPlan plan = prepare_pauli_estimation(request.circuit, pauli->pauli);
    resolved.circuit = std::move(plan.rotated_circuit);
    resolved.observable = std::move(plan.observable);
  } else {
    resolved.circuit = request.circuit;
  }

  if (const auto* points =
          std::get_if<std::vector<circuit::WirePoint>>(&request.cut_selection)) {
    resolved.boundaries = {*points};
  } else if (const auto* boundaries = std::get_if<BoundaryList>(&request.cut_selection)) {
    resolved.boundaries = *boundaries;
  } else if (const auto* auto_plan = std::get_if<AutoPlan>(&request.cut_selection)) {
    std::optional<CutCandidate> best =
        resolved.observable.has_value()
            ? plan_best_single_cut(resolved.circuit, *resolved.observable, auto_plan->planner)
            : plan_best_single_cut(resolved.circuit, auto_plan->planner);
    QCUT_CHECK(best.has_value(),
               "CutRequest: auto-planning found no valid single-cut bipartition");
    resolved.boundaries = {{best->point}};
    resolved.plan = std::move(best);
  } else {
    const AutoChainPlan& chain = std::get<AutoChainPlan>(request.cut_selection);
    std::optional<PlannedChain> best = plan_chain(resolved.circuit, chain.planner);
    QCUT_CHECK(best.has_value(),
               "CutRequest: chain planning found no boundary sequence satisfying the "
               "constraints (max_fragment_width " +
                   std::to_string(chain.planner.max_fragment_width) + ", max_boundaries " +
                   std::to_string(chain.planner.max_boundaries) + ")");
    resolved.boundaries = best->plan.boundaries;
    resolved.chain_plan = std::move(best->plan);
    resolved.graph = std::move(best->graph);
  }

  resolved.plan_seconds = timer.elapsed_seconds();
  return resolved;
}

}  // namespace qcut::cutting
