// Admission of planned jobs against its definition. Under
// GoldenMode::DetectExact a CutService job must return what building its
// chain with make_fragment_chain and re-detecting every boundary with
// make_bipartition + detect_golden_exact gives: the same graph, specs,
// degradation report and reconstruction bits. Covered: the planner corpus
// under AutoPlan and AutoChainPlan at tolerances 1e-9, 0 and one of the
// planned cut's own violations (the verdict sits on the tolerance), the
// benchmark's four paper-size request kinds, and jobs shed with a loosened
// tolerance, whose error bound carries the neglected violation mass.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/fault_injection.hpp"
#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "cutting/fragment_executor.hpp"
#include "cutting/golden.hpp"
#include "cutting/reconstructor.hpp"
#include "parallel/thread_pool.hpp"
#include "service/cut_service.hpp"
#include "support/digest.hpp"
#include "support/planner_corpus.hpp"

namespace qcut::service {
namespace {

using circuit::Circuit;
using cutting::CutRequest;
using cutting::CutResponse;
using cutting::GoldenMode;

constexpr std::uint64_t kBackendSeed = 55;

/// What the service must return for `request`, built the reference way.
struct Expected {
  cutting::FragmentGraph graph;
  std::vector<cutting::NeglectSpec> specs;
  std::vector<std::array<double, 4>> violations;  // per boundary (single-cut boundaries)
  double neglect_mass = 0.0;  // summed violation of every neglected element
  std::vector<double> raw_probabilities;
};

/// Resolves `request`, builds its chain, re-detects every boundary at
/// `tol` and executes and reconstructs the chain directly.
Expected reference(const CutRequest& request, double tol) {
  const cutting::ResolvedRequest resolved = cutting::resolve(request);
  Expected expected;
  expected.graph = cutting::make_fragment_chain(resolved.circuit, resolved.boundaries);
  for (const std::vector<circuit::WirePoint>& boundary : resolved.boundaries) {
    const cutting::Bipartition bp = cutting::make_bipartition(resolved.circuit, boundary);
    const cutting::GoldenDetectionReport report = cutting::detect_golden_exact(bp, tol);
    expected.violations.push_back(report.violation.front());
    for (std::size_t k = 0; k < report.golden.size(); ++k) {
      for (std::size_t p = 0; p < 4; ++p) {
        if (report.golden[k][p]) expected.neglect_mass += report.violation[k][p];
      }
    }
    expected.specs.push_back(report.to_spec());
  }

  const cutting::ChainNeglectSpec specs(expected.specs);
  cutting::ExecutionOptions exec;
  exec.shots_per_variant = request.options.shots_per_variant;
  exec.exact = request.options.exact;
  exec.seed_stream_base = request.options.seed_stream_base;
  backend::StatevectorBackend backend(kBackendSeed);
  const cutting::ChainFragmentData data =
      cutting::execute_chain(expected.graph, specs, backend, exec);
  expected.raw_probabilities =
      cutting::reconstruct_distribution(expected.graph, data, specs).raw_probabilities;
  return expected;
}

void expect_same_graph(const cutting::FragmentGraph& actual,
                       const cutting::FragmentGraph& expected) {
  EXPECT_EQ(actual.num_original_qubits, expected.num_original_qubits);
  ASSERT_EQ(actual.fragments.size(), expected.fragments.size());
  for (std::size_t f = 0; f < actual.fragments.size(); ++f) {
    SCOPED_TRACE(testing::Message() << "fragment " << f);
    const cutting::ChainFragment& a = actual.fragments[f];
    const cutting::ChainFragment& e = expected.fragments[f];
    EXPECT_EQ(a.circuit.num_qubits(), e.circuit.num_qubits());
    ASSERT_EQ(a.circuit.num_ops(), e.circuit.num_ops());
    for (std::size_t i = 0; i < a.circuit.num_ops(); ++i) {
      EXPECT_TRUE(circuit::same_operation(a.circuit.op(i), e.circuit.op(i))) << "op " << i;
    }
    EXPECT_EQ(a.to_original, e.to_original);
    EXPECT_EQ(a.in_qubits, e.in_qubits);
    EXPECT_EQ(a.out_cut_qubits, e.out_cut_qubits);
    EXPECT_EQ(a.output_qubits, e.output_qubits);
    EXPECT_EQ(a.output_original, e.output_original);
  }
  ASSERT_EQ(actual.boundaries.size(), expected.boundaries.size());
  for (std::size_t b = 0; b < actual.boundaries.size(); ++b) {
    SCOPED_TRACE(testing::Message() << "boundary " << b);
    EXPECT_EQ(actual.boundaries[b].points, expected.boundaries[b].points);
    ASSERT_EQ(actual.boundaries[b].wires.size(), expected.boundaries[b].wires.size());
    for (std::size_t w = 0; w < actual.boundaries[b].wires.size(); ++w) {
      const cutting::BoundaryWire& a = actual.boundaries[b].wires[w];
      const cutting::BoundaryWire& e = expected.boundaries[b].wires[w];
      EXPECT_EQ(a.original_qubit, e.original_qubit);
      EXPECT_EQ(a.up_qubit, e.up_qubit);
      EXPECT_EQ(a.down_qubit, e.down_qubit);
    }
  }
}

void expect_same_specs(const cutting::ChainNeglectSpec& actual,
                       const std::vector<cutting::NeglectSpec>& expected) {
  ASSERT_EQ(static_cast<std::size_t>(actual.num_boundaries()), expected.size());
  for (std::size_t b = 0; b < expected.size(); ++b) {
    const cutting::NeglectSpec& a = actual.boundary(static_cast<int>(b));
    ASSERT_EQ(a.num_cuts(), expected[b].num_cuts());
    for (int k = 0; k < a.num_cuts(); ++k) {
      for (const cutting::Pauli p : linalg::kAllPaulis) {
        EXPECT_EQ(a.is_neglected(k, p), expected[b].is_neglected(k, p))
            << "boundary " << b << " cut " << k << " pauli " << static_cast<int>(p);
      }
    }
    EXPECT_EQ(a.num_active_strings(), expected[b].num_active_strings());
  }
}

/// The response against the reference; `shed_tol` is engaged when the job
/// was shed and detected at that tolerance. A planned job's reports are read
/// off its plan, so the plan's violations must be the re-detected ones.
void expect_matches(const CutResponse& response, const Expected& expected,
                    std::optional<double> shed_tol) {
  expect_same_graph(response.graph, expected.graph);
  expect_same_specs(response.specs, expected.specs);
  if (response.plan.has_value()) {
    ASSERT_EQ(expected.violations.size(), 1u);
    EXPECT_EQ(bit_patterns(response.plan->violation),
              bit_patterns(expected.violations.front()));
  }
  if (response.chain_plan.has_value()) {
    ASSERT_EQ(response.chain_plan->boundary_plans.size(), expected.violations.size());
    for (std::size_t b = 0; b < expected.violations.size(); ++b) {
      EXPECT_EQ(bit_patterns(response.chain_plan->boundary_plans[b].violation),
                bit_patterns(expected.violations[b]))
          << "boundary " << b;
    }
  }
  EXPECT_EQ(bit_patterns(response.reconstruction.raw_probabilities),
            bit_patterns(expected.raw_probabilities));
  ASSERT_EQ(response.degradation.has_value(), shed_tol.has_value());
  if (!shed_tol.has_value()) return;
  const cutting::DegradationReport& report = *response.degradation;
  EXPECT_TRUE(report.load_shed);
  EXPECT_TRUE(report.neglected_variants.empty());
  EXPECT_EQ(report.terms_dropped, 0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(report.golden_tol_applied),
            std::bit_cast<std::uint64_t>(*shed_tol));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(report.error_bound),
            std::bit_cast<std::uint64_t>(0.0 + expected.neglect_mass));
}

/// A distribution-target DetectExact request detecting at `tol`, planned
/// at `planner_tol`.
CutRequest planned_request(const Circuit& circuit, bool chain, double planner_tol, double tol,
                           bool exact) {
  CutRequest request(circuit);
  if (chain) {
    cutting::ChainPlannerOptions planner;
    planner.base.golden_tol = planner_tol;
    planner.max_fragment_width = circuit.num_qubits() / 2 + 1;
    request.with_chain_plan(planner);
  } else {
    cutting::PlannerOptions planner;
    planner.golden_tol = planner_tol;
    request.with_auto_plan(planner);
  }
  request.with_golden(GoldenMode::DetectExact).with_seed(17);
  request.options.golden_tol = tol;
  if (exact) {
    request.with_exact();
  } else {
    request.with_shots(500);
  }
  return request;
}

/// The planned cut's middle X/Y/Z violation: a tolerance one verdict of
/// the plan sits exactly on.
double planned_violation(const Circuit& circuit, bool chain) {
  const cutting::ResolvedRequest resolved =
      cutting::resolve(planned_request(circuit, chain, 1e-9, 1e-9, true));
  const cutting::CutCandidate& planned =
      chain ? resolved.chain_plan->boundary_plans.front() : *resolved.plan;
  std::array<double, 3> xyz = {planned.violation[1], planned.violation[2],
                               planned.violation[3]};
  std::sort(xyz.begin(), xyz.end());
  return xyz[1];
}

bool plannable(const Circuit& circuit, bool chain) {
  if (!chain) return cutting::plan_best_single_cut(circuit).has_value();
  cutting::ChainPlannerOptions planner;
  planner.max_fragment_width = circuit.num_qubits() / 2 + 1;
  return cutting::plan_chain_cuts(circuit, planner).has_value();
}

/// The benchmark's paper_mixed request kinds at 5-7 qubits, every one under
/// DetectExact: kinds 0 and 2 are planned (single cut; chain capped at
/// n/2+1 qubits per fragment), kinds 1 and 3 cut at the designed point.
std::vector<CutRequest> paper_mixed_requests() {
  std::vector<CutRequest> out;
  Rng rng(1);
  for (int n = 5; n <= 7; ++n) {
    for (int kind = 0; kind < 4; ++kind) {
      circuit::GoldenAnsatzOptions options;
      options.num_qubits = n;
      const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
      CutRequest request(ansatz.circuit);
      if (kind == 0) {
        request.with_auto_plan();
      } else if (kind == 2) {
        cutting::ChainPlannerOptions planner;
        planner.max_fragment_width = n / 2 + 1;
        request.with_chain_plan(planner);
      } else {
        request.with_cut(ansatz.cut);
      }
      request.with_golden(GoldenMode::DetectExact).with_shots(4000).with_seed(rng.next_u64());
      out.push_back(std::move(request));
    }
  }
  return out;
}

CutResponse serve(CutService& service, const CutRequest& request) {
  return service.submit(request).get();
}

TEST(PlannedAdmission, CorpusJobsMatchTheRebuiltChainAndRedetectedBoundaries) {
  backend::StatevectorBackend backend(kBackendSeed);
  parallel::ThreadPool pool(2);
  CutServiceOptions options;
  options.pool = &pool;
  CutService service(backend, options);

  std::size_t jobs = 0;
  for (const Circuit& circuit : cutting::planner_corpus()) {
    for (const bool chain : {false, true}) {
      if (!plannable(circuit, chain)) continue;
      for (const double tol : {1e-9, 0.0, planned_violation(circuit, chain)}) {
        // Planned at the default tolerance and at the detection tolerance.
        for (const double planner_tol : {1e-9, tol}) {
          SCOPED_TRACE(testing::Message() << circuit.num_qubits() << " qubits, "
                                          << (chain ? "chain" : "single") << ", tol " << tol
                                          << ", planner tol " << planner_tol);
          const CutRequest request = planned_request(circuit, chain, planner_tol, tol, true);
          expect_matches(serve(service, request), reference(request, tol), std::nullopt);
          ++jobs;
        }
      }
    }
  }
  EXPECT_GT(jobs, 800u);
}

TEST(PlannedAdmission, PaperMixedKindsMatchTheRebuiltChainAndRedetectedBoundaries) {
  backend::StatevectorBackend backend(kBackendSeed);
  parallel::ThreadPool pool(2);
  CutServiceOptions options;
  options.pool = &pool;
  CutService service(backend, options);
  for (const CutRequest& request : paper_mixed_requests()) {
    SCOPED_TRACE(testing::Message() << request.circuit.num_qubits() << " qubits, selection "
                                    << request.cut_selection.index());
    expect_matches(serve(service, request), reference(request, request.options.golden_tol),
                   std::nullopt);
  }
}

TEST(PlannedAdmission, ShedJobsDetectAtTheLoosenedToleranceAndReportItsMass) {
  backend::StatevectorBackend inner(kBackendSeed);
  backend::FaultPlan plan;
  plan.hang_rate = 1.0;
  backend::FaultInjectingBackend backend(inner, plan);
  parallel::ThreadPool pool(2);
  CutServiceOptions options;
  options.pool = &pool;
  options.sleeper = [](double) {};
  options.cache_capacity = 0;
  options.admission.shed_watermark_jobs = 1;
  CutService service(backend, options);

  // A job wedged in the backend keeps every later job above the watermark
  // until each has been admitted (and so shed).
  const std::vector<Circuit> corpus = cutting::planner_corpus();
  CutRequest blocker(corpus.front());
  blocker.with_auto_plan().with_shots(64).with_seed(1);
  std::future<CutResponse> blocked = service.submit(blocker);

  // A multiplier loose enough that shedding neglects elements the
  // requested tolerance keeps (the corpus's random circuits).
  const cutting::LoadShedPolicy policy{1.0, 1e8};
  std::vector<CutRequest> requests = paper_mixed_requests();
  for (std::size_t i = 0; i < 26; ++i) {
    for (const bool chain : {false, true}) {
      if (plannable(corpus[i], chain)) {
        requests.push_back(planned_request(corpus[i], chain, 1e-9, 1e-9, false));
      }
    }
  }
  std::vector<std::future<CutResponse>> futures;
  for (CutRequest& request : requests) {
    request.with_load_shed(policy);
    futures.push_back(service.submit(request));
  }
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (service.stats().jobs_shed < requests.size() &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  backend.release_hangs();
  (void)blocked.get();

  bool loosened = false;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "request " << i);
    const double shed_tol = requests[i].options.golden_tol * policy.golden_tol_multiplier;
    const Expected expected = reference(requests[i], shed_tol);
    loosened = loosened || expected.neglect_mass > 1e-6;
    expect_matches(futures[i].get(), expected, shed_tol);
  }
  EXPECT_TRUE(loosened);
}

}  // namespace
}  // namespace qcut::service
