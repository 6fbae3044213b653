// CutService behavior: job queue, cross-request variant dedup, fragment
// cache integration, bit-for-bit equivalence with the direct execute_chain +
// reconstruct_distribution path under every GoldenMode, and the bootstrap on
// chains.

#include "service/cut_service.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "common/error.hpp"
#include "common/ordered.hpp"
#include "common/stopwatch.hpp"
#include "cutting/fragment_executor.hpp"
#include "cutting/golden.hpp"
#include "cutting/reconstructor.hpp"
#include "cutting/variants.hpp"
#include "metrics/stats.hpp"
#include "sim/sampling.hpp"
#include "sim/statevector.hpp"
#include "support/run_cut.hpp"

namespace qcut::service {
namespace {

using circuit::WirePoint;
using cutting::CutRunOptions;
using cutting::CutResponse;
using cutting::GoldenMode;
using cutting::NeglectSpec;

circuit::GoldenAnsatz make_ansatz(int n, std::uint64_t seed) {
  Rng rng(seed);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = n;
  return circuit::make_golden_ansatz(options, rng);
}

/// The direct pipeline (execute_chain + reconstruct_distribution): the
/// reference the service must match bit-for-bit at equal seeds.
std::vector<double> direct_raw_probabilities(const circuit::Circuit& circuit,
                                             std::span<const WirePoint> cuts,
                                             backend::Backend& backend,
                                             const CutRunOptions& options) {
  const cutting::Bipartition graph = cutting::make_bipartition(circuit, cuts);

  cutting::ExecutionOptions exec;
  exec.shots_per_variant = options.shots_per_variant;
  exec.total_shot_budget = options.total_shot_budget;
  exec.exact = options.exact;
  exec.pool = options.pool;
  exec.seed_stream_base = options.seed_stream_base;

  NeglectSpec spec = NeglectSpec::none(graph.total_cuts());
  switch (options.golden_mode) {
    case GoldenMode::None:
      break;
    case GoldenMode::Provided:
      spec = *options.provided_spec;
      break;
    case GoldenMode::DetectExact:
      spec = cutting::detect_golden_exact(graph, options.golden_tol).to_spec();
      break;
    case GoldenMode::DetectOnline: {
      // Detect from fragment 0's data under every setting, then run the
      // chain under the detected spec: with a fixed shots_per_variant a
      // variant's result does not depend on which other variants run.
      const cutting::ChainFragmentData measured =
          cutting::execute_chain(graph, cutting::ChainNeglectSpec::none(graph), backend, exec);
      std::uint64_t num_settings = 1;
      for (int k = 0; k < graph.total_cuts(); ++k) num_settings *= cutting::kNumMeasSettings;
      std::vector<std::vector<double>> ordered(num_settings);
      for (std::uint32_t s = 0; s < num_settings; ++s) {
        ordered[s] = measured.distribution(0, cutting::FragmentVariantKey{0, s});
      }
      spec = cutting::detect_golden_from_counts(graph, ordered, measured.shots_per_variant,
                                                options.online)
                 .to_spec();
      break;
    }
  }

  const cutting::ChainNeglectSpec chain_spec{{spec}};
  const cutting::ChainFragmentData data =
      cutting::execute_chain(graph, chain_spec, backend, exec);
  cutting::ReconstructionOptions recon;
  recon.pool = options.pool;
  return cutting::reconstruct_distribution(graph, data, chain_spec, recon).raw_probabilities;
}

TEST(CutService, MatchesDirectPathBitForBitUnderAllGoldenModes) {
  const auto ansatz = make_ansatz(5, 11);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};

  NeglectSpec provided(1);
  provided.neglect(0, ansatz.golden_basis);

  struct Case {
    const char* name;
    CutRunOptions options;
  };
  std::vector<Case> cases;
  {
    Case none{"None", {}};
    none.options.shots_per_variant = 1500;
    cases.push_back(none);

    Case prov{"Provided", {}};
    prov.options.shots_per_variant = 1500;
    prov.options.golden_mode = GoldenMode::Provided;
    prov.options.provided_spec = provided;
    cases.push_back(prov);

    Case exact_detect{"DetectExact", {}};
    exact_detect.options.exact = true;
    exact_detect.options.golden_mode = GoldenMode::DetectExact;
    cases.push_back(exact_detect);

    Case online{"DetectOnline", {}};
    online.options.shots_per_variant = 4000;
    online.options.golden_mode = GoldenMode::DetectOnline;
    cases.push_back(online);
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);

    backend::StatevectorBackend direct_backend(55);
    const std::vector<double> expected =
        direct_raw_probabilities(ansatz.circuit, cuts, direct_backend, c.options);

    // Service path, cache enabled.
    backend::StatevectorBackend service_backend(55);
    CutService service(service_backend);
    const CutResponse report = service.run(make_cut_request(ansatz.circuit, cuts, c.options));
    EXPECT_EQ(report.reconstruction.raw_probabilities, expected);

    // qcut::run is the thin synchronous wrapper over the service.
    backend::StatevectorBackend wrapper_backend(55);
    const CutResponse wrapped =
        cutting::run(make_cut_request(ansatz.circuit, cuts, c.options), wrapper_backend);
    EXPECT_EQ(wrapped.reconstruction.raw_probabilities, expected);
  }
}

TEST(CutService, RepeatedRequestIsServedFromCache) {
  const auto ansatz = make_ansatz(5, 12);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  backend::StatevectorBackend backend(7);
  CutService service(backend);

  CutRunOptions run;
  run.shots_per_variant = 800;

  const CutResponse first = service.run(make_cut_request(ansatz.circuit, cuts, run));
  const CutServiceStats after_first = service.stats();
  EXPECT_EQ(after_first.scheduler.executions, 9u);
  EXPECT_EQ(after_first.cache.insertions, 9u);

  const CutResponse second = service.run(make_cut_request(ansatz.circuit, cuts, run));
  const CutServiceStats after_second = service.stats();
  EXPECT_EQ(after_second.scheduler.executions, 9u);  // nothing re-executed
  EXPECT_EQ(after_second.scheduler.cache_hits, 9u);
  EXPECT_EQ(backend.stats().jobs, 9u);  // the backend saw one request's work

  EXPECT_EQ(first.reconstruction.raw_probabilities, second.reconstruction.raw_probabilities);
  // Planned (logical) totals are identical; physical usage collapses to 0.
  EXPECT_EQ(second.data.total_jobs, first.data.total_jobs);
  EXPECT_EQ(second.backend_delta.jobs, 0u);
  EXPECT_EQ(second.backend_delta.shots, 0u);
}

TEST(CutService, DifferentSeedStreamsDoNotShareCacheEntries) {
  const auto ansatz = make_ansatz(5, 13);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  backend::StatevectorBackend backend(7);
  CutService service(backend);

  CutRunOptions a;
  a.shots_per_variant = 500;
  CutRunOptions b = a;
  b.seed_stream_base = 1u << 30;

  (void)service.run(make_cut_request(ansatz.circuit, cuts, a));
  (void)service.run(make_cut_request(ansatz.circuit, cuts, b));
  EXPECT_EQ(service.stats().scheduler.executions, 18u);
  EXPECT_EQ(service.stats().scheduler.cache_hits, 0u);
}

/// 5 qubits, 3 fragments: {0,1} -q1-> {1,2,3} -q3-> {3,4}.
circuit::Circuit chain3_circuit() {
  circuit::Circuit c(5);
  c.h(0).cx(0, 1).ry(0.3, 1);                 // fragment 0
  c.cx(1, 2).ry(0.5, 2).cx(2, 3).ry(0.4, 3);  // fragment 1
  c.cx(3, 4).ry(0.2, 4);                      // fragment 2
  return c;
}

cutting::CutRequest chain3_request(GoldenMode mode, const std::string& tenant) {
  cutting::CutRequest request(chain3_circuit());
  request.with_boundaries({{WirePoint{1, 2}}, {WirePoint{3, 6}}})
      .with_golden(mode)
      .with_shots(1500)
      .with_tenant(tenant);
  return request;
}

/// Backend wrapper that blocks every run() until released, so a test can
/// guarantee two jobs' identical variants are in flight simultaneously.
class GatedBackend final : public backend::Backend {
 public:
  explicit GatedBackend(backend::Backend& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return "gated(" + inner_.name() + ")"; }

  [[nodiscard]] backend::Counts run(const circuit::Circuit& circuit, std::size_t shots,
                                    std::uint64_t seed_stream) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      gate_.wait(lock, [&] { return released_; });
    }
    return inner_.run(circuit, shots, seed_stream);
  }

  [[nodiscard]] backend::BackendStats stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    gate_.notify_all();
  }

 private:
  backend::Backend& inner_;
  std::mutex mutex_;
  std::condition_variable gate_;
  bool released_ = false;
};

TEST(CutService, ConcurrentIdenticalRequestsDeduplicateInFlight) {
  const auto ansatz = make_ansatz(5, 14);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  CutRunOptions run;
  run.shots_per_variant = 600;

  // One tenant's N=2 request twice, and two tenants' 3-fragment requests:
  // either way every variant of every fragment runs once.
  struct Twins {
    cutting::CutRequest first;
    cutting::CutRequest second;
    std::uint64_t variants = 0;
    std::uint64_t shots_per_variant = 0;
  };
  std::vector<Twins> cases;
  cases.push_back({make_cut_request(ansatz.circuit, cuts, run),
                   make_cut_request(ansatz.circuit, cuts, run), 9, 600});
  cases.push_back({chain3_request(GoldenMode::None, "alpha"),
                   chain3_request(GoldenMode::None, "beta"), 3 + 18 + 6, 1500});

  for (const Twins& twins : cases) {
    SCOPED_TRACE(twins.variants);
    backend::StatevectorBackend inner(9);
    GatedBackend gated(inner);

    CutServiceOptions service_options;
    service_options.cache_capacity = 0;  // cache off: sharing must come from dedup alone
    CutService service(gated, service_options);

    auto f1 = service.submit(twins.first);
    auto f2 = service.submit(twins.second);

    // Wait until both jobs' variants are requested (none can finish: the
    // backend gate is closed), then open the gate.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (service.stats().scheduler.requests < 2 * twins.variants) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "variant requests never arrived";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    gated.release();

    const CutResponse r1 = f1.get();
    const CutResponse r2 = f2.get();
    EXPECT_EQ(r1.reconstruction.raw_probabilities, r2.reconstruction.raw_probabilities);

    const CutServiceStats stats = service.stats();
    EXPECT_EQ(stats.scheduler.requests, 2 * twins.variants);
    EXPECT_EQ(stats.scheduler.executions, twins.variants);   // each variant ran once
    EXPECT_EQ(stats.scheduler.dedup_joins, twins.variants);  // the twin joined in flight
    EXPECT_EQ(inner.stats().jobs, twins.variants);

    // Physical usage is attributed to whichever job launched each variant.
    EXPECT_EQ(r1.backend_delta.jobs + r2.backend_delta.jobs, twins.variants);
    EXPECT_EQ(r1.backend_delta.shots + r2.backend_delta.shots,
              twins.variants * twins.shots_per_variant);
  }
}

/// Every variant of every fragment of a resubmitted request is a cache hit,
/// whether the same tenant or another one resubmits it, and under online
/// detection (one wave per fragment) as under a single wave: bit for bit,
/// with no backend execution.
TEST(CutService, ResubmittedChainRequestIsServedWhollyFromCache) {
  for (const GoldenMode mode : {GoldenMode::None, GoldenMode::DetectOnline}) {
    SCOPED_TRACE(static_cast<int>(mode));
    backend::StatevectorBackend backend(41);
    CutService service(backend);
    const CutResponse first = service.run(chain3_request(mode, "alpha"));
    const std::uint64_t executions = service.stats().scheduler.executions;
    const std::uint64_t backend_jobs = backend.stats().jobs;
    ASSERT_EQ(executions, first.data.total_jobs);
    ASSERT_EQ(first.graph.num_fragments(), 3);

    for (const std::string tenant : {"alpha", "beta"}) {
      SCOPED_TRACE(tenant);
      const std::uint64_t hits_before = service.stats().scheduler.cache_hits;
      const CutResponse again = service.run(chain3_request(mode, tenant));
      EXPECT_EQ(service.stats().scheduler.executions, executions);
      EXPECT_EQ(service.stats().scheduler.cache_hits - hits_before, first.data.total_jobs);
      EXPECT_EQ(backend.stats().jobs, backend_jobs);
      EXPECT_EQ(again.backend_delta.jobs, 0u);
      EXPECT_EQ(again.data.total_jobs, first.data.total_jobs);
      for (std::size_t f = 0; f < 3; ++f) {
        EXPECT_EQ(again.data.fragments[f].variants, first.data.fragments[f].variants);
      }
      EXPECT_EQ(again.reconstruction.raw_probabilities, first.reconstruction.raw_probabilities);
    }
  }
}

TEST(CutService, DeterministicUnderConcurrentMixedLoad) {
  const auto ansatz = make_ansatz(5, 15);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};

  NeglectSpec provided(1);
  provided.neglect(0, ansatz.golden_basis);

  // Four distinct configurations, each submitted three times concurrently.
  std::vector<CutRunOptions> configs(4);
  configs[0].shots_per_variant = 700;
  configs[1].shots_per_variant = 700;
  configs[1].seed_stream_base = 1u << 24;
  configs[2].shots_per_variant = 900;
  configs[2].golden_mode = GoldenMode::Provided;
  configs[2].provided_spec = provided;
  configs[3].total_shot_budget = 5000;
  configs[3].shots_per_variant = 0;

  // Reference: each configuration run alone at the same seeds.
  std::vector<std::vector<double>> expected;
  for (const CutRunOptions& config : configs) {
    backend::StatevectorBackend reference_backend(33);
    expected.push_back(
        cutting::run(make_cut_request(ansatz.circuit, cuts, config), reference_backend)
            .reconstruction.raw_probabilities);
  }

  backend::StatevectorBackend backend(33);
  CutService service(backend);
  std::vector<std::future<CutResponse>> futures;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const CutRunOptions& config : configs) {
      futures.push_back(service.submit(make_cut_request(ansatz.circuit, cuts, config)));
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const CutResponse report = futures[i].get();
    EXPECT_EQ(report.reconstruction.raw_probabilities, expected[i % configs.size()])
        << "job " << i << " diverged from its sequential reference";
  }
}

TEST(CutService, FailuresPropagateAndServiceStaysUsable) {
  const auto ansatz = make_ansatz(5, 16);
  backend::StatevectorBackend backend(5);
  CutService service(backend);

  // Malformed requests are rejected eagerly at submit, before queuing.
  CutRunOptions bad;
  bad.golden_mode = GoldenMode::Provided;
  EXPECT_THROW(
      (void)service.submit(make_cut_request(ansatz.circuit, std::array{ansatz.cut}, bad)),
      Error);

  // Out-of-range cut points are also caught eagerly.
  EXPECT_THROW((void)service.submit(make_cut_request(ansatz.circuit,
                                               std::array{WirePoint{99, 0}},
                                               CutRunOptions{})),
               Error);
  EXPECT_EQ(service.stats().jobs_submitted, 0u);

  // Failures discovered at admission - a structurally valid cut point that
  // does not induce a valid bipartition - flow through the future.
  circuit::Circuit entangled(3);
  entangled.cx(0, 1).cx(1, 2).cx(0, 2);
  entangled.cx(0, 1).cx(1, 2).cx(0, 2);
  auto bad_cut =
      service.submit(make_cut_request(entangled, std::array{WirePoint{0, 0}}, CutRunOptions{}));
  EXPECT_THROW((void)bad_cut.get(), Error);
  EXPECT_EQ(service.stats().jobs_failed, 1u);

  // So does an unplannable AutoPlan request.
  cutting::CutRequest unplannable(entangled);
  unplannable.with_auto_plan();
  auto no_plan = service.submit(std::move(unplannable));
  EXPECT_THROW((void)no_plan.get(), Error);
  EXPECT_EQ(service.stats().jobs_failed, 2u);

  // The service still serves good requests afterwards.
  CutRunOptions good;
  good.shots_per_variant = 300;
  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  const CutResponse report = service.run(make_cut_request(ansatz.circuit, cuts, good));
  EXPECT_EQ(report.data.total_jobs, 9u);
  EXPECT_EQ(service.stats().jobs_completed, 1u);
}

TEST(CutService, OnlineDetectionSchedulesDownstreamAfterPruning) {
  const auto ansatz = make_ansatz(5, 21);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  backend::StatevectorBackend backend(77);
  CutService service(backend);

  CutRunOptions run;
  run.shots_per_variant = 4000;
  run.golden_mode = GoldenMode::DetectOnline;
  const CutResponse report = service.run(make_cut_request(ansatz.circuit, cuts, run));

  // All 3 upstream settings execute; the detector prunes downstream to 4.
  EXPECT_EQ(report.data.total_jobs, 3u + 4u);
  EXPECT_TRUE(report.specs.boundary(0).is_neglected(0, ansatz.golden_basis));
  EXPECT_EQ(service.stats().scheduler.executions, 7u);
}

/// The circuit behind the observable-target tests: the cut wire's state is
/// (|0,+> + |1,->)/sqrt(2) entangled with the upstream output qubit, so the
/// distribution-level detector keeps the X basis, while an observable
/// supported entirely on f2 (O_f1 = I) sees the maximally mixed cut
/// marginal and neglects X, Y, and Z.
circuit::Circuit make_observable_refinement_circuit() {
  circuit::Circuit c(3);
  c.h(0).h(1).cz(0, 1);
  c.ry(0.5, 2).cx(1, 2);
  return c;
}

TEST(CutService, ObservableAutoPlanMatchesDirectEstimatePathBitForBit) {
  const circuit::Circuit circuit = make_observable_refinement_circuit();
  const cutting::DiagonalObservable obs =
      cutting::DiagonalObservable::from_pauli(circuit::PauliString::parse("ZZI"));

  // Direct path: observable-aware plan, observable-specific detection,
  // direct fragment execution, reconstruct_diagonal_expectation.
  const auto plan = cutting::plan_best_single_cut(circuit, obs);
  ASSERT_TRUE(plan.has_value());
  const std::array<WirePoint, 1> cuts = {plan->point};
  const cutting::Bipartition graph = cutting::make_bipartition(circuit, cuts);
  const cutting::ChainNeglectSpec spec{
      {cutting::detect_golden_for_observable(graph, obs).to_spec()}};

  backend::StatevectorBackend direct_backend(61);
  cutting::ExecutionOptions exec;
  exec.shots_per_variant = 2500;
  const cutting::ChainFragmentData data =
      cutting::execute_chain(graph, spec, direct_backend, exec);
  const double expected =
      cutting::reconstruct_diagonal_expectation(graph, data, spec, obs.diagonal());

  // Service path: the same request expressed as an auto-planned
  // observable-target CutRequest.
  cutting::CutRequest request(circuit);
  request.with_observable(obs)
      .with_auto_plan()
      .with_golden(cutting::GoldenMode::DetectExact)
      .with_shots(2500);

  backend::StatevectorBackend service_backend(61);
  CutService service(service_backend);
  const cutting::CutResponse response = service.run(request);

  ASSERT_TRUE(response.expectation.has_value());
  EXPECT_EQ(*response.expectation, expected);  // bit-for-bit at equal seeds
  ASSERT_TRUE(response.plan.has_value());
  EXPECT_EQ(response.plan->point, plan->point);
  EXPECT_EQ(response.cuts.size(), 1u);
  EXPECT_EQ(response.cuts.front(), plan->point);

  // The synchronous facade takes the identical route.
  backend::StatevectorBackend facade_backend(61);
  const cutting::CutResponse facade = cutting::run(request, facade_backend);
  ASSERT_TRUE(facade.expectation.has_value());
  EXPECT_EQ(*facade.expectation, expected);
}

TEST(CutService, MixedTargetBatchSharesVariantsAcrossRequests) {
  // A distribution job and an observable job on the same circuit and cut:
  // the target is job-level state only, never part of the variant cache
  // key, so the second request is served entirely from the cache.
  const auto ansatz = make_ansatz(5, 23);
  backend::StatevectorBackend backend(19);
  CutService service(backend);

  cutting::CutRequest distribution(ansatz.circuit);
  distribution.with_cut(ansatz.cut).with_shots(800);
  const cutting::CutResponse dist_response = service.run(distribution);
  EXPECT_FALSE(dist_response.expectation.has_value());

  const cutting::DiagonalObservable parity = cutting::DiagonalObservable::parity(5);
  cutting::CutRequest observable(ansatz.circuit);
  observable.with_observable(parity).with_cut(ansatz.cut).with_shots(800);
  const cutting::CutResponse obs_response = service.run(observable);

  const CutServiceStats stats = service.stats();
  EXPECT_EQ(stats.scheduler.executions, 9u);  // only the first job executed
  EXPECT_GE(stats.cache.hits, 9u);            // cross-request, cross-target hits
  EXPECT_EQ(obs_response.backend_delta.jobs, 0u);

  // Same fragment data, same reconstruction: the observable response's
  // expectation equals the observable evaluated on the distribution job's
  // raw reconstruction, exactly.
  ASSERT_TRUE(obs_response.expectation.has_value());
  EXPECT_EQ(*obs_response.expectation,
            parity.expectation(dist_response.reconstruction.raw_probabilities));
}

TEST(CutService, NonFactorizingObservableFallsBackToDistributionDetection) {
  // A diagonal observable that correlates an f1 output qubit with an f2
  // qubit does not factorize across the bipartition; DetectExact then
  // applies the distribution-level spec (the stronger requirement, valid
  // for any target) instead of failing the job - mirroring the
  // observable-aware planner's fallback.
  const circuit::Circuit circuit = make_observable_refinement_circuit();
  std::vector<double> diagonal(8, 0.0);
  for (index_t x = 0; x < 8; ++x) {
    diagonal[x] = bit(x, 0) == bit(x, 2) ? 1.0 : 0.0;  // q0 == q2 indicator
  }
  const cutting::DiagonalObservable obs{diagonal};

  const circuit::WirePoint cut{1, 2};  // qubit 1, after the cz
  const std::array<WirePoint, 1> cuts = {cut};
  const cutting::Bipartition bp = cutting::make_bipartition(circuit, cuts);
  ASSERT_FALSE(cutting::try_detect_golden_for_observable(bp, obs).has_value());

  cutting::CutRequest request(circuit);
  request.with_observable(obs)
      .with_cut(cut)
      .with_golden(cutting::GoldenMode::DetectExact)
      .with_exact();

  backend::StatevectorBackend backend(29);
  CutService service(backend);
  const cutting::CutResponse response = service.run(request);

  // Distribution-level spec at this cut neglects Y and Z: 6 variants.
  EXPECT_EQ(response.data.total_jobs, 6u);
  sim::StateVector sv(3);
  sv.apply_circuit(circuit);
  ASSERT_TRUE(response.expectation.has_value());
  EXPECT_NEAR(*response.expectation, obs.expectation(sv.probabilities()), 1e-9);
}

TEST(CutService, PauliTargetIsRotatedAndEstimated) {
  const auto ansatz = make_ansatz(5, 24);
  backend::StatevectorBackend backend(3);
  CutService service(backend);

  circuit::PauliString pauli(5);
  pauli.set_label(0, linalg::Pauli::X);
  pauli.set_label(3, linalg::Pauli::Z);

  cutting::CutRequest request(ansatz.circuit);
  request.with_pauli(pauli).with_cut(ansatz.cut).with_exact();
  const cutting::CutResponse response = service.run(request);

  sim::StateVector sv(5);
  sv.apply_circuit(ansatz.circuit);
  ASSERT_TRUE(response.expectation.has_value());
  EXPECT_NEAR(*response.expectation, sv.expectation_pauli(pauli), 1e-9);
}

/// The bootstrap on a 3-fragment chain: its estimate is the response's
/// expectation bit for bit, and the whole result is a direct
/// bootstrap_expectation on the response's graph, data and specs.
TEST(CutService, BootstrapRunsOnThreeFragmentChain) {
  circuit::Circuit c(5);
  c.h(0).cx(0, 1).ry(0.3, 1);                 // fragment 0
  c.cx(1, 2).ry(0.5, 2).cx(2, 3).ry(0.4, 3);  // fragment 1
  c.cx(3, 4).ry(0.2, 4);                      // fragment 2
  const cutting::BoundaryList boundaries = {{WirePoint{1, 2}}, {WirePoint{3, 6}}};
  const cutting::DiagonalObservable obs = cutting::DiagonalObservable::parity(5);
  cutting::BootstrapOptions boot;
  boot.replicas = 40;

  for (const GoldenMode mode : {GoldenMode::None, GoldenMode::DetectOnline}) {
    SCOPED_TRACE(static_cast<int>(mode));
    cutting::CutRequest request(c);
    request.with_boundaries(boundaries)
        .with_observable(obs)
        .with_golden(mode)
        .with_shots(2000)
        .with_uncertainty(boot);

    backend::StatevectorBackend backend(21);
    CutService service(backend);
    const CutResponse response = service.run(request);
    ASSERT_EQ(response.graph.num_fragments(), 3);
    ASSERT_TRUE(response.expectation.has_value());
    ASSERT_TRUE(response.uncertainty.has_value());
    const cutting::ExpectationUncertainty& u = *response.uncertainty;
    EXPECT_EQ(u.estimate, *response.expectation);
    EXPECT_GT(u.standard_error, 0.0);

    const cutting::ExpectationUncertainty direct = cutting::bootstrap_expectation(
        response.graph, response.data, response.specs, obs, boot);
    EXPECT_EQ(u.estimate, direct.estimate);
    EXPECT_EQ(u.standard_error, direct.standard_error);
    EXPECT_EQ(u.ci_lower, direct.ci_lower);
    EXPECT_EQ(u.ci_upper, direct.ci_upper);
  }
}

/// Under DetectOnline a total budget is split wave by wave, so fragment 1's
/// variants run fewer shots than fragment 0's, and the bootstrap must
/// resample each variant with its own count. 9000 shots over two waves:
/// fragment 0's three settings get 4500 / 3 = 1500 each, and the golden
/// boundary leaves fragment 1 four preps at 4500 / 4 = 1125.
TEST(CutService, BootstrapResamplesEachVariantWithItsOwnShots) {
  const auto ansatz = make_ansatz(5, 26);
  const cutting::DiagonalObservable obs = cutting::DiagonalObservable::parity(5);
  cutting::BootstrapOptions boot;
  boot.replicas = 12;
  cutting::CutRequest request(ansatz.circuit);
  request.with_cut(ansatz.cut)
      .with_observable(obs)
      .with_golden(GoldenMode::DetectOnline)
      .with_shot_budget(9000)
      .with_uncertainty(boot);

  backend::StatevectorBackend backend(5);
  CutService service(backend);
  const CutResponse response = service.run(request);
  ASSERT_TRUE(response.uncertainty.has_value());
  ASSERT_EQ(response.data.fragments.size(), 2u);
  ASSERT_EQ(response.data.fragments[0].variants.size(), 3u);
  ASSERT_EQ(response.data.fragments[1].variants.size(), 4u);
  ASSERT_EQ(response.data.total_shots, 9000u);

  // The replicas drawn by hand, every variant at its own wave's share.
  const std::array<std::size_t, 2> shots = {1500, 1125};
  Rng rng(boot.seed);
  std::vector<double> values;
  for (std::size_t r = 0; r < boot.replicas; ++r) {
    Rng replica_rng = rng.child(r);
    cutting::ChainFragmentData replica = response.data;
    for (std::size_t f = 0; f < replica.fragments.size(); ++f) {
      auto& variants = replica.fragments[f].variants;
      for (const std::uint64_t key : sorted_keys(variants)) {
        std::vector<double>& probs = variants.at(key);
        probs =
            sim::histogram_to_probabilities(sim::sample_histogram(probs, shots[f], replica_rng));
      }
    }
    values.push_back(cutting::reconstruct_diagonal_expectation(response.graph, replica,
                                                               response.specs, obs.diagonal()));
  }
  EXPECT_EQ(response.uncertainty->standard_error, metrics::summarize(values).stddev);
}

// ---- Scheduler threads -------------------------------------------------------

/// An injected service clock that blocks its first call from any thread but
/// the test's own: the first scheduler thread's admit of the first job. The
/// test releases it on every exit path, before the service is destroyed.
struct ClockHold {
  std::thread::id test_thread = std::this_thread::get_id();
  std::atomic<bool> taken{false};
  std::mutex mutex;
  std::condition_variable changed;
  bool holding = false;
  bool released = false;

  bool wait_until_holding() {
    std::unique_lock<std::mutex> lock(mutex);
    return changed.wait_for(lock, std::chrono::seconds(30), [&] { return holding; });
  }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      released = true;
    }
    changed.notify_all();
  }
};

MonotonicClock holding_clock(std::shared_ptr<ClockHold> hold) {
  return [hold = std::move(hold)]() -> std::uint64_t {
    if (std::this_thread::get_id() != hold->test_thread && !hold->taken.exchange(true)) {
      std::unique_lock<std::mutex> lock(hold->mutex);
      hold->holding = true;
      hold->changed.notify_all();
      hold->changed.wait(lock, [&] { return hold->released; });
    }
    return monotonic_now_ns();
  };
}

std::int64_t scheduler_threads(const CutService& service) {
  const telemetry::MetricsSnapshot snapshot = service.stats().telemetry;
  const telemetry::GaugeSample* gauge = snapshot.find_gauge("service.scheduler_threads");
  return gauge != nullptr ? gauge->value : -1;
}

/// While one job holds the only scheduler thread (its admit is stuck in the
/// clock), a second job is served by a second thread started for it.
TEST(CutService, StartsASchedulerThreadWhileEveryRunningOneHoldsAJob) {
  auto hold = std::make_shared<ClockHold>();
  backend::StatevectorBackend backend(17);
  parallel::ThreadPool pool(2);
  telemetry::MetricsRegistry registry;
  CutServiceOptions options;
  options.pool = &pool;
  options.metrics = &registry;
  options.clock = holding_clock(hold);
  CutService service(backend, options);
  // Declared after the service, so it releases the clock before the
  // service's destructor waits for the held job.
  struct ReleaseOnExit {
    ClockHold& hold;
    ~ReleaseOnExit() { hold.release(); }
  } release_on_exit{*hold};

  auto held = service.submit(chain3_request(GoldenMode::None, "alpha"));
  ASSERT_TRUE(hold->wait_until_holding()) << "the first job never reached admission";
  EXPECT_EQ(scheduler_threads(service), 1);

  auto other = service.submit(chain3_request(GoldenMode::DetectOnline, "beta"));
  const bool served = other.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  const std::int64_t threads = scheduler_threads(service);
  hold->release();
  EXPECT_TRUE(served) << "the second job waited for the held one";
  EXPECT_EQ(threads, 2);

  EXPECT_EQ(other.get().graph.num_fragments(), 3);
  EXPECT_EQ(held.get().graph.num_fragments(), 3);
  EXPECT_EQ(scheduler_threads(service), 2);
}

/// One thread serves any load on a 1-worker pool, and requests run one at a
/// time never start a second thread on a larger pool: a job's own waves and
/// its client's next request find its thread free.
TEST(CutService, SchedulerThreadsStayAtOneWithoutConcurrentJobs) {
  const auto ansatz = make_ansatz(5, 27);
  {
    backend::StatevectorBackend backend(3);
    parallel::ThreadPool pool(1);
    telemetry::MetricsRegistry registry;
    CutServiceOptions options;
    options.pool = &pool;
    options.metrics = &registry;
    CutService service(backend, options);
    std::vector<std::future<CutResponse>> futures;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      cutting::CutRequest request = chain3_request(GoldenMode::DetectOnline, "alpha");
      request.with_seed(seed << 20);
      futures.push_back(service.submit(std::move(request)));
    }
    for (auto& future : futures) EXPECT_EQ(future.get().graph.num_fragments(), 3);
    EXPECT_EQ(scheduler_threads(service), 1);
  }
  {
    backend::StatevectorBackend backend(3);
    parallel::ThreadPool pool(4);
    telemetry::MetricsRegistry registry;
    CutServiceOptions options;
    options.pool = &pool;
    options.metrics = &registry;
    CutService service(backend, options);
    for (int repeat = 0; repeat < 2; ++repeat) {  // the second pass is all cache hits
      for (const GoldenMode mode : {GoldenMode::None, GoldenMode::DetectOnline}) {
        EXPECT_EQ(service.run(chain3_request(mode, "alpha")).graph.num_fragments(), 3);
      }
      cutting::CutRequest planned(ansatz.circuit);
      planned.with_auto_plan().with_golden(GoldenMode::DetectExact).with_shots(500);
      EXPECT_EQ(service.run(planned).graph.num_fragments(), 2);
    }
    EXPECT_GT(service.stats().scheduler.cache_hits, 0u);
    EXPECT_EQ(scheduler_threads(service), 1);
  }
}

TEST(CutService, ExactOnlineDetectionIsRejected) {
  const auto ansatz = make_ansatz(5, 22);
  backend::StatevectorBackend backend(3);
  CutService service(backend);
  CutRunOptions run;
  run.exact = true;
  run.golden_mode = GoldenMode::DetectOnline;
  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  EXPECT_THROW((void)service.run(make_cut_request(ansatz.circuit, cuts, run)), Error);
}

}  // namespace
}  // namespace qcut::service
