// Overload robustness: admission control, bounded backpressure,
// weighted-fair multi-tenant scheduling, and pressure-adaptive load
// shedding.
//
// The contracts under test: submit() past a configured budget throws typed
// ResourceExhausted (fail-fast, never a hanging future); an unmeetable
// deadline is rejected before enqueueing; the FairDispatcher releases pool
// slots across tenants in a deterministic stride order (no starvation, no
// ambient entropy); shedding is strictly opt-in and reported with its
// error bound; and under a soak at several times capacity every future
// resolves and the in-flight gauges return to zero.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend/fault_injection.hpp"
#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "common/error.hpp"
#include "service/admission.hpp"
#include "service/cut_service.hpp"
#include "service/fair_dispatcher.hpp"
#include "support/run_cut.hpp"

namespace qcut::service {
namespace {

using backend::FaultInjectingBackend;
using backend::FaultPlan;
using circuit::WirePoint;
using cutting::CutRequest;
using cutting::CutRunOptions;
using cutting::GoldenMode;
using cutting::LoadShedPolicy;
using cutting::PriorityClass;

Sleeper noop_sleeper() {
  return [](double) {};
}

circuit::GoldenAnsatz make_ansatz(int n, std::uint64_t seed) {
  Rng rng(seed);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = n;
  return circuit::make_golden_ansatz(options, rng);
}

/// A small exact-mode explicit-cut request (9 variants, fast to serve).
CutRequest small_request(const circuit::GoldenAnsatz& ansatz, std::uint64_t seed = 0) {
  CutRequest request(ansatz.circuit);
  request.with_cut(ansatz.cut).with_exact().with_seed(seed);
  return request;
}

// ---- Job cost estimation -----------------------------------------------------

TEST(Admission, EstimatesExplicitSelectionExactly) {
  const circuit::GoldenAnsatz ansatz = make_ansatz(5, 11);
  // One single-wire boundary, no neglect: 3 upstream settings + 6
  // downstream preps = 9 variants.
  EXPECT_EQ(cutting::estimated_variant_count(small_request(ansatz)), 9u);

  // A provided spec neglecting basis elements shrinks the bill up front -
  // the paper's point, visible at admission.
  CutRequest pruned = small_request(ansatz);
  cutting::NeglectSpec spec = cutting::NeglectSpec::none(1);
  spec.neglect(0, cutting::Pauli::Y);
  pruned.with_provided_spec(spec);
  EXPECT_LT(cutting::estimated_variant_count(pruned), 9u);
}

TEST(Admission, EstimatesAutoPlansWithoutPlanning) {
  const circuit::GoldenAnsatz ansatz = make_ansatz(5, 12);
  CutRequest auto_plan(ansatz.circuit);
  auto_plan.with_auto_plan().with_exact();
  EXPECT_EQ(cutting::estimated_variant_count(auto_plan), 9u);

  CutRequest chain(ansatz.circuit);
  cutting::ChainPlannerOptions chain_options;
  chain_options.max_boundaries = 3;
  chain.with_chain_plan(chain_options).with_exact();
  EXPECT_EQ(cutting::estimated_variant_count(chain), 9u + 18u * 2u);
}

TEST(Admission, BytePriceScalesWithCircuitWidth) {
  const JobCost narrow = estimate_job_cost(small_request(make_ansatz(4, 1)));
  const JobCost wide = estimate_job_cost(small_request(make_ansatz(8, 1)));
  EXPECT_EQ(narrow.variants, wide.variants);
  EXPECT_EQ(wide.bytes, narrow.bytes << 4);  // 2^8 vs 2^4 statevectors
}

TEST(Admission, PureFunctionsAreDeterministic) {
  AdmissionOptions options;
  options.max_queued_jobs = 2;
  options.max_in_flight_variants = 20;
  const JobCost cost{9, 1 << 12};
  EXPECT_TRUE(admits(options, AdmissionLoad{1, 9, 0}, cost));
  EXPECT_FALSE(admits(options, AdmissionLoad{2, 9, 0}, cost));   // job cap
  EXPECT_FALSE(admits(options, AdmissionLoad{1, 12, 0}, cost));  // variant cap
  EXPECT_FALSE(never_admits(options, cost));
  EXPECT_TRUE(never_admits(options, JobCost{21, 0}));

  const double hint = retry_after_hint(options, AdmissionLoad{8, 80, 0}, cost);
  EXPECT_EQ(hint, retry_after_hint(options, AdmissionLoad{8, 80, 0}, cost));
  EXPECT_GE(hint, options.retry_after_hint_seconds);
  // Deeper overload suggests a longer backoff.
  EXPECT_GT(hint, retry_after_hint(options, AdmissionLoad{2, 9, 0}, cost));
}

// ---- FairDispatcher ----------------------------------------------------------

/// Runs `submissions` (label, weight) through a dispatcher over a 1-worker
/// pool whose single worker is parked on a gate until every task is staged,
/// then returns the order the labels executed in.
std::string dispatch_order(const std::vector<std::pair<std::string, std::uint32_t>>& submissions) {
  parallel::ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  // Park the worker so every dispatcher submission stages before the first
  // task executes; the dispatcher then observes the full tenant picture.
  std::future<void> parked = pool.submit([opened] { opened.wait(); });

  std::string order;
  std::mutex order_mutex;
  {
    FairDispatcher dispatcher(pool);
    for (const auto& [label, weight] : submissions) {
      dispatcher.submit(label, weight, [&order, &order_mutex, tag = label] {
        std::lock_guard<std::mutex> lock(order_mutex);
        order += tag;
      });
    }
    gate.set_value();
    dispatcher.drain();
  }
  parked.get();
  return order;
}

TEST(FairDispatcher, WeightedStrideOrderIsExactAndDeterministic) {
  // Tenant A at weight 3, tenant B at weight 1, A's six tasks staged before
  // B's two. Stride arithmetic (scale 2^20: A advances 349525/dispatch, B
  // 1048576) with ties broken by submission order gives exactly ABAAABAA:
  // the first A is released before B stages (one worker), then B's pass of 0
  // wins, then A's smaller stride earns three dispatches per B.
  std::vector<std::pair<std::string, std::uint32_t>> submissions;
  for (int i = 0; i < 6; ++i) submissions.emplace_back("A", 3);
  for (int i = 0; i < 2; ++i) submissions.emplace_back("B", 1);

  const std::string first = dispatch_order(submissions);
  EXPECT_EQ(first, "ABAAABAA");
  for (int repeat = 0; repeat < 2; ++repeat) {
    EXPECT_EQ(dispatch_order(submissions), first) << "dispatch order must be pure";
  }
}

TEST(FairDispatcher, LightTenantIsNeverStarved) {
  // 1000:1 weights, the heavy tenant's 12 tasks staged first. Stride makes
  // starvation structurally impossible: the light tenant's pass (floored at
  // the virtual time of its submission) is overtaken within one heavy
  // stride, so its task runs near the front, not after all 12.
  std::vector<std::pair<std::string, std::uint32_t>> submissions;
  for (int i = 0; i < 12; ++i) submissions.emplace_back("H", 1000);
  submissions.emplace_back("l", 1);

  const std::string order = dispatch_order(submissions);
  const std::size_t light_at = order.find('l');
  ASSERT_NE(light_at, std::string::npos);
  EXPECT_LE(light_at, 2u) << "order was " << order;
}

TEST(FairDispatcher, EqualWeightsFallBackToSubmissionOrder) {
  std::vector<std::pair<std::string, std::uint32_t>> submissions;
  for (int i = 0; i < 3; ++i) {
    submissions.emplace_back("X", 2);
    submissions.emplace_back("Y", 2);
  }
  EXPECT_EQ(dispatch_order(submissions), "XYXYXY");
}

TEST(FairDispatcher, TeardownWaitsForEveryWrapper) {
  // A finishing task releases the next staged one from inside its wrapper,
  // and its wrapper then still locks and notifies the dispatcher. drain()
  // must count it until it is done: destroying the dispatcher right after
  // drain(), round after round on a contended pool, must never leave a
  // wrapper touching freed memory (a hang, a crash or an ASan report).
  // Each round stages twice the 4 workers' worth of tasks, so finishing
  // wrappers release the staged half.
  parallel::ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int round = 0; round < 2000; ++round) {
    auto dispatcher = std::make_unique<FairDispatcher>(pool);
    for (int i = 0; i < 8; ++i) dispatcher->submit("t", 1, [&ran] { ran.fetch_add(1); });
    dispatcher.reset();
  }
  EXPECT_EQ(ran.load(), 16000);
}

// ---- Admission control end to end --------------------------------------------

TEST(CutServiceOverload, RejectsPastJobWatermarkWithTypedError) {
  backend::StatevectorBackend inner(11);
  FaultPlan plan;
  plan.hang_rate = 1.0;  // every stream's first call blocks until released
  FaultInjectingBackend backend(inner, plan);

  parallel::ThreadPool pool(2);
  CutServiceOptions options;
  options.pool = &pool;
  options.sleeper = noop_sleeper();
  options.admission.max_queued_jobs = 1;
  telemetry::MetricsRegistry metrics;
  options.metrics = &metrics;
  CutService service(backend, options);

  const circuit::GoldenAnsatz ansatz = make_ansatz(5, 21);
  std::future<cutting::CutResponse> first = service.submit(small_request(ansatz, 1));

  // The first job is wedged in the backend, so the second submit must fail
  // fast with the full picture - not hang, not enqueue.
  try {
    auto future = service.submit(small_request(ansatz, 2));
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.details().queued_jobs, 1u);
    EXPECT_EQ(e.details().max_queued_jobs, 1u);
    EXPECT_EQ(e.details().in_flight_variants, 9u);
    EXPECT_GT(e.details().retry_after_seconds, 0.0);
  }
  // The taxonomy makes the rejection retryable by construction.
  try {
    auto future = service.submit(small_request(ansatz, 3));
    FAIL() << "expected ResourceExhausted";
  } catch (const TransientError&) {
  }

  backend.release_hangs();
  EXPECT_EQ(first.get().probabilities().size(), 1u << 5);
  const CutServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_rejected, 2u);
  EXPECT_EQ(stats.jobs_submitted, 1u);  // rejected requests never became jobs
  EXPECT_EQ(stats.jobs_completed, 1u);
}

TEST(CutServiceOverload, OversizedJobRejectsEvenWhenIdle) {
  backend::StatevectorBackend backend(11);
  CutServiceOptions options;
  options.admission.max_in_flight_bytes = 1024;  // < one 5-qubit variant wave
  options.admission.block = true;  // blocking could never help: reject now
  telemetry::MetricsRegistry metrics;
  options.metrics = &metrics;
  CutService service(backend, options);

  const circuit::GoldenAnsatz ansatz = make_ansatz(5, 22);
  try {
    auto future = service.submit(small_request(ansatz));
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.details().max_in_flight_bytes, 1024u);
    EXPECT_GT(e.details().in_flight_bytes + 9u * (8u << 5), 1024u);
  }
}

TEST(CutServiceOverload, BoundedBlockAdmitsWhenLoadDrains) {
  backend::StatevectorBackend inner(11);
  FaultPlan plan;
  plan.hang_rate = 1.0;
  FaultInjectingBackend backend(inner, plan);

  parallel::ThreadPool pool(2);
  CutServiceOptions options;
  options.pool = &pool;
  options.sleeper = noop_sleeper();
  options.admission.max_queued_jobs = 1;
  options.admission.block = true;
  options.admission.max_block_seconds = 30.0;
  CutService service(backend, options);

  const circuit::GoldenAnsatz ansatz = make_ansatz(5, 23);
  std::future<cutting::CutResponse> first = service.submit(small_request(ansatz, 1));

  std::promise<std::future<cutting::CutResponse>> second_promise;
  std::future<std::future<cutting::CutResponse>> second = second_promise.get_future();
  std::thread cooperative([&] {
    // Blocks inside submit() until the first job returns its budget.
    second_promise.set_value(service.submit(small_request(ansatz, 2)));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  backend.release_hangs();
  cooperative.join();

  EXPECT_EQ(first.get().probabilities().size(), 1u << 5);
  EXPECT_EQ(second.get().get().probabilities().size(), 1u << 5);
  EXPECT_EQ(service.stats().jobs_rejected, 0u);
}

TEST(CutServiceOverload, BlockBoundMustBeFiniteAndNonNegative) {
  backend::StatevectorBackend backend(11);
  for (const double seconds : {std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    SCOPED_TRACE(seconds);
    CutServiceOptions options;
    options.admission.block = true;
    options.admission.max_block_seconds = seconds;
    EXPECT_THROW(CutService(backend, options), Error);
  }
}

/// A block bound past the clock's 2^64 ns range waits until load drains.
TEST(CutServiceOverload, HugeBlockBoundWaitsUntilLoadDrains) {
  backend::StatevectorBackend inner(11);
  FaultPlan plan;
  plan.hang_rate = 1.0;
  FaultInjectingBackend backend(inner, plan);

  parallel::ThreadPool pool(2);
  CutServiceOptions options;
  options.pool = &pool;
  options.sleeper = noop_sleeper();
  options.admission.max_queued_jobs = 1;
  options.admission.block = true;
  options.admission.max_block_seconds = 1e300;
  CutService service(backend, options);

  const circuit::GoldenAnsatz ansatz = make_ansatz(5, 23);
  std::future<cutting::CutResponse> first = service.submit(small_request(ansatz, 1));

  std::promise<std::future<cutting::CutResponse>> second_promise;
  std::future<std::future<cutting::CutResponse>> second = second_promise.get_future();
  std::thread cooperative([&] {
    try {
      second_promise.set_value(service.submit(small_request(ansatz, 2)));
    } catch (...) {
      second_promise.set_exception(std::current_exception());
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  backend.release_hangs();
  cooperative.join();

  EXPECT_EQ(first.get().probabilities().size(), 1u << 5);
  EXPECT_EQ(second.get().get().probabilities().size(), 1u << 5);
  EXPECT_EQ(service.stats().jobs_rejected, 0u);
}

TEST(CutServiceOverload, ExpiredDeadlineRejectsBeforeEnqueueing) {
  backend::StatevectorBackend backend(11);
  auto now = std::make_shared<std::atomic<std::uint64_t>>(1'000'000'000ull);
  CutServiceOptions options;
  options.clock = [now] { return now->load(); };
  CutService service(backend, options);

  const circuit::GoldenAnsatz ansatz = make_ansatz(5, 24);
  CutRequest expired = small_request(ansatz);
  expired.with_deadline_at_ns(999'999'999ull);  // already in the past
  EXPECT_THROW({ auto future = service.submit(expired); }, DeadlineExceeded);
  EXPECT_EQ(service.stats().jobs_submitted, 0u);

  // The same absolute deadline in the future is honored normally.
  CutRequest live = small_request(ansatz);
  live.with_deadline_at_ns(now->load() + 60'000'000'000ull);
  EXPECT_EQ(service.run(live).probabilities().size(), 1u << 5);
}

// ---- Load shedding -----------------------------------------------------------

TEST(CutServiceOverload, ShedsOnlyOptedInJobsPastTheWatermark) {
  backend::StatevectorBackend inner(11);
  FaultPlan plan;
  plan.hang_rate = 1.0;
  FaultInjectingBackend backend(inner, plan);

  parallel::ThreadPool pool(2);
  CutServiceOptions options;
  options.pool = &pool;
  options.sleeper = noop_sleeper();
  options.admission.shed_watermark_jobs = 1;
  telemetry::MetricsRegistry metrics;
  options.metrics = &metrics;
  CutService service(backend, options);

  const circuit::GoldenAnsatz ansatz = make_ansatz(5, 25);

  // Wedge the first job in the backend so the next two are admitted above
  // the watermark. Sampled mode: the shed halves the shot knob.
  CutRequest blocker(ansatz.circuit);
  blocker.with_cut(ansatz.cut).with_shots(64).with_seed(1);
  std::future<cutting::CutResponse> first = service.submit(blocker);

  CutRequest opted(ansatz.circuit);
  opted.with_cut(ansatz.cut).with_shots(1000).with_seed(2);
  opted.with_load_shed(LoadShedPolicy{0.5, 1.0});
  std::future<cutting::CutResponse> shed = service.submit(opted);

  CutRequest not_opted(ansatz.circuit);
  not_opted.with_cut(ansatz.cut).with_shots(1000).with_seed(3);
  std::future<cutting::CutResponse> unshedded = service.submit(not_opted);

  backend.release_hangs();

  const cutting::CutResponse first_response = first.get();
  EXPECT_FALSE(first_response.degradation.has_value());  // admitted below watermark

  const cutting::CutResponse shed_response = shed.get();
  ASSERT_TRUE(shed_response.degradation.has_value());
  EXPECT_TRUE(shed_response.degradation->load_shed);
  EXPECT_TRUE(shed_response.degradation->degraded());
  EXPECT_DOUBLE_EQ(shed_response.degradation->shot_fraction, 0.5);
  EXPECT_DOUBLE_EQ(shed_response.degradation->sampling_inflation, 1.0 / std::sqrt(0.5));
  EXPECT_EQ(shed_response.data.shots_per_variant, 500u);
  EXPECT_EQ(shed_response.degradation->shots_shed, 9u * 500u);
  EXPECT_EQ(shed_response.degradation->terms_dropped, 0u);  // no variant was lost

  // Not opted in: never silently degraded, full shots served.
  const cutting::CutResponse unshedded_response = unshedded.get();
  EXPECT_FALSE(unshedded_response.degradation.has_value());
  EXPECT_EQ(unshedded_response.data.shots_per_variant, 1000u);

  EXPECT_EQ(service.stats().jobs_shed, 1u);
}

TEST(CutServiceOverload, ShedReportsLoosenedGoldenToleranceAndMass) {
  backend::StatevectorBackend inner(11);
  FaultPlan plan;
  plan.hang_rate = 1.0;
  FaultInjectingBackend backend(inner, plan);

  parallel::ThreadPool pool(2);
  CutServiceOptions options;
  options.pool = &pool;
  options.sleeper = noop_sleeper();
  options.admission.shed_watermark_jobs = 1;
  CutService service(backend, options);

  const circuit::GoldenAnsatz ansatz = make_ansatz(5, 26);
  std::future<cutting::CutResponse> first = service.submit(small_request(ansatz, 1));

  CutRequest opted = small_request(ansatz, 2);
  opted.with_golden(GoldenMode::DetectExact);
  opted.options.golden_tol = 1e-9;
  opted.with_load_shed(LoadShedPolicy{1.0, 1e3});
  std::future<cutting::CutResponse> shed = service.submit(opted);

  backend.release_hangs();
  (void)first.get();

  const cutting::CutResponse response = shed.get();
  ASSERT_TRUE(response.degradation.has_value());
  EXPECT_TRUE(response.degradation->load_shed);
  EXPECT_DOUBLE_EQ(response.degradation->golden_tol_applied, 1e-6);
  // The designed golden basis passes even the tight test, so the loosened
  // detection neglects at least as much; the neglected mass is the bound on
  // what it may have cost (tiny here: the ansatz's violations are ~0).
  EXPECT_GE(response.degradation->error_bound, 0.0);
  EXPECT_LT(response.degradation->error_bound, 1e-3);
}

// ---- Fairness through the service --------------------------------------------

TEST(CutServiceOverload, TenantsAndPrioritiesShapeEffectiveWeight) {
  EXPECT_EQ(priority_multiplier(PriorityClass::Interactive), 4u);
  EXPECT_EQ(priority_multiplier(PriorityClass::Standard), 2u);
  EXPECT_EQ(priority_multiplier(PriorityClass::Batch), 1u);

  const circuit::GoldenAnsatz ansatz = make_ansatz(4, 31);
  CutRequest request = small_request(ansatz);
  request.with_tenant("acme", 3).with_priority(PriorityClass::Batch);
  EXPECT_EQ(tenant_dispatch_key(request), "acme/batch");
  EXPECT_EQ(request.tenant_weight, 3u);

  CutRequest anonymous = small_request(ansatz);
  EXPECT_EQ(tenant_dispatch_key(anonymous), "/standard");

  CutRequest invalid = small_request(ansatz);
  invalid.tenant_weight = 0;
  EXPECT_THROW(cutting::validate(invalid), Error);

  CutRequest bad_shed = small_request(ansatz);
  bad_shed.with_load_shed(LoadShedPolicy{0.0, 1.0});
  EXPECT_THROW(cutting::validate(bad_shed), Error);
  bad_shed.with_load_shed(LoadShedPolicy{0.5, 0.5});
  EXPECT_THROW(cutting::validate(bad_shed), Error);
}

TEST(CutServiceOverload, FairSchedulingKeepsResultsBitForBit) {
  // Two tenants' jobs racing through the weighted dispatcher must produce
  // responses bit-for-bit identical to the same requests served alone on an
  // idle service: the dispatcher reorders execution, and seed streams are
  // per variant, so order is invisible in the results.
  backend::StatevectorBackend backend(11);
  const circuit::GoldenAnsatz ansatz = make_ansatz(6, 32);

  auto request_for = [&](int i, const std::string& tenant, std::uint32_t weight) {
    CutRequest request(ansatz.circuit);
    request.with_cut(ansatz.cut).with_shots(256).with_seed(1000 + 17 * i);
    request.with_tenant(tenant, weight);
    return request;
  };

  std::vector<std::vector<double>> reference;
  {
    backend::StatevectorBackend solo_backend(11);
    CutServiceOptions options;
    options.cache_capacity = 0;
    CutService solo(solo_backend, options);
    for (int i = 0; i < 6; ++i) {
      reference.push_back(
          solo.run(request_for(i, i % 2 == 0 ? "heavy" : "light", 1)).probabilities());
    }
  }

  parallel::ThreadPool pool(2);
  CutServiceOptions options;
  options.pool = &pool;
  options.cache_capacity = 0;
  CutService service(backend, options);
  std::vector<std::future<cutting::CutResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(
        service.submit(request_for(i, i % 2 == 0 ? "heavy" : "light", i % 2 == 0 ? 3 : 1)));
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().probabilities(),
              reference[static_cast<std::size_t>(i)])
        << "job " << i << " changed under contention";
  }
}

// ---- Soak --------------------------------------------------------------------

TEST(CutServiceOverload, SoakAtFourTimesCapacityResolvesEveryFuture) {
  backend::StatevectorBackend inner(11);
  // Every variant call drags for ~1ms so jobs hold their admission slots
  // long enough for the submitters to pile up against the watermark.
  FaultPlan plan;
  plan.slowdown_rate = 1.0;
  plan.slowdown_seconds = 1e-3;
  FaultInjectingBackend backend(inner, plan);

  parallel::ThreadPool pool(4);
  CutServiceOptions options;
  options.pool = &pool;
  options.cache_capacity = 0;  // cache hits would skip the slow backend
  options.admission.max_queued_jobs = 2;  // 8 synchronous submitters = 4x this
  options.admission.shed_watermark_jobs = 1;
  telemetry::MetricsRegistry metrics;
  options.metrics = &metrics;
  CutService service(backend, options);

  const circuit::GoldenAnsatz ansatz = make_ansatz(5, 41);
  const struct {
    const char* tenant;
    std::uint32_t weight;
    PriorityClass priority;
  } tenants[3] = {{"alpha", 3, PriorityClass::Interactive},
                  {"beta", 2, PriorityClass::Standard},
                  {"gamma", 1, PriorityClass::Batch}};

  constexpr int kThreads = 8;
  constexpr int kJobsPerThread = 6;
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> degraded{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      const auto& tenant = tenants[t % 3];
      for (int i = 0; i < kJobsPerThread; ++i) {
        CutRequest request(ansatz.circuit);
        request.with_cut(ansatz.cut).with_exact().with_seed(
            static_cast<std::uint64_t>(t * 1000 + i));
        request.with_tenant(tenant.tenant, tenant.weight).with_priority(tenant.priority);
        if (i % 2 == 0) request.with_load_shed();  // half the jobs allow shedding
        for (;;) {
          try {
            const cutting::CutResponse response = service.run(request);
            EXPECT_EQ(response.probabilities().size(), 1u << 5);
            if (response.degradation.has_value() && response.degradation->load_shed) {
              degraded.fetch_add(1);
            }
            served.fetch_add(1);
            break;
          } catch (const ResourceExhausted& e) {
            // The documented client contract: typed rejection, back off,
            // resubmit. The hint is bounded so the loop always progresses.
            rejected.fetch_add(1);
            EXPECT_GT(e.details().retry_after_seconds, 0.0);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  service.wait_idle();

  EXPECT_EQ(served.load(), static_cast<std::uint64_t>(kThreads * kJobsPerThread));
  EXPECT_GT(rejected.load(), 0u) << "soak never hit the admission limit";

  const CutServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_completed, served.load());
  EXPECT_EQ(stats.jobs_failed, 0u);
  EXPECT_EQ(stats.jobs_rejected, rejected.load());
  EXPECT_EQ(stats.jobs_shed, degraded.load());

  // Everything drained: no active jobs, no queued jobs, no staged tasks.
  const telemetry::MetricsSnapshot snapshot = metrics.snapshot();
  const telemetry::GaugeSample* active = snapshot.find_gauge("service.active_jobs");
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->value, 0);
  const telemetry::GaugeSample* queue = snapshot.find_gauge("service.queue_depth");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->value, 0);
  const telemetry::GaugeSample* staged = snapshot.find_gauge("service.staged_tasks");
  ASSERT_NE(staged, nullptr);
  EXPECT_EQ(staged->value, 0);

  // Every admission was measured: the per-class wait histograms cover all
  // served jobs, and dispatches flowed through the fair scheduler.
  std::uint64_t waits = 0;
  for (const char* name :
       {"service.tenant_wait_seconds.interactive", "service.tenant_wait_seconds.standard",
        "service.tenant_wait_seconds.batch"}) {
    const telemetry::HistogramSample* wait = snapshot.find_histogram(name);
    ASSERT_NE(wait, nullptr) << name;
    EXPECT_GT(wait->count, 0u) << name;
    waits += wait->count;
  }
  EXPECT_EQ(waits, served.load());
  EXPECT_GT(snapshot.counter_value("service.fair_dispatches"), 0u);
}

}  // namespace
}  // namespace qcut::service
