// Fault-tolerant execution: deterministic fault injection, retry with
// backoff, job deadlines, cancellation, and neglect-based graceful
// degradation.
//
// The chaos determinism gate: a seeded FaultPlan injecting transient
// faults, combined with the service's retry policy, must produce
// CutResponses BIT-FOR-BIT identical to a fault-free run — under every
// GoldenMode. Permanent faults under OnVariantFailure::Neglect must
// complete with a degradation report whose error bound covers the observed
// reconstruction error on exact-reference circuits.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
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
#include "common/retry.hpp"
#include "cutting/basis.hpp"
#include "cutting/fragment_executor.hpp"
#include "cutting/golden.hpp"
#include "service/cut_service.hpp"
#include "service/scheduler.hpp"
#include "support/run_cut.hpp"

namespace qcut::service {
namespace {

using backend::FaultInjectingBackend;
using backend::FaultKind;
using backend::FaultPlan;
using circuit::WirePoint;
using cutting::CutRunOptions;
using cutting::CutResponse;
using cutting::FragmentVariantKey;
using cutting::GoldenMode;
using cutting::NeglectSpec;

circuit::GoldenAnsatz make_ansatz(int n, std::uint64_t seed) {
  Rng rng(seed);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = n;
  return circuit::make_golden_ansatz(options, rng);
}

Sleeper noop_sleeper() {
  return [](double) {};
}

/// Seed stream of one variant, exactly as the service assigns it.
std::uint64_t variant_stream(const circuit::Circuit& circuit, WirePoint cut,
                             std::uint64_t base, int fragment, FragmentVariantKey key) {
  const std::vector<std::vector<WirePoint>> boundaries{{cut}};
  const cutting::FragmentGraph graph = cutting::make_fragment_chain(circuit, boundaries);
  return base + cutting::fragment_seed_offset(fragment) +
         cutting::variant_seed_index(graph, fragment, key);
}

double l1_distance(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double total = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    total += std::abs(a[i] - b[i]);
  }
  return total;
}

// ---- FaultPlan ---------------------------------------------------------------

TEST(FaultPlan, IsDeterministicPerStreamAndAttempt) {
  FaultPlan plan;
  plan.seed = 42;
  plan.transient_rate = 0.5;
  plan.transient_attempt_limit = 2;
  plan.permanent_rate = 0.1;

  bool any_transient = false;
  for (std::uint64_t stream = 0; stream < 200; ++stream) {
    for (std::uint64_t attempt = 0; attempt < 3; ++attempt) {
      const FaultKind first = plan.fault_for(stream, attempt);
      EXPECT_EQ(first, plan.fault_for(stream, attempt));  // pure function
      if (first == FaultKind::Transient) any_transient = true;
      if (attempt >= plan.transient_attempt_limit) {
        EXPECT_NE(first, FaultKind::Transient)
            << "transient faults must clear past the attempt limit";
      }
    }
  }
  EXPECT_TRUE(any_transient);
}

TEST(FaultPlan, PermanentStreamsFaultEveryAttempt) {
  FaultPlan plan;
  plan.transient_rate = 1.0;
  plan.permanent_streams = {7};
  for (std::uint64_t attempt = 0; attempt < 4; ++attempt) {
    EXPECT_EQ(plan.fault_for(7, attempt), FaultKind::Permanent);
  }
  EXPECT_EQ(plan.fault_for(8, 0), FaultKind::Transient);
}

TEST(FaultPlan, FoldsIntoBackendIdentity) {
  backend::StatevectorBackend inner(11);
  FaultPlan inactive;
  FaultInjectingBackend transparent(inner, inactive);
  EXPECT_EQ(transparent.identity(), inner.identity());

  FaultPlan plan;
  plan.seed = 3;
  plan.transient_rate = 0.25;
  FaultInjectingBackend faulty(inner, plan);
  EXPECT_NE(faulty.identity(), inner.identity());
  EXPECT_NE(faulty.identity().find(inner.identity()), std::string::npos);
}

// ---- Retry policy ------------------------------------------------------------

TEST(RetryPolicy, BackoffIsExponentialAndClamped) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.010;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.050;
  policy.jitter_fraction = 0.0;

  EXPECT_DOUBLE_EQ(backoff_seconds(policy, 1, 0), 0.010);
  EXPECT_DOUBLE_EQ(backoff_seconds(policy, 2, 0), 0.020);
  EXPECT_DOUBLE_EQ(backoff_seconds(policy, 3, 0), 0.040);
  EXPECT_DOUBLE_EQ(backoff_seconds(policy, 4, 0), 0.050);  // clamped
  EXPECT_DOUBLE_EQ(backoff_seconds(policy, 100, 0), 0.050);
}

TEST(RetryPolicy, JitterIsSeededDeterministicAndBounded) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.010;
  policy.jitter_fraction = 0.5;
  policy.jitter_seed = 99;

  for (std::uint64_t stream = 0; stream < 50; ++stream) {
    for (std::size_t failures = 1; failures <= 3; ++failures) {
      const double delay = backoff_seconds(policy, failures, stream);
      EXPECT_DOUBLE_EQ(delay, backoff_seconds(policy, failures, stream));
      const double nominal =
          std::min(policy.initial_backoff_seconds *
                       std::pow(policy.backoff_multiplier,
                                static_cast<double>(failures - 1)),
                   policy.max_backoff_seconds);
      EXPECT_GE(delay, nominal * (1.0 - policy.jitter_fraction) - 1e-12);
      EXPECT_LE(delay, nominal * (1.0 + policy.jitter_fraction) + 1e-12);
    }
  }
}

// ---- Scheduler failure propagation (regression) ------------------------------

TEST(VariantScheduler, FailureCallbackCanReclaimTheKeyFresh) {
  telemetry::MetricsRegistry registry;
  FragmentResultCache cache(16, &registry);
  VariantScheduler scheduler(cache, &registry);
  const Hash128 key{1, 2};

  // First request claims the key.
  bool launched_first = false;
  std::exception_ptr seen_error;
  bool reclaim_launched = false;
  CachedDistribution reclaimed_result;
  scheduler.request_batch(
      {{key,
        [&](CachedDistribution, std::exception_ptr error, VariantSource) {
          seen_error = error;
          // Regression: the failed key must already be evicted when this
          // callback runs, so re-requesting it claims a FRESH execution
          // instead of joining the dead one.
          scheduler.request_batch(
              {{key,
                [&](CachedDistribution result, std::exception_ptr, VariantSource) {
                  reclaimed_result = std::move(result);
                }}},
              [&](const std::vector<std::size_t>& to_launch) {
                reclaim_launched = to_launch.size() == 1;
              });
        }}},
      [&](const std::vector<std::size_t>& to_launch) {
        launched_first = to_launch.size() == 1;
      });
  ASSERT_TRUE(launched_first);

  scheduler.complete(key, nullptr,
                     std::make_exception_ptr(TransientError("injected")));
  EXPECT_NE(seen_error, nullptr);
  ASSERT_TRUE(reclaim_launched);
  EXPECT_EQ(reclaimed_result, nullptr);  // still pending, not poisoned

  // The retried execution succeeds and reaches the new waiter.
  auto dist = std::make_shared<const std::vector<double>>(std::vector<double>{1.0});
  scheduler.complete(key, dist, nullptr);
  ASSERT_NE(reclaimed_result, nullptr);
  EXPECT_EQ(*reclaimed_result, std::vector<double>{1.0});
  EXPECT_EQ(scheduler.stats().failures, 1u);
}

TEST(VariantScheduler, GroupFailureEvictsEveryKeyAtomically) {
  telemetry::MetricsRegistry registry;
  FragmentResultCache cache(16, &registry);
  VariantScheduler scheduler(cache, &registry);
  const std::vector<Hash128> keys{{1, 1}, {2, 2}, {3, 3}};

  int errors_seen = 0;
  std::vector<VariantScheduler::BatchItem> items;
  for (const Hash128& key : keys) {
    items.push_back({key, [&](CachedDistribution, std::exception_ptr error, VariantSource) {
                       if (error != nullptr) ++errors_seen;
                     }});
  }
  std::size_t launched = 0;
  scheduler.request_batch(std::move(items),
                          [&](const std::vector<std::size_t>& t) { launched = t.size(); });
  ASSERT_EQ(launched, keys.size());

  scheduler.complete_failed(keys, std::make_exception_ptr(TransientError("batch died")));
  EXPECT_EQ(errors_seen, 3);
  EXPECT_EQ(scheduler.stats().failures, 3u);

  // No key is stranded: a follow-up batch claims all three fresh.
  std::vector<VariantScheduler::BatchItem> again;
  for (const Hash128& key : keys) {
    again.push_back({key, [](CachedDistribution, std::exception_ptr, VariantSource) {}});
  }
  std::size_t relaunched = 0;
  scheduler.request_batch(std::move(again),
                          [&](const std::vector<std::size_t>& t) { relaunched = t.size(); });
  EXPECT_EQ(relaunched, keys.size());
}

// ---- Chaos determinism gate --------------------------------------------------

TEST(FaultTolerantService, TransientFaultsWithRetryAreBitForBitFaultFree) {
  const circuit::GoldenAnsatz ansatz = make_ansatz(5, 2023);
  const std::vector<WirePoint> cuts{ansatz.cut};

  NeglectSpec golden_spec(1);
  golden_spec.neglect_string({ansatz.golden_basis});

  const GoldenMode modes[] = {GoldenMode::None, GoldenMode::Provided,
                              GoldenMode::DetectExact, GoldenMode::DetectOnline};

  std::uint64_t total_transients = 0;
  std::uint64_t total_retries = 0;
  for (const GoldenMode mode : modes) {
    CutRunOptions options;
    options.shots_per_variant = 1500;
    options.golden_mode = mode;
    if (mode == GoldenMode::Provided) options.provided_spec = golden_spec;

    // Fault-free reference.
    backend::StatevectorBackend clean_backend(77);
    telemetry::MetricsRegistry clean_registry;
    CutServiceOptions clean_options;
    clean_options.metrics = &clean_registry;
    CutService clean_service(clean_backend, clean_options);
    const CutResponse reference =
        clean_service.run(make_cut_request(ansatz.circuit, cuts, options));

    // Chaos run: seeded transient faults, deterministic retry, no sleeping.
    backend::StatevectorBackend inner(77);
    FaultPlan plan;
    plan.seed = 0xFEED;
    plan.transient_rate = 0.5;
    plan.transient_attempt_limit = 1;
    FaultInjectingBackend faulty(inner, plan);

    telemetry::MetricsRegistry chaos_registry;
    CutServiceOptions chaos_options;
    chaos_options.metrics = &chaos_registry;
    chaos_options.retry.max_attempts = 3;
    chaos_options.retry.jitter_seed = 5;
    chaos_options.sleeper = noop_sleeper();
    CutService chaos_service(faulty, chaos_options);
    const CutResponse chaotic =
        chaos_service.run(make_cut_request(ansatz.circuit, cuts, options));

    // Bit-for-bit: the retried batches reproduce the fault-free results
    // exactly, so reconstruction (and detection, under the Detect modes)
    // cannot tell the chaos run from the clean one.
    EXPECT_EQ(chaotic.reconstruction.raw_probabilities,
              reference.reconstruction.raw_probabilities)
        << "mode " << static_cast<int>(mode);
    EXPECT_EQ(chaotic.probabilities(), reference.probabilities());
    EXPECT_FALSE(chaotic.degradation.has_value());

    total_transients += faulty.fault_counts().transient;
    total_retries += chaos_service.stats().telemetry.counter_value("service.retries");
  }
  EXPECT_GT(total_transients, 0u) << "the chaos plan never actually fired";
  EXPECT_GT(total_retries, 0u);
}

TEST(FaultTolerantService, RecordingSleeperObservesDeterministicBackoff) {
  const circuit::GoldenAnsatz ansatz = make_ansatz(4, 5);
  const std::vector<WirePoint> cuts{ansatz.cut};
  CutRunOptions options;
  options.shots_per_variant = 200;

  auto run_once = [&]() {
    backend::StatevectorBackend inner(3);
    FaultPlan plan;
    plan.seed = 21;
    plan.transient_rate = 0.8;
    plan.transient_attempt_limit = 1;
    FaultInjectingBackend faulty(inner, plan);

    telemetry::MetricsRegistry registry;
    CutServiceOptions service_options;
    service_options.metrics = &registry;
    service_options.retry.max_attempts = 3;
    service_options.retry.jitter_seed = 17;
    auto delays = std::make_shared<std::vector<double>>();
    auto delays_mutex = std::make_shared<std::mutex>();
    service_options.sleeper = [delays, delays_mutex](double seconds) {
      std::lock_guard<std::mutex> lock(*delays_mutex);
      delays->push_back(seconds);
    };
    CutService service(faulty, service_options);
    (void)service.run(make_cut_request(ansatz.circuit, cuts, options));
    std::vector<double> out = *delays;
    std::sort(out.begin(), out.end());
    return out;
  };

  const std::vector<double> first = run_once();
  ASSERT_FALSE(first.empty()) << "no retries happened; raise the fault rate";
  for (const double delay : first) EXPECT_GT(delay, 0.0);
  // Same seeds, same faults, same jitter: the backoff schedule replays.
  EXPECT_EQ(first, run_once());
}

// ---- Permanent failures: Fail policy -----------------------------------------

/// The four golden modes and the Provided spec for the permanent-fault
/// tests on the 5-qubit golden ansatz of seed 31 (one cut).
const GoldenMode kAllModes[] = {GoldenMode::None, GoldenMode::Provided, GoldenMode::DetectExact,
                                GoldenMode::DetectOnline};

CutRunOptions permanent_fault_options(const circuit::GoldenAnsatz& ansatz, GoldenMode mode) {
  CutRunOptions options;
  options.shots_per_variant = 300;
  options.golden_mode = mode;
  if (mode == GoldenMode::Provided) {
    NeglectSpec golden_spec(1);
    golden_spec.neglect_string({ansatz.golden_basis});
    options.provided_spec = golden_spec;
  }
  return options;
}

/// Setting indices of fragment 0 a fault-free run of `options` executes
/// (prep 0: fragment 0 has no incoming boundary). They share one circuit
/// prefix, so the service runs them as one batch.
std::vector<std::uint32_t> executed_fragment0_settings(const circuit::GoldenAnsatz& ansatz,
                                                       const CutRunOptions& options) {
  backend::StatevectorBackend backend(9);
  telemetry::MetricsRegistry registry;
  CutServiceOptions service_options;
  service_options.metrics = &registry;
  CutService service(backend, service_options);
  const std::vector<WirePoint> cuts{ansatz.cut};
  const CutResponse response = service.run(make_cut_request(ansatz.circuit, cuts, options));
  std::vector<std::uint32_t> settings;
  for (std::uint32_t setting = 0; setting < 3; ++setting) {
    if (response.data.fragments[0].variants.count(
            cutting::pack_variant_key(FragmentVariantKey{0, setting})) > 0) {
      settings.push_back(setting);
    }
  }
  return settings;
}

TEST(FaultTolerantService, PermanentFaultFailsJobWithVariantContext) {
  const circuit::GoldenAnsatz ansatz = make_ansatz(5, 31);
  const std::vector<WirePoint> cuts{ansatz.cut};

  for (const GoldenMode mode : kAllModes) {
    const CutRunOptions options = permanent_fault_options(ansatz, mode);
    const std::vector<std::uint32_t> settings = executed_fragment0_settings(ansatz, options);
    ASSERT_GE(settings.size(), 2u) << "fragment 0 must run a batch of several settings";
    if (mode == GoldenMode::None) {
      ASSERT_EQ(settings.size(), 3u);
    }

    // Each of fragment 0's settings in turn fails permanently; everything
    // else is clean. The stream is independent of the golden mode. The
    // failing member's batch is split, so the error names exactly that
    // variant and none of its prefix siblings.
    for (const std::uint32_t setting : settings) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) + ", setting " +
                   std::to_string(setting));
      const FragmentVariantKey target{0, setting};
      backend::StatevectorBackend inner(9);
      FaultPlan plan;
      plan.permanent_streams = {variant_stream(ansatz.circuit, ansatz.cut, 0, 0, target)};
      FaultInjectingBackend faulty(inner, plan);

      telemetry::MetricsRegistry registry;
      CutServiceOptions service_options;
      service_options.metrics = &registry;
      service_options.sleeper = noop_sleeper();
      CutService service(faulty, service_options);

      auto failing = service.submit(make_cut_request(ansatz.circuit, cuts, options));
      try {
        (void)failing.get();
        FAIL() << "expected PermanentError";
      } catch (const PermanentError& e) {
        // S1: the propagated error carries the failing variant's identity and
        // keeps its taxonomy type through the context re-wrap.
        const std::string what = e.what();
        EXPECT_NE(what.find("variant (fragment 0, prep 0, setting " + std::to_string(setting) +
                            ") failed"),
                  std::string::npos)
            << what;
        EXPECT_EQ(what.find("co-failed"), std::string::npos) << what;
        EXPECT_NE(what.find("injected permanent fault"), std::string::npos) << what;
      }

      // No pending key leaks: every in-flight key was drained.
      const CutServiceStats after_failure = service.stats();
      const auto* in_flight = after_failure.telemetry.find_gauge("scheduler.in_flight");
      ASSERT_NE(in_flight, nullptr);
      EXPECT_EQ(in_flight->value, 0);

      // The next job on the SAME service completes normally (a different
      // seed base moves every variant off the permanent stream).
      CutRunOptions healthy = options;
      healthy.seed_stream_base = 424242;
      const CutResponse response = service.run(make_cut_request(ansatz.circuit, cuts, healthy));
      const std::vector<double> probs = response.probabilities();
      double total = 0.0;
      for (double p : probs) total += p;
      EXPECT_NEAR(total, 1.0, 1e-9);
      EXPECT_EQ(service.stats().jobs_failed, 1u);
      EXPECT_EQ(service.stats().jobs_completed, 1u);
    }
  }
}

TEST(FaultTolerantService, NeglectDropsOnlyTheFailingMemberOfABatch) {
  const circuit::GoldenAnsatz ansatz = make_ansatz(5, 31);
  const std::vector<WirePoint> cuts{ansatz.cut};

  for (const GoldenMode mode : kAllModes) {
    const CutRunOptions options = permanent_fault_options(ansatz, mode);
    const std::vector<std::uint32_t> settings = executed_fragment0_settings(ansatz, options);
    ASSERT_GE(settings.size(), 2u);

    for (const std::uint32_t setting : settings) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) + ", setting " +
                   std::to_string(setting));
      const FragmentVariantKey target{0, setting};
      backend::StatevectorBackend inner(9);
      FaultPlan plan;
      plan.permanent_streams = {variant_stream(ansatz.circuit, ansatz.cut, 0, 0, target)};
      FaultInjectingBackend faulty(inner, plan);

      telemetry::MetricsRegistry registry;
      CutServiceOptions service_options;
      service_options.metrics = &registry;
      service_options.sleeper = noop_sleeper();
      CutService service(faulty, service_options);

      cutting::CutRequest request = make_cut_request(ansatz.circuit, cuts, options);
      request.with_neglect_failures();
      const CutResponse degraded = service.run(request);
      ASSERT_TRUE(degraded.degradation.has_value());
      const cutting::DegradationReport& report = *degraded.degradation;
      ASSERT_EQ(report.neglected_variants.size(), 1u);
      EXPECT_EQ(report.neglected_variants[0].fragment, 0);
      EXPECT_EQ(report.neglected_variants[0].key, target);

      // Resubmitted, only the failing variant executes again (failures never
      // enter the cache); every variant its siblings served is a cache hit.
      const SchedulerStats before = service.stats().scheduler;
      const CutResponse again = service.run(request);
      const SchedulerStats after = service.stats().scheduler;
      ASSERT_TRUE(again.degradation.has_value());
      EXPECT_EQ(again.degradation->neglected_variants.size(), 1u);
      EXPECT_EQ(after.executions - before.executions, 1u);
      EXPECT_EQ(after.cache_hits - before.cache_hits, after.requests - before.requests - 1);
      EXPECT_EQ(again.reconstruction.raw_probabilities, degraded.reconstruction.raw_probabilities);
      EXPECT_EQ(service.stats().jobs_completed, 2u);
    }
  }
}

// ---- Graceful degradation: Neglect policy ------------------------------------

TEST(FaultTolerantService, NeglectedVariantDegradesWithinReportedBound) {
  const circuit::GoldenAnsatz ansatz = make_ansatz(5, 63);
  const std::vector<WirePoint> cuts{ansatz.cut};
  CutRunOptions options;
  options.exact = true;  // exact reference: the only error is the dropped terms

  // Fault-free exact reference.
  backend::StatevectorBackend clean_backend(1);
  telemetry::MetricsRegistry clean_registry;
  CutServiceOptions clean_options;
  clean_options.metrics = &clean_registry;
  CutService clean_service(clean_backend, clean_options);
  const CutResponse reference =
      clean_service.run(make_cut_request(ansatz.circuit, cuts, options));

  // Fragment 0's Z-setting variant fails permanently; under Neglect the job
  // completes with the strings that need it (Z, and I, which is measured in
  // the Z setting) dropped from reconstruction. Z is the right target: on
  // this real-amplitude ansatz the X and Y terms vanish identically, so
  // only a Z drop visibly moves the reconstruction.
  const FragmentVariantKey target{0, 2};
  backend::StatevectorBackend inner(1);
  FaultPlan plan;
  plan.permanent_streams = {variant_stream(ansatz.circuit, ansatz.cut, 0, 0, target)};
  FaultInjectingBackend faulty(inner, plan);

  telemetry::MetricsRegistry registry;
  CutServiceOptions service_options;
  service_options.metrics = &registry;
  service_options.sleeper = noop_sleeper();
  CutService service(faulty, service_options);

  cutting::CutRequest request = make_cut_request(ansatz.circuit, cuts, options);
  request.with_neglect_failures();
  const CutResponse degraded = service.run(request);

  ASSERT_TRUE(degraded.degradation.has_value());
  const cutting::DegradationReport& report = *degraded.degradation;
  ASSERT_EQ(report.neglected_variants.size(), 1u);
  EXPECT_EQ(report.neglected_variants[0].fragment, 0);
  EXPECT_EQ(report.neglected_variants[0].key.setting_index, target.setting_index);
  EXPECT_NE(report.neglected_variants[0].error.find("injected permanent fault"),
            std::string::npos);
  ASSERT_EQ(report.boundaries.size(), 1u);
  EXPECT_EQ(report.boundaries[0].boundary, 0);
  // The Z setting serves the Z and I basis strings at a single cut.
  EXPECT_EQ(report.boundaries[0].strings_dropped, 2u);
  EXPECT_EQ(report.terms_dropped, 2u);
  EXPECT_GT(report.error_bound, 0.0);

  // The degradation bound covers the observed reconstruction error.
  const double observed = l1_distance(reference.reconstruction.raw_probabilities,
                                      degraded.reconstruction.raw_probabilities);
  EXPECT_GT(observed, 0.0) << "dropping the X term should move the reconstruction";
  EXPECT_LE(observed, report.error_bound + 1e-9);

  EXPECT_EQ(service.stats().telemetry.counter_value("service.variants_neglected"), 1u);
  EXPECT_EQ(service.stats().jobs_completed, 1u);
  EXPECT_EQ(service.stats().jobs_failed, 0u);
}

// ---- Deadlines ---------------------------------------------------------------

TEST(FaultTolerantService, DeadlineExceededOnInjectedClock) {
  const circuit::GoldenAnsatz ansatz = make_ansatz(4, 8);
  const std::vector<WirePoint> cuts{ansatz.cut};
  CutRunOptions options;
  options.shots_per_variant = 100;

  backend::StatevectorBackend backend(2);
  telemetry::MetricsRegistry registry;
  CutServiceOptions service_options;
  service_options.metrics = &registry;
  // Injected clock: the submission reads 0; every later read is past any
  // reasonable deadline, so the job stops at its first wave boundary.
  auto calls = std::make_shared<std::atomic<std::uint64_t>>(0);
  service_options.clock = [calls]() -> std::uint64_t {
    return calls->fetch_add(1) == 0 ? 0 : 3'000'000'000ULL;
  };
  CutService service(backend, service_options);

  cutting::CutRequest request = make_cut_request(ansatz.circuit, cuts, options);
  request.with_deadline(1.5);
  auto future = service.submit(request);
  EXPECT_THROW((void)future.get(), DeadlineExceeded);
  EXPECT_EQ(service.stats().telemetry.counter_value("service.deadline_exceeded"), 1u);

  // A job without a deadline on the same service is unaffected.
  const CutResponse response =
      service.run(make_cut_request(ansatz.circuit, cuts, options));
  EXPECT_FALSE(response.probabilities().empty());
  const CutServiceStats after = service.stats();
  const auto* in_flight = after.telemetry.find_gauge("scheduler.in_flight");
  ASSERT_NE(in_flight, nullptr);
  EXPECT_EQ(in_flight->value, 0);
}

/// A non-finite deadline is a malformed request; a finite one past the
/// clock's 2^64 ns range, up to the largest double, is no deadline at all.
TEST(FaultTolerantService, DeadlineBeyondTheClockRangeMeansNoDeadline) {
  const circuit::GoldenAnsatz ansatz = make_ansatz(4, 9);
  const std::vector<WirePoint> cuts{ansatz.cut};
  CutRunOptions options;
  options.shots_per_variant = 100;

  backend::StatevectorBackend backend(2);
  telemetry::MetricsRegistry registry;
  CutServiceOptions service_options;
  service_options.metrics = &registry;
  CutService service(backend, service_options);

  cutting::CutRequest infinite = make_cut_request(ansatz.circuit, cuts, options);
  infinite.with_deadline(std::numeric_limits<double>::infinity());
  EXPECT_THROW((void)service.submit(infinite), Error);
  EXPECT_EQ(service.stats().jobs_submitted, 0u);

  const CutResponse reference = service.run(make_cut_request(ansatz.circuit, cuts, options));
  for (const double seconds : {1e300, std::numeric_limits<double>::max()}) {
    SCOPED_TRACE(seconds);
    cutting::CutRequest far = make_cut_request(ansatz.circuit, cuts, options);
    far.with_deadline(seconds);
    EXPECT_EQ(service.run(far).reconstruction.raw_probabilities,
              reference.reconstruction.raw_probabilities);
  }
  EXPECT_EQ(service.stats().telemetry.counter_value("service.deadline_exceeded"), 0u);
}

/// Near the end of the clock's range a deadline that would pass 2^64 ns
/// saturates into no deadline instead of wrapping to an instant already past.
TEST(FaultTolerantService, DeadlineSaturatesAtTheEndOfTheClock) {
  const circuit::GoldenAnsatz ansatz = make_ansatz(4, 10);
  const std::vector<WirePoint> cuts{ansatz.cut};
  CutRunOptions options;
  options.shots_per_variant = 100;

  backend::StatevectorBackend backend(2);
  telemetry::MetricsRegistry registry;
  CutServiceOptions service_options;
  service_options.metrics = &registry;
  constexpr std::uint64_t kNearTheEnd = std::numeric_limits<std::uint64_t>::max() - 500'000'000;
  service_options.clock = [] { return kNearTheEnd; };
  CutService service(backend, service_options);

  for (const double seconds : {1.0, 1e300}) {
    SCOPED_TRACE(seconds);
    cutting::CutRequest request = make_cut_request(ansatz.circuit, cuts, options);
    request.with_deadline(seconds);
    EXPECT_FALSE(service.run(request).probabilities().empty());
  }
  EXPECT_EQ(service.stats().telemetry.counter_value("service.deadline_exceeded"), 0u);
}

// ---- Cancellation ------------------------------------------------------------

TEST(FaultTolerantService, CancelDuringHangingBackendCall) {
  const circuit::GoldenAnsatz ansatz = make_ansatz(4, 12);
  const std::vector<WirePoint> cuts{ansatz.cut};
  CutRunOptions options;
  options.shots_per_variant = 100;

  backend::StatevectorBackend inner(4);
  FaultPlan plan;
  plan.hang_rate = 1.0;  // every stream's first call blocks until released
  FaultInjectingBackend faulty(inner, plan);

  telemetry::MetricsRegistry registry;
  CutServiceOptions service_options;
  service_options.metrics = &registry;
  service_options.retry.max_attempts = 1;  // an aborted hang is terminal
  service_options.sleeper = noop_sleeper();
  CutService service(faulty, service_options);

  CutService::SubmittedJob job =
      service.submit_job(make_cut_request(ansatz.circuit, cuts, options));

  // Wait until at least one backend call is stuck in the hang fault.
  while (faulty.hanging() == 0) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(service.cancel(job.id));
  EXPECT_FALSE(service.cancel(job.id + 1000));  // unknown id

  // Model operator intervention: abort the stuck execution. The wave
  // drains, and the cancellation wins at the wave boundary.
  faulty.abort_hangs();
  EXPECT_THROW((void)job.future.get(), CancelledError);
  EXPECT_EQ(service.stats().telemetry.counter_value("service.cancelled"), 1u);

  // The backend recovers (hangs released); the next job completes and no
  // scheduler key was stranded by the cancelled one.
  faulty.reset_fault_state();
  faulty.release_hangs();
  const CutResponse response =
      service.run(make_cut_request(ansatz.circuit, cuts, options));
  EXPECT_FALSE(response.probabilities().empty());
  const CutServiceStats after = service.stats();
  const auto* in_flight = after.telemetry.find_gauge("scheduler.in_flight");
  ASSERT_NE(in_flight, nullptr);
  EXPECT_EQ(in_flight->value, 0);
  EXPECT_EQ(after.jobs_completed, 1u);
}

/// Cancelling a job must not fail another job that joined its variants in
/// flight: the shared groups still run for the joiner.
TEST(FaultTolerantService, CancelKeepsTheVariantsATwinJoined) {
  const circuit::GoldenAnsatz ansatz = make_ansatz(4, 13);
  const std::vector<WirePoint> cuts{ansatz.cut};
  CutRunOptions options;
  options.shots_per_variant = 100;

  backend::StatevectorBackend clean(4);
  const CutResponse reference = run_cut(ansatz.circuit, cuts, clean, options);

  backend::StatevectorBackend inner(4);
  FaultPlan plan;
  plan.hang_rate = 1.0;  // every stream's first call blocks until released
  FaultInjectingBackend faulty(inner, plan);

  parallel::ThreadPool pool(1);
  telemetry::MetricsRegistry registry;
  CutServiceOptions service_options;
  service_options.pool = &pool;
  service_options.metrics = &registry;
  service_options.retry.max_attempts = 1;
  service_options.sleeper = noop_sleeper();
  CutService service(faulty, service_options);

  const auto wait_for = [&](const auto& done, const char* what) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!done()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << what;
      std::this_thread::yield();
    }
  };

  // A blocker holds the only worker, so the launcher's groups wait in the
  // dispatcher while its twin joins every one of their variants.
  CutRunOptions other_seeds = options;
  other_seeds.seed_stream_base = 1u << 20;
  auto blocker = service.submit(make_cut_request(ansatz.circuit, cuts, other_seeds));
  wait_for([&] { return faulty.hanging() > 0; }, "the blocker never reached the backend");
  CutService::SubmittedJob launcher =
      service.submit_job(make_cut_request(ansatz.circuit, cuts, options));
  wait_for([&] { return service.stats().scheduler.requests == 18; },
           "the launcher never requested its variants");
  auto twin = service.submit(make_cut_request(ansatz.circuit, cuts, options));
  wait_for([&] { return service.stats().scheduler.dedup_joins == 9; },
           "the twin never joined the launcher's variants");

  EXPECT_TRUE(service.cancel(launcher.id));
  faulty.release_hangs();
  EXPECT_THROW((void)launcher.future.get(), CancelledError);
  EXPECT_EQ(twin.get().reconstruction.raw_probabilities,
            reference.reconstruction.raw_probabilities);
  EXPECT_FALSE(blocker.get().probabilities().empty());
  EXPECT_EQ(service.stats().scheduler.executions, 18u);
}

TEST(FaultTolerantService, CancelUnknownJobReturnsFalse) {
  backend::StatevectorBackend backend(5);
  telemetry::MetricsRegistry registry;
  CutServiceOptions service_options;
  service_options.metrics = &registry;
  CutService service(backend, service_options);
  EXPECT_FALSE(service.cancel(123456));
}

}  // namespace
}  // namespace qcut::service
