// Differential stress: a CutService on a 4-worker pool, several scheduler
// threads and three client threads submitting in bursts must serve every
// completed request bit for bit as a 1-worker-pool service (one scheduler
// thread) serves it alone - with a clean backend and again under transient
// faults absorbed by retries. The mix covers every request kind: an
// explicit cut with a provided spec, AutoPlan with online detection,
// AutoChainPlan with exact detection, a 3-fragment chain with online
// detection under a total shot budget, an observable with the bootstrap,
// and exact mode; two tenants; identical resubmissions (cache hits and
// in-flight joins); and a few cancellations and deadlines, which may only
// end a job with their own typed error.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "backend/fault_injection.hpp"
#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "common/error.hpp"
#include "service/cut_service.hpp"

namespace qcut::service {
namespace {

using circuit::WirePoint;
using cutting::CutRequest;
using cutting::CutResponse;
using cutting::GoldenMode;

constexpr int kClients = 3;
constexpr int kBursts = 3;
constexpr int kBurstSize = 7;
constexpr int kKinds = 6;

circuit::GoldenAnsatz make_ansatz(int n, std::uint64_t seed) {
  Rng rng(seed);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = n;
  return circuit::make_golden_ansatz(options, rng);
}

/// 5 qubits, 3 fragments: {0,1} -q1-> {1,2,3} -q3-> {3,4}.
circuit::Circuit chain3_circuit() {
  circuit::Circuit c(5);
  c.h(0).cx(0, 1).ry(0.3, 1);
  c.cx(1, 2).ry(0.5, 2).cx(2, 3).ry(0.4, 3);
  c.cx(3, 4).ry(0.2, 4);
  return c;
}

/// Distinct request `index`: kind index % kKinds; the two variants of a
/// kind differ in tenant and seeds.
CutRequest distinct_request(int index) {
  const int kind = index % kKinds;
  const int variant = index / kKinds;
  const circuit::GoldenAnsatz ansatz = make_ansatz(5, 60 + static_cast<std::uint64_t>(variant));
  CutRequest request(ansatz.circuit);
  switch (kind) {
    case 0: {
      cutting::NeglectSpec spec(1);
      spec.neglect(0, ansatz.golden_basis);
      request.with_cut(ansatz.cut).with_provided_spec(spec).with_shots(600);
      break;
    }
    case 1:
      request.with_auto_plan().with_golden(GoldenMode::DetectOnline).with_shots(600);
      break;
    case 2: {
      cutting::ChainPlannerOptions planner;
      planner.max_fragment_width = 3;
      request = CutRequest(chain3_circuit());
      request.with_chain_plan(planner).with_golden(GoldenMode::DetectExact).with_shots(500);
      break;
    }
    case 3:
      request = CutRequest(chain3_circuit());
      request.with_boundaries({{WirePoint{1, 2}}, {WirePoint{3, 6}}})
          .with_golden(GoldenMode::DetectOnline)
          .with_shot_budget(20000);
      break;
    case 4: {
      cutting::BootstrapOptions boot;
      boot.replicas = 12;
      request.with_cut(ansatz.cut)
          .with_observable(cutting::DiagonalObservable::parity(5))
          .with_shots(800)
          .with_uncertainty(boot);
      break;
    }
    default:
      request.with_cut(ansatz.cut).with_exact();
      break;
  }
  request.with_seed(static_cast<std::uint64_t>(variant) << 24);
  request.with_tenant(variant == 0 ? "alpha" : "beta", variant == 0 ? 3 : 1);
  return request;
}

constexpr int kDistinct = 2 * kKinds;

void expect_same_response(const CutResponse& got, const CutResponse& want) {
  EXPECT_EQ(got.boundaries, want.boundaries);
  EXPECT_EQ(got.reconstruction.raw_probabilities, want.reconstruction.raw_probabilities);
  EXPECT_EQ(got.expectation, want.expectation);
  ASSERT_EQ(got.uncertainty.has_value(), want.uncertainty.has_value());
  if (got.uncertainty.has_value()) {
    EXPECT_EQ(got.uncertainty->estimate, want.uncertainty->estimate);
    EXPECT_EQ(got.uncertainty->standard_error, want.uncertainty->standard_error);
    EXPECT_EQ(got.uncertainty->ci_lower, want.uncertainty->ci_lower);
    EXPECT_EQ(got.uncertainty->ci_upper, want.uncertainty->ci_upper);
  }
  ASSERT_EQ(got.specs.num_boundaries(), want.specs.num_boundaries());
  for (int b = 0; b < got.specs.num_boundaries(); ++b) {
    EXPECT_EQ(got.specs.boundary(b).active_strings(), want.specs.boundary(b).active_strings());
  }
  EXPECT_EQ(got.data.total_jobs, want.data.total_jobs);
  EXPECT_EQ(got.data.total_shots, want.data.total_shots);
  ASSERT_EQ(got.data.fragments.size(), want.data.fragments.size());
  for (std::size_t f = 0; f < got.data.fragments.size(); ++f) {
    EXPECT_EQ(got.data.fragments[f].variants, want.data.fragments[f].variants);
    EXPECT_EQ(got.data.fragments[f].shots, want.data.fragments[f].shots);
  }
}

/// Every distinct request served alone by a 1-worker-pool service.
std::vector<CutResponse> reference_responses() {
  backend::StatevectorBackend backend(29);
  parallel::ThreadPool pool(1);
  telemetry::MetricsRegistry registry;
  CutServiceOptions options;
  options.pool = &pool;
  options.metrics = &registry;
  CutService service(backend, options);
  std::vector<CutResponse> responses;
  for (int i = 0; i < kDistinct; ++i) responses.push_back(service.run(distinct_request(i)));
  return responses;
}

/// How one submission was meant to end.
enum class Stop { None, Cancel, Deadline };

struct Submission {
  int distinct = 0;
  Stop stop = Stop::None;
  std::uint64_t id = 0;
  std::future<CutResponse> future;
};

/// Drives `backend` through a 4-worker-pool service from kClients threads
/// and checks every outcome against `reference`.
void run_stress(backend::Backend& backend, const RetryPolicy& retry,
                const std::vector<CutResponse>& reference) {
  parallel::ThreadPool pool(4);
  telemetry::MetricsRegistry registry;
  CutServiceOptions options;
  options.pool = &pool;
  options.metrics = &registry;
  options.retry = retry;
  options.sleeper = [](double) {};
  CutService service(backend, options);

  std::vector<std::vector<Submission>> submitted(kClients);
  std::vector<std::thread> clients;
  for (int client = 0; client < kClients; ++client) {
    clients.emplace_back([&, client] {
      std::vector<Submission>& mine = submitted[static_cast<std::size_t>(client)];
      for (int burst = 0; burst < kBursts; ++burst) {
        for (int i = 0; i < kBurstSize; ++i) {
          const int n = (client * kBursts + burst) * kBurstSize + i;
          Submission s;
          // Consecutive submissions of one client repeat a request, so some
          // twins are in flight together and later ones hit the cache.
          s.distinct = (n / 2 + client) % kDistinct;
          CutRequest request = distinct_request(s.distinct);
          if (n % 11 == 5) {
            s.stop = Stop::Deadline;
            request.with_deadline(1e-6);  // expires before admission
          } else if (n % 11 == 8) {
            s.stop = Stop::Deadline;
            request.with_deadline(3e-4);  // may expire at any wave boundary
          } else if (n % 13 == 7) {
            request.with_deadline(600.0);  // generous: must never fire
          }
          CutService::SubmittedJob job = service.submit_job(std::move(request));
          s.id = job.id;
          s.future = std::move(job.future);
          mine.push_back(std::move(s));
        }
        // Cancel a few of the burst's jobs once it is in: some are queued,
        // some mid-wave with twins joined to their variants, some done.
        for (std::size_t k = mine.size() - kBurstSize; k < mine.size(); ++k) {
          if (k % 9 == 4 && mine[k].stop == Stop::None) {
            mine[k].stop = Stop::Cancel;
            (void)service.cancel(mine[k].id);
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  std::size_t completed = 0;
  for (std::vector<Submission>& client : submitted) {
    for (Submission& s : client) {
      SCOPED_TRACE("distinct request " + std::to_string(s.distinct));
      // A stopped job either fails with its own typed error or, when the
      // stop came too late, completes like any other.
      try {
        const CutResponse response = s.future.get();
        expect_same_response(response, reference[static_cast<std::size_t>(s.distinct)]);
        ++completed;
      } catch (const CancelledError&) {
        EXPECT_EQ(s.stop, Stop::Cancel);
      } catch (const DeadlineExceeded&) {
        EXPECT_EQ(s.stop, Stop::Deadline);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "unexpected failure: " << e.what();
      }
    }
  }
  service.wait_idle();

  const CutServiceStats stats = service.stats();
  const std::uint64_t total = static_cast<std::uint64_t>(kClients * kBursts * kBurstSize);
  EXPECT_EQ(stats.jobs_submitted, total);
  EXPECT_EQ(stats.jobs_completed, completed);
  EXPECT_EQ(stats.jobs_completed + stats.jobs_failed, total);
  EXPECT_GT(completed, total / 2);
  EXPECT_GT(stats.cache.hits, 0u);
  const telemetry::GaugeSample* in_flight = stats.telemetry.find_gauge("scheduler.in_flight");
  ASSERT_NE(in_flight, nullptr);
  EXPECT_EQ(in_flight->value, 0);
  const telemetry::GaugeSample* threads = stats.telemetry.find_gauge("service.scheduler_threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_GE(threads->value, 1);
  EXPECT_LE(threads->value, 4);
}

TEST(ServiceStress, ConcurrentMixMatchesOneWorkerServiceBitForBit) {
  const std::vector<CutResponse> reference = reference_responses();
  backend::StatevectorBackend backend(29);
  run_stress(backend, RetryPolicy{}, reference);
}

TEST(ServiceStress, ConcurrentMixUnderTransientFaultsMatchesBitForBit) {
  const std::vector<CutResponse> reference = reference_responses();
  backend::StatevectorBackend inner(29);
  backend::FaultPlan plan;
  plan.seed = 0x5EED;
  plan.transient_rate = 0.3;
  plan.transient_attempt_limit = 1;
  backend::FaultInjectingBackend faulty(inner, plan);
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.jitter_seed = 11;
  run_stress(faulty, retry, reference);
  EXPECT_GT(faulty.fault_counts().transient, 0u) << "the fault plan never fired";
}

}  // namespace
}  // namespace qcut::service
