// Service throughput: cold vs warm-cache request streams.
//
// Models real variational traffic: a stream of QAOA MaxCut cut-run requests
// that keeps revisiting the same parameter grid (optimizer line searches,
// repeated cost evaluations, many users sharing popular ansaetze). The
// first pass over the grid is cold - every fragment variant executes on the
// backend. The second, identical pass is warm - every variant is served
// from the content-addressed fragment-result cache, so the service only
// pays for planning and reconstruction.
//
// Acceptance target (ISSUE 1): warm repeat-request throughput >= 5x cold.
//
// Chaos pass (ISSUE 9): the same stream against a backend injecting 5%
// transient faults, absorbed by the service's retry policy. Results must be
// bit-for-bit identical to the fault-free pass, and the warm-cache
// throughput must degrade by less than 20%. A warm pass takes a few
// milliseconds, so both warm passes are timed in alternating rounds
// totalling >= 50 ms per side and compared by their medians.
//
// Overload pass (ISSUE 10): two tenants at weights 3:1 flood the service
// with unique (uncacheable) requests at several times pool capacity. Gates:
// observed throughput ratio within 25% of 3:1 while both tenants are
// active, bounded p99 admission wait, and every admitted job's result
// bit-for-bit identical to an uncontended serial baseline. A second,
// admission-limited pass must surface typed ResourceExhausted rejections
// while every admitted future still resolves correctly.

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "bench_timing.hpp"

#include "backend/fault_injection.hpp"
#include "backend/statevector_backend.hpp"
#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "service/cut_service.hpp"
#include "support/qaoa_path.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace qcut;

constexpr int kNumQubits = 12;
constexpr int kQaoaDepth = 3;
constexpr std::size_t kShotsPerVariant = 200000;
constexpr int kGridSize = 6;           // distinct (gamma, beta) parameter points
constexpr int kRepeatsPerPoint = 4;    // stream revisits within one pass

struct Request {
  circuit::Circuit circuit{1};
  circuit::WirePoint cut;
  cutting::CutRunOptions options;
};

std::vector<Request> make_request_stream() {
  std::vector<Request> stream;
  for (int repeat = 0; repeat < kRepeatsPerPoint; ++repeat) {
    for (int point = 0; point < kGridSize; ++point) {
      Request r;
      const double gamma = 0.3 + 0.1 * point;
      const double beta = 0.25 + 0.05 * point;
      r.circuit = circuit::qaoa_path(kNumQubits, kQaoaDepth, gamma, beta);
      r.cut = circuit::middle_cut(r.circuit);
      r.options.shots_per_variant = kShotsPerVariant;
      stream.push_back(std::move(r));
    }
  }
  return stream;
}

// ---- Overload pass (ISSUE 10) ------------------------------------------------

constexpr int kHeavyJobs = 48;           // tenant "heavy", weight 3
constexpr int kLightJobs = 8;            // tenant "light", weight 1
constexpr std::size_t kOverloadShots = 50000;

/// Unique parameter point per job, with per-tenant disjoint gamma AND beta
/// ranges: the cut leaves the final mixer layer in its own fragment, whose
/// variants depend only on beta, so any beta shared across tenants would
/// let one tenant serve the other's fragments from cache and make the
/// fairness measurement meaningless.
Request overload_request(int index, double gamma_base, double beta_base) {
  Request r;
  r.circuit = circuit::qaoa_path(kNumQubits, kQaoaDepth, gamma_base + 0.004 * index,
                                 beta_base + 0.003 * index);
  r.cut = circuit::middle_cut(r.circuit);
  r.options.shots_per_variant = kOverloadShots;
  return r;
}

cutting::CutRequest as_cut_request(const Request& r) {
  cutting::CutRequest request(r.circuit);
  request.with_cut(r.cut);
  request.options = r.options;
  return request;
}

struct OverloadResult {
  double seconds = 0.0;
  double fairness_ratio = 0.0;  // heavy/light throughput while both active
  double p99_wait_seconds = 0.0;
  std::uint64_t rejections = 0;
  bool ok = true;
};

/// Two-tenant flood at ~14x pool capacity (56 jobs, 4 workers), weights
/// 3:1, plus an admission-limited rerun. `baseline` holds each job's
/// uncontended serial result for the bit-for-bit check.
OverloadResult run_overload_pass(const std::vector<Request>& heavy,
                                 const std::vector<Request>& light,
                                 const std::vector<std::vector<double>>& baseline) {
  OverloadResult out;
  const std::size_t total = heavy.size() + light.size();

  backend::StatevectorBackend backend(2023);
  parallel::ThreadPool pool(4);
  telemetry::MetricsRegistry metrics;
  service::CutServiceOptions options;
  options.pool = &pool;
  options.metrics = &metrics;
  service::CutService service(backend, options);

  // Interleave submissions (6 heavy : 1 light) so both tenants are active
  // from the start; admission is serial, so submitting one tenant's whole
  // stream first would grant it a measurable head start.
  Stopwatch timer;
  std::vector<std::future<cutting::CutResponse>> futures(total);
  const std::size_t stripe = heavy.size() / light.size();
  std::size_t h = 0, l = 0;
  while (h < heavy.size() || l < light.size()) {
    for (std::size_t k = 0; k < stripe && h < heavy.size(); ++k, ++h) {
      cutting::CutRequest request = as_cut_request(heavy[h]);
      request.with_tenant("heavy", 3);
      futures[h] = service.submit(std::move(request));
    }
    if (l < light.size()) {
      cutting::CutRequest request = as_cut_request(light[l]);
      request.with_tenant("light", 1);
      futures[heavy.size() + l] = service.submit(std::move(request));
      ++l;
    }
  }

  // One waiter per future records a global completion sequence number, so
  // we can reconstruct who had finished by the time the light tenant's
  // last job completed.
  std::atomic<std::uint64_t> completion_seq{0};
  std::vector<std::uint64_t> finish_seq(total, 0);
  std::vector<std::vector<double>> contended(total);
  std::vector<std::thread> waiters;
  waiters.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    waiters.emplace_back([&, i] {
      contended[i] = futures[i].get().reconstruction.raw_probabilities;
      finish_seq[i] = completion_seq.fetch_add(1);
    });
  }
  for (std::thread& t : waiters) t.join();
  out.seconds = timer.elapsed_seconds();

  for (std::size_t i = 0; i < total; ++i) {
    if (contended[i] != baseline[i]) {
      std::cerr << "FAIL: overload job " << i
                << " differs from its uncontended serial result\n";
      out.ok = false;
    }
  }

  // Fairness: when the light tenant's last job completed, the heavy tenant
  // (weight 3, with plenty of queued work the whole time) should have
  // completed ~3 jobs for each light one.
  std::uint64_t light_last = 0;
  for (std::size_t i = heavy.size(); i < total; ++i) {
    light_last = std::max(light_last, finish_seq[i]);
  }
  std::uint64_t heavy_done = 0;
  for (std::size_t i = 0; i < heavy.size(); ++i) {
    if (finish_seq[i] < light_last) ++heavy_done;
  }
  out.fairness_ratio =
      static_cast<double>(heavy_done) / static_cast<double>(light.size());

  const telemetry::MetricsSnapshot snapshot = metrics.snapshot();
  if (const auto* wait = snapshot.find_histogram("service.tenant_wait_seconds.standard")) {
    out.p99_wait_seconds = wait->quantile(0.99);
  }

  // Admission-limited rerun: same stream against a 4-job budget submitted
  // as fast as possible. Rejections must be typed and admitted futures must
  // still resolve to the baseline results.
  backend::StatevectorBackend limited_backend(2023);
  parallel::ThreadPool limited_pool(4);
  service::CutServiceOptions limited_options;
  limited_options.pool = &limited_pool;
  limited_options.admission.max_queued_jobs = 4;
  service::CutService limited(limited_backend, limited_options);

  std::vector<std::pair<std::size_t, std::future<cutting::CutResponse>>> admitted;
  for (std::size_t i = 0; i < total; ++i) {
    const Request& r = i < heavy.size() ? heavy[i] : light[i - heavy.size()];
    cutting::CutRequest request = as_cut_request(r);
    request.with_tenant(i < heavy.size() ? "heavy" : "light", i < heavy.size() ? 3u : 1u);
    try {
      admitted.emplace_back(i, limited.submit(std::move(request)));
    } catch (const ResourceExhausted& e) {
      ++out.rejections;
      if (e.details().max_queued_jobs != 4 || e.details().retry_after_seconds <= 0.0) {
        std::cerr << "FAIL: rejection details not populated\n";
        out.ok = false;
      }
    }
  }
  for (auto& [index, future] : admitted) {
    if (future.get().reconstruction.raw_probabilities != baseline[index]) {
      std::cerr << "FAIL: admitted job " << index
                << " differs from baseline under admission pressure\n";
      out.ok = false;
    }
  }
  if (out.rejections == 0) {
    std::cerr << "FAIL: admission-limited pass never rejected a job\n";
    out.ok = false;
  }
  return out;
}

/// Submits the whole stream and waits; returns wall seconds.
double run_pass(service::CutService& service, const std::vector<Request>& stream,
                std::vector<double>* checksum) {
  Stopwatch timer;
  std::vector<std::future<cutting::CutResponse>> futures;
  futures.reserve(stream.size());
  for (const Request& r : stream) {
    cutting::CutRequest request(r.circuit);
    request.with_cut(r.cut);
    request.options = r.options;
    futures.push_back(service.submit(std::move(request)));
  }
  double total_mass = 0.0;
  for (auto& f : futures) {
    const cutting::CutResponse report = f.get();
    for (double p : report.reconstruction.raw_probabilities) total_mass += p;
    if (checksum != nullptr) {
      checksum->push_back(report.reconstruction.raw_probabilities.front());
    }
  }
  (void)total_mass;
  return timer.elapsed_seconds();
}

/// Median warm pass on the fault-free and on the fault-injecting service,
/// and whether every round's results equalled the expected ones bit for bit.
struct WarmRounds {
  double clean_seconds = 0.0;
  double chaos_seconds = 0.0;
  int rounds = 0;
  bool identical = true;
};

/// Times warm passes of `stream` on `clean` and on `chaos` in alternating
/// rounds, so drift in the host's speed reaches both alike, until each side
/// has run >= 50 ms in total and at least 7 rounds; returns the medians.
WarmRounds time_warm_rounds(service::CutService& clean, service::CutService& chaos,
                            const std::vector<Request>& stream,
                            const std::vector<double>& expected) {
  constexpr double kMinTotalSeconds = 0.050;
  constexpr int kMinRounds = 7;
  WarmRounds out;
  std::vector<double> clean_rounds;
  std::vector<double> chaos_rounds;
  double clean_total = 0.0;
  double chaos_total = 0.0;
  while (out.rounds < kMinRounds || clean_total < kMinTotalSeconds ||
         chaos_total < kMinTotalSeconds) {
    std::vector<double> clean_checksum;
    clean_rounds.push_back(run_pass(clean, stream, &clean_checksum));
    std::vector<double> chaos_checksum;
    chaos_rounds.push_back(run_pass(chaos, stream, &chaos_checksum));
    clean_total += clean_rounds.back();
    chaos_total += chaos_rounds.back();
    out.identical = out.identical && clean_checksum == expected && chaos_checksum == expected;
    ++out.rounds;
  }
  out.clean_seconds = bench::median(clean_rounds);
  out.chaos_seconds = bench::median(chaos_rounds);
  return out;
}

}  // namespace

int main() {
  std::cout << "Cut-execution service throughput: " << kNumQubits << "-qubit depth-"
            << kQaoaDepth << " QAOA, " << kGridSize << " parameter points x "
            << kRepeatsPerPoint << " repeats, " << kShotsPerVariant
            << " shots/variant\n\n";

  const std::vector<Request> stream = make_request_stream();

  backend::StatevectorBackend backend(2023);
  service::CutService service(backend);

  // Within one pass each point already repeats kRepeatsPerPoint times, so
  // even the cold pass dedups/caches across repeats; the warm pass then
  // serves everything from cache.
  std::vector<double> cold_checksum;
  const double cold_seconds = run_pass(service, stream, &cold_checksum);
  const service::CutServiceStats cold_stats = service.stats();

  // Chaos pass: identical stream, backend injecting 5% transient faults,
  // service retrying with deterministic backoff (recorded, never slept, so
  // the throughput comparison measures retry overhead, not sleep time).
  backend::StatevectorBackend chaos_inner(2023);
  backend::FaultPlan fault_plan;
  fault_plan.seed = 0xC0FFEE;
  fault_plan.transient_rate = 0.05;
  fault_plan.transient_attempt_limit = 1;
  backend::FaultInjectingBackend chaos_backend(chaos_inner, fault_plan);

  service::CutServiceOptions chaos_options;
  chaos_options.retry.max_attempts = 3;
  chaos_options.sleeper = [](double) {};
  service::CutService chaos_service(chaos_backend, chaos_options);

  std::vector<double> fault_cold_checksum;
  const double fault_cold_seconds = run_pass(chaos_service, stream, &fault_cold_checksum);

  // Warm passes: every variant is served from cache on both services.
  const WarmRounds warm = time_warm_rounds(service, chaos_service, stream, cold_checksum);
  const double warm_seconds = warm.clean_seconds;
  const double fault_warm_seconds = warm.chaos_seconds;
  const service::CutServiceStats warm_stats = service.stats();
  const backend::FaultCounts fault_counts = chaos_backend.fault_counts();
  const std::uint64_t retries =
      chaos_service.stats().telemetry.counter_value("service.retries");

  if (!warm.identical) {
    std::cerr << "FAIL: warm-cache results are not bit-for-bit identical to cold results\n";
    return EXIT_FAILURE;
  }
  if (fault_cold_checksum != cold_checksum) {
    std::cerr << "FAIL: results under transient faults are not bit-for-bit identical "
                 "to the fault-free pass\n";
    return EXIT_FAILURE;
  }

  const double cold_throughput = static_cast<double>(stream.size()) / cold_seconds;
  const double warm_throughput = static_cast<double>(stream.size()) / warm_seconds;
  const double speedup = cold_seconds / warm_seconds;

  Table table({"pass", "requests", "seconds", "req/s", "backend jobs", "cache hits"});
  table.add_row({"cold", std::to_string(stream.size()), format_double(cold_seconds, 3),
                 format_double(cold_throughput, 1),
                 std::to_string(cold_stats.scheduler.executions),
                 std::to_string(cold_stats.cache.hits)});
  // The warm row is one pass: the median time, the rounds' counts averaged.
  const auto per_warm_pass = [&](std::uint64_t total) {
    return std::to_string(total / static_cast<std::uint64_t>(warm.rounds));
  };
  table.add_row({"warm", std::to_string(stream.size()), format_double(warm_seconds, 4),
                 format_double(warm_throughput, 1),
                 per_warm_pass(warm_stats.scheduler.executions - cold_stats.scheduler.executions),
                 per_warm_pass(warm_stats.cache.hits - cold_stats.cache.hits)});
  std::cout << table << "\n";

  std::cout << "warm/cold speedup: " << format_double(speedup, 2) << "x (target >= 5x)\n";
  std::cout << "cache: " << warm_stats.cache.insertions << " entries inserted, hit rate "
            << format_double(100.0 * warm_stats.cache.hit_rate(), 1) << "%\n";
  std::cout << "dedup joins: " << warm_stats.scheduler.dedup_joins << "\n\n";

  const double fault_degradation =
      warm_seconds > 0.0 ? fault_warm_seconds / warm_seconds - 1.0 : 0.0;
  std::cout << "chaos pass (5% transient faults): cold "
            << format_double(fault_cold_seconds, 3) << "s, warm "
            << format_double(fault_warm_seconds, 4) << "s ("
            << format_double(100.0 * fault_degradation, 1) << "% vs fault-free warm), "
            << fault_counts.transient << " faults injected, " << retries << " retries\n";
  std::cout << "warm passes: medians of " << warm.rounds << " alternating rounds\n";

  // Overload pass: uncontended serial baseline first, then the two-tenant
  // flood and the admission-limited rerun against it.
  std::vector<Request> heavy_stream;
  for (int i = 0; i < kHeavyJobs; ++i) {
    heavy_stream.push_back(overload_request(i, 0.20, 0.15));
  }
  std::vector<Request> light_stream;
  for (int i = 0; i < kLightJobs; ++i) {
    light_stream.push_back(overload_request(i, 0.60, 0.45));
  }

  std::vector<std::vector<double>> overload_baseline;
  overload_baseline.reserve(heavy_stream.size() + light_stream.size());
  {
    backend::StatevectorBackend baseline_backend(2023);
    service::CutService baseline_service(baseline_backend);
    for (const Request& r : heavy_stream) {
      overload_baseline.push_back(
          baseline_service.run(as_cut_request(r)).reconstruction.raw_probabilities);
    }
    for (const Request& r : light_stream) {
      overload_baseline.push_back(
          baseline_service.run(as_cut_request(r)).reconstruction.raw_probabilities);
    }
  }
  const OverloadResult overload =
      run_overload_pass(heavy_stream, light_stream, overload_baseline);

  std::cout << "\noverload pass (" << kHeavyJobs << "+" << kLightJobs
            << " jobs, tenant weights 3:1, 4 workers): "
            << format_double(overload.seconds, 3) << "s, throughput ratio "
            << format_double(overload.fairness_ratio, 2)
            << " (target 3.00 +/- 25%), p99 admission wait "
            << format_double(overload.p99_wait_seconds * 1e3, 2) << "ms, "
            << overload.rejections << " typed rejections in the limited rerun\n";

  if (!qcut::bench::write_bench_json(
          "service_throughput", cold_seconds + warm_seconds, speedup,
          {{"cold_seconds", cold_seconds},
           {"warm_seconds", warm_seconds},
           {"requests_per_pass", static_cast<double>(stream.size())},
           {"fault_cold_seconds", fault_cold_seconds},
           {"fault_warm_seconds", fault_warm_seconds},
           {"warm_rounds", static_cast<double>(warm.rounds)},
           {"transient_faults", static_cast<double>(fault_counts.transient)},
           {"retries", static_cast<double>(retries)},
           {"overload_seconds", overload.seconds},
           {"overload_fairness_ratio", overload.fairness_ratio},
           {"overload_p99_wait_seconds", overload.p99_wait_seconds},
           {"overload_rejections", static_cast<double>(overload.rejections)}})) {
    std::cerr << "warning: could not write BENCH_service_throughput.json\n";
  }

  if (speedup < 5.0) {
    std::cerr << "FAIL: warm-cache speedup " << format_double(speedup, 2) << "x below 5x target\n";
    return EXIT_FAILURE;
  }
  // Warm-cache throughput under faults must stay within 20% of fault-free
  // (small absolute slack: warm passes are milliseconds, timer noise real).
  if (fault_warm_seconds > warm_seconds * 1.25 + 0.050) {
    std::cerr << "FAIL: warm throughput under 5% transient faults degraded "
              << format_double(100.0 * fault_degradation, 1) << "% (limit 20%)\n";
    return EXIT_FAILURE;
  }
  if (!overload.ok) {
    return EXIT_FAILURE;
  }
  if (overload.fairness_ratio < 3.0 * 0.75 || overload.fairness_ratio > 3.0 * 1.25) {
    std::cerr << "FAIL: heavy/light throughput ratio "
              << format_double(overload.fairness_ratio, 2)
              << " outside 25% of the 3:1 weight ratio\n";
    return EXIT_FAILURE;
  }
  if (overload.p99_wait_seconds > 1.0) {
    std::cerr << "FAIL: p99 admission wait "
              << format_double(overload.p99_wait_seconds, 3) << "s exceeds 1s bound\n";
    return EXIT_FAILURE;
  }
  std::cout << "PASS\n";
  return EXIT_SUCCESS;
}
