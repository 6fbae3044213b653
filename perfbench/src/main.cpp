// cutbench: the repository benchmark program.
//
//   cutbench --workload <paper_mixed|wide_cold|sweep_warm> --seed <n>
//            --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// One process, one StatevectorBackend (default engine options), one
// CutService on a fixed 2-worker pool. With the service's scheduler thread
// and this load-generating thread that is 4 threads.
//
// --trace 0 sets up the service several times (reporting the median
// set-up), then drives the workload's timed jobs closed-loop with
// telemetry off and prints the end-to-end metrics. --trace 1 runs half
// the jobs untraced and half with telemetry on, replays a fixed sample
// layer by layer (replay.hpp) and prints the per-layer metrics. Either
// way the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and a run record (fingerprint, host steal, segment values, p99) is
// written under --out-dir.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "backend/statevector_backend.hpp"
#include "closed_loop.hpp"
#include "cutting/fragment_graph.hpp"
#include "cutting/variants.hpp"
#include "parallel/thread_pool.hpp"
#include "replay.hpp"
#include "run_record.hpp"
#include "service/circuit_hash.hpp"
#include "service/cut_service.hpp"
#include "sim/engine.hpp"
#include "sim/simd_kernels.hpp"
#include "telemetry/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using qcut::cutting::CutRequest;
using qcut::cutting::CutResponse;

constexpr unsigned kPoolWorkers = 2;
constexpr std::uint64_t kBackendSeed = 7;
/// Set-ups timed before the timed part (the last one serves it) and after
/// it: spreading them over the run keeps one slow moment of the host from
/// moving their median.
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 3;
/// The timed part stops submitting after this many times its nominal
/// length (jobs / Workload::jobs_per_second): only a run the host slows
/// that much reaches it, and it keeps such a run within its time budget.
constexpr double kTimeCapFactor = 1.5;
constexpr std::size_t kCacheCapacity = 4096;
/// Keeps wide_cold's 512 KiB upstream distributions from growing the cache
/// (and peak RSS) with run length; the small workloads hit the entry bound
/// first.
constexpr std::uint64_t kCacheMaxBytes = std::uint64_t{64} << 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage_error(const std::string& message) {
  throw std::invalid_argument(message +
                              "\nusage: cutbench --workload <name> --seed <n> --seconds <s> "
                              "--trace <0|1> [--out-dir <dir>]");
}

/// Whole-string number parse; anything else is a usage error.
template <typename T>
T parse_number(const std::string& flag, const std::string& value,
               T (*parse)(const std::string&, std::size_t*)) {
  std::size_t used = 0;
  try {
    if (!value.empty() && value.front() != '-') {
      const T parsed = parse(value, &used);
      if (used == value.size()) return parsed;
    }
  } catch (const std::logic_error&) {
  }
  usage_error("bad value '" + value + "' for " + flag);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = parse_number<std::uint64_t>(
          flag, value, [](const std::string& v, std::size_t* used) {
            return static_cast<std::uint64_t>(std::stoull(v, used));
          });
    } else if (flag == "--seconds") {
      args.seconds = parse_number<double>(
          flag, value, [](const std::string& v, std::size_t* used) { return std::stod(v, used); });
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (!have_workload) usage_error("--workload is required");
  if (!(args.seconds > 0.0) || args.seconds > 600.0) usage_error("--seconds must be in (0, 600]");
  return args;
}

// ---- The service under test ---------------------------------------------------

struct Stack {
  std::unique_ptr<qcut::parallel::ThreadPool> pool;
  /// One worker, so reconstruction runs inline (Workload::inline_reconstruction).
  std::unique_ptr<qcut::parallel::ThreadPool> inline_pool;
  std::unique_ptr<qcut::backend::StatevectorBackend> backend;
  std::unique_ptr<qcut::service::CutService> service;  // destroyed first
};

qcut::service::CutServiceOptions service_options(qcut::parallel::ThreadPool& pool) {
  qcut::service::CutServiceOptions options;
  options.pool = &pool;
  options.cache_capacity = kCacheCapacity;
  options.cache_max_bytes = kCacheMaxBytes;
  return options;
}

/// Output check every response must pass: a finite reconstruction whose
/// raw quasi-distribution and clipped distribution both sum to 1.
bool reconstruction_ok(const CutResponse& response) {
  const std::vector<double>& raw = response.reconstruction.raw_probabilities;
  if (raw.empty()) return false;
  double raw_sum = 0.0;
  for (const double p : raw) {
    if (!std::isfinite(p)) return false;
    raw_sum += p;
  }
  double sum = 0.0;
  for (const double p : response.probabilities()) sum += p;
  return std::abs(raw_sum - 1.0) <= 1e-6 && std::abs(sum - 1.0) <= 1e-9;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Output check of a timed response. On sweep_warm (`primed` non-empty) it
/// must also be served wholly from the primed cache, bit for bit.
bool timed_response_ok(std::uint64_t index, const CutResponse& response,
                       const std::vector<std::vector<double>>& primed) {
  if (!reconstruction_ok(response)) return false;
  if (primed.empty()) return true;
  return response.backend_delta.jobs == 0 &&
         bitwise_equal(response.reconstruction.raw_probabilities, primed[index % primed.size()]);
}

/// The request as the workload's clients send it.
CutRequest as_sent(CutRequest request, const Stack& stack) {
  if (stack.inline_pool) request.with_pool(stack.inline_pool.get());
  return request;
}

struct SetUp {
  Stack stack;
  double seconds = 0.0;
  double steal_frac = 0.0;  // host steal during set-up (diagnostic)
  /// sweep_warm: raw reconstruction of each grid point from the priming pass.
  std::vector<std::vector<double>> primed;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Builds the service and runs the warm-up (and priming) jobs: everything
/// from service construction to the first timed submit.
SetUp set_up(const Workload& workload, const RequestSource& source) {
  SetUp out;
  const CpuJiffies jiffies_start = read_cpu_jiffies();
  const auto start = std::chrono::steady_clock::now();
  out.stack.pool = std::make_unique<qcut::parallel::ThreadPool>(kPoolWorkers);
  if (workload.inline_reconstruction) {
    out.stack.inline_pool = std::make_unique<qcut::parallel::ThreadPool>(1);
  }
  out.stack.backend = std::make_unique<qcut::backend::StatevectorBackend>(kBackendSeed);
  out.stack.service = std::make_unique<qcut::service::CutService>(
      *out.stack.backend, service_options(*out.stack.pool));

  LoopOptions warm;
  warm.clients = workload.clients;
  warm.jobs = static_cast<std::uint64_t>(workload.warmup_jobs);
  const LoopResult warmup = run_closed_loop(
      *out.stack.service, [&](std::uint64_t i) { return as_sent(source.warmup(i), out.stack); },
      [](std::uint64_t, const CutResponse& r) { return reconstruction_ok(r); }, warm);
  out.attempted += warmup.attempted;
  out.failed += warmup.failed;

  const std::vector<CutRequest> priming = source.priming();
  if (!priming.empty()) {
    out.primed.resize(priming.size());
    LoopOptions prime;
    prime.clients = workload.clients;
    prime.jobs = priming.size();
    const LoopResult primed = run_closed_loop(
        *out.stack.service, [&](std::uint64_t i) { return as_sent(priming[i], out.stack); },
        [&](std::uint64_t i, const CutResponse& r) {
          out.primed[i] = r.reconstruction.raw_probabilities;
          return reconstruction_ok(r);
        },
        prime);
    out.attempted += primed.attempted;
    out.failed += primed.failed;
  }
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  out.steal_frac = steal_fraction(jiffies_start, read_cpu_jiffies());
  return out;
}

// ---- Reporting helpers ------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Timing metrics of a closed-loop run. Throughput, CPU per job and the
/// latency percentiles are each taken per segment (over the jobs the
/// segment completed) and reported as their median over the segments: on a
/// shared host another guest slows this one in stretches (host steal, a
/// busy hyperthread sibling), and a stretch covering fewer than half of the
/// segments leaves the medians where the program put them. Host steal per
/// segment is kept as a diagnostic only.
struct TimingSummary {
  // Every segment, in time order.
  std::vector<double> steal, jobs_per_s, cpu_ms_per_job, p50_ms, p90_ms;
  double rate = 0.0;
  double cpu_ms = 0.0;
  double segment_p50_ms = 0.0;
  double segment_p90_ms = 0.0;
  // Over every job of the run; p99 is printed with its sample count and
  // never gated.
  double all_p50_ms = 0.0;
  double all_p90_ms = 0.0;
  double all_p99_ms = 0.0;
  std::size_t latency_samples = 0;
};

TimingSummary summarize(const LoopResult& loop) {
  TimingSummary out;
  std::vector<double> latencies;
  for (const Segment& segment : loop.segments) {
    if (segment.jobs == 0) continue;
    out.steal.push_back(segment.steal_frac);
    out.jobs_per_s.push_back(static_cast<double>(segment.jobs) / segment.wall_s);
    out.cpu_ms_per_job.push_back(segment.cpu_s / static_cast<double>(segment.jobs) * 1e3);
    out.p50_ms.push_back(quantile(segment.latencies_s, 0.5) * 1e3);
    out.p90_ms.push_back(quantile(segment.latencies_s, 0.9) * 1e3);
    latencies.insert(latencies.end(), segment.latencies_s.begin(), segment.latencies_s.end());
  }
  out.rate = median(out.jobs_per_s);
  out.cpu_ms = median(out.cpu_ms_per_job);
  out.segment_p50_ms = median(out.p50_ms);
  out.segment_p90_ms = median(out.p90_ms);
  out.all_p50_ms = quantile(latencies, 0.5) * 1e3;
  out.all_p90_ms = quantile(latencies, 0.9) * 1e3;
  out.all_p99_ms = quantile(latencies, 0.99) * 1e3;
  out.latency_samples = latencies.size();
  return out;
}

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  JsonObject values;
  for (const Metric& m : metrics) {
    JsonObject metric;
    metric.add("value", m.value).add("unit", m.unit);
    values.add(m.name, metric);
  }
  JsonObject out;
  out.add("correct", correct)
      .add("attempted", attempted)
      .add("failed", failed)
      .add("metrics", values);
  return out.str();
}

JsonObject metrics_object(const std::vector<Metric>& metrics) {
  JsonObject out;
  for (const Metric& m : metrics) out.add(m.name, m.value);
  return out;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(34) << m.name << std::right << std::setw(14)
              << std::setprecision(6) << m.value << "  " << m.unit << '\n';
  }
}

double total_variation(const std::vector<double>& p, const std::vector<double>& q) {
  double sum = 0.0;
  for (std::size_t i = 0; i < p.size() && i < q.size(); ++i) sum += std::abs(p[i] - q[i]);
  return 0.5 * sum;
}

std::uint64_t timed_job_count(const Workload& workload, const Args& args) {
  const auto scaled =
      static_cast<std::uint64_t>(std::llround(args.seconds * workload.jobs_per_second));
  std::uint64_t floor = static_cast<std::uint64_t>(2 * workload.segments);
  floor = std::max<std::uint64_t>(floor, static_cast<std::uint64_t>(workload.accuracy_jobs));
  floor = std::max<std::uint64_t>(floor, static_cast<std::uint64_t>(4 * workload.replay_jobs));
  return std::max(scaled, floor);
}

double time_cap(const Workload& workload, std::uint64_t jobs) {
  return kTimeCapFactor * static_cast<double>(jobs) / workload.jobs_per_second;
}

/// Content hash of the first timed requests: equal seeds give equal
/// digests, so a record shows which inputs a run processed.
std::string input_digest(const RequestSource& source) {
  qcut::service::HashStream stream;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const CutRequest request = source.timed(i);
    qcut::service::hash_circuit_into(stream, request.circuit);
    stream.write_u64(request.options.seed_stream_base);
  }
  return stream.digest().to_string();
}

std::string record_path(const Args& args, const std::string& suffix) {
  return args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) + suffix;
}

JsonObject base_record(const Args& args, const Workload& workload, const RequestSource& source,
                       const qcut::backend::StatevectorBackend& backend, std::uint64_t jobs) {
  const auto& engine = backend.engine_options();
  const std::string inputs = input_digest(source);
  std::cout << "# inputs " << inputs << '\n';
  JsonObject record;
  record.add("workload", workload.name)
      .add("trace", args.trace)
      .add("seed", args.seed)
      .add("input_digest", inputs)
      .add("seconds", args.seconds)
      .add("timed_jobs", jobs)
      .add("fingerprint",
           fingerprint(qcut::sim::isa_level_name(backend.device().caps().isa),
                       qcut::sim::isa_level_name(qcut::sim::simd::best_isa()), engine.simd,
                       static_cast<int>(kPoolWorkers), workload.clients, args.seed));
  return record;
}

// ---- End-to-end run (--trace 0) ------------------------------------------------

int run_end_to_end(const Args& args, const Workload& workload, const RequestSource& source) {
  const std::uint64_t jobs = timed_job_count(workload, args);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::vector<double> setup_samples;
  std::vector<double> setup_steal;
  std::optional<SetUp> ready;
  const auto time_set_ups = [&](int count) {
    for (int r = 0; r < count; ++r) {
      ready.reset();  // tear the previous stack down before timing the next
      ready.emplace(set_up(workload, source));
      setup_samples.push_back(ready->seconds);
      setup_steal.push_back(ready->steal_frac);
      attempted += ready->attempted;
      failed += ready->failed;
    }
  };
  time_set_ups(kSetupsBefore);
  qcut::service::CutService& service = *ready->stack.service;
  qcut::backend::StatevectorBackend& backend = *ready->stack.backend;

  std::uint64_t circuits = 0;
  std::uint64_t timed_failed = 0;
  // Accuracy subset: index -> (clipped distribution, passed the other checks).
  std::map<std::uint64_t, std::pair<std::vector<double>, bool>> accuracy_subset;
  const CheckFn check = [&](std::uint64_t index, const CutResponse& response) {
    circuits += response.data.total_jobs;
    const bool ok = timed_response_ok(index, response, ready->primed);
    if (index < static_cast<std::uint64_t>(workload.accuracy_jobs)) {
      accuracy_subset.emplace(index, std::make_pair(response.probabilities(), ok));
    }
    return ok;
  };

  LoopOptions options;
  options.clients = workload.clients;
  options.jobs = jobs;
  options.segments = workload.segments;
  options.max_seconds = time_cap(workload, jobs);
  const std::uint64_t backend_before = backend.stats().jobs;
  const LoopResult timed = run_closed_loop(
      service, [&](std::uint64_t i) { return as_sent(source.timed(i), ready->stack); }, check,
      options);
  const std::uint64_t backend_circuits = backend.stats().jobs - backend_before;
  timed_failed += timed.failed;

  // Accuracy after timing, against the exact uncut distribution.
  std::vector<double> tvds;
  for (const auto& [index, job] : accuracy_subset) {
    const double tvd =
        total_variation(job.first, backend.exact_probabilities(source.timed(index).circuit));
    tvds.push_back(tvd);
    if (job.second && !(tvd <= workload.tvd_ceiling)) ++timed_failed;  // count a job once
  }
  double tvd_mean = 0.0;
  for (const double tvd : tvds) tvd_mean += tvd;
  tvd_mean = tvds.empty() ? 0.0 : tvd_mean / static_cast<double>(tvds.size());

  attempted += timed.attempted;
  failed += timed_failed;
  JsonObject record = base_record(args, workload, source, backend, jobs);
  time_set_ups(kSetupsAfter);
  ready.reset();
  const double setup_s = median(setup_samples);

  const double timed_jobs = static_cast<double>(timed.attempted);
  const TimingSummary timing = summarize(timed);
  const std::vector<Metric> metrics = {
      {"setup_s", setup_s, "s"},
      {"jobs_per_s", timing.rate, "jobs/s"},
      {"latency_p50_ms", timing.segment_p50_ms, "ms"},
      {"latency_p90_ms", timing.segment_p90_ms, "ms"},
      {"cpu_ms_per_job", timing.cpu_ms, "ms"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"success_frac", (timed_jobs - static_cast<double>(timed_failed)) / timed_jobs, "fraction"},
      {"accuracy_tvd", tvd_mean, "fraction"},
      {"circuits_per_job", static_cast<double>(circuits) / timed_jobs, "circuits/job"},
  };

  std::cout << "# workload " << workload.name << ": " << jobs << " timed jobs, C="
            << workload.clients << ", pool " << kPoolWorkers
            << (workload.inline_reconstruction ? " (reconstruction inline)" : "") << ", seed "
            << args.seed << '\n'
            << "# timed wall " << timed.wall_s << " s, host steal "
            << timed.steal_frac * 100.0 << "% (diagnostic)"
            << (timed.capped ? ", stopped early at the time cap" : "") << '\n'
            << "# latency over all " << timing.latency_samples << " jobs: p50 "
            << timing.all_p50_ms << " ms, p90 " << timing.all_p90_ms << " ms, p99 "
            << timing.all_p99_ms << " ms (not gated)\n";
  print_metrics(metrics);

  JsonObject segments;
  segments.add("steal_frac", timing.steal)
      .add("jobs_per_s", timing.jobs_per_s)
      .add("cpu_ms_per_job", timing.cpu_ms_per_job)
      .add("latency_p50_ms", timing.p50_ms)
      .add("latency_p90_ms", timing.p90_ms);
  record.add("steal_frac", timed.steal_frac)
      .add("timed_wall_s", timed.wall_s)
      .add("capped", timed.capped)
      .add("setup_samples_s", setup_samples)
      .add("setup_steal_frac", setup_steal)
      .add("latency_samples", static_cast<std::uint64_t>(timing.latency_samples))
      .add("latency_all_p50_ms", timing.all_p50_ms)
      .add("latency_all_p90_ms", timing.all_p90_ms)
      .add("latency_all_p99_ms", timing.all_p99_ms)
      .add("segments", segments)
      .add("accuracy_tvd_samples", tvds)
      .add("backend_circuits_per_job", static_cast<double>(backend_circuits) / timed_jobs)
      .add("metrics", metrics_object(metrics))
      .add("attempted", attempted)
      .add("failed", failed);
  if (!write_record(record_path(args, "-e2e.json"), record)) {
    std::cerr << "cutbench: could not write the run record under " << args.out_dir << '\n';
  }
  std::cout << result_line(failed == 0, attempted, failed, metrics) << std::endl;
  return 0;
}

// ---- Traced run (--trace 1) ------------------------------------------------------

std::uint64_t counter_delta(const qcut::telemetry::MetricsSnapshot& before,
                            const qcut::telemetry::MetricsSnapshot& after, const char* name) {
  return after.counter_value(name) - before.counter_value(name);
}

/// Median of the histogram samples recorded between two snapshots.
double histogram_delta_median(const qcut::telemetry::MetricsSnapshot& before,
                              const qcut::telemetry::MetricsSnapshot& after, const char* name) {
  const qcut::telemetry::HistogramSample* end = after.find_histogram(name);
  if (end == nullptr) return 0.0;
  qcut::telemetry::HistogramSample delta = *end;
  delta.min = 0.0;
  if (const qcut::telemetry::HistogramSample* start = before.find_histogram(name)) {
    for (std::size_t b = 0; b < delta.buckets.size() && b < start->buckets.size(); ++b) {
      delta.buckets[b] -= start->buckets[b];
    }
    delta.count -= start->count;
  }
  return delta.quantile(0.5);
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

int run_traced(const Args& args, const Workload& workload, const RequestSource& source) {
  const std::uint64_t jobs = timed_job_count(workload, args);
  const std::uint64_t half = jobs / 2;
  SetUp ready = set_up(workload, source);
  std::uint64_t attempted = ready.attempted;
  std::uint64_t failed = ready.failed;
  qcut::service::CutService& service = *ready.stack.service;
  qcut::backend::StatevectorBackend& backend = *ready.stack.backend;
  qcut::parallel::ThreadPool& pool = *ready.stack.pool;

  // Replayed requests: the first replay_jobs of the traced half, which
  // covers every kind x width combination of paper_mixed.
  const auto replay_index = [&](int k) { return half + static_cast<std::uint64_t>(k); };
  std::map<std::uint64_t, std::vector<double>> service_results;
  std::uint64_t required_variants = 0;
  std::uint64_t unneglected_variants = 0;
  const auto check = [&](std::uint64_t index, const CutResponse& response) {
    if (index >= half) {
      required_variants += response.data.total_jobs;
      unneglected_variants +=
          qcut::cutting::count_chain_variants(
              response.graph, qcut::cutting::ChainNeglectSpec::none(response.graph))
              .total();
      if (index < replay_index(workload.replay_jobs)) {
        service_results.emplace(index, response.reconstruction.raw_probabilities);
      }
    }
    return timed_response_ok(index, response, ready.primed);
  };
  const RequestFn make = [&](std::uint64_t i) { return as_sent(source.timed(i), ready.stack); };

  LoopOptions options;
  options.clients = workload.clients;
  options.segments = workload.segments;
  options.jobs = half;
  options.max_seconds = time_cap(workload, half);
  const LoopResult untraced = run_closed_loop(service, make, check, options);

  qcut::telemetry::MetricsRegistry& registry = qcut::telemetry::MetricsRegistry::global();
  const qcut::telemetry::MetricsSnapshot before = registry.snapshot();
  const qcut::service::CacheStats cache_before = service.stats().cache;
  qcut::telemetry::set_enabled(true);
  options.first_index = half;
  options.jobs = jobs - half;
  options.max_seconds = time_cap(workload, jobs - half);
  const LoopResult traced = run_closed_loop(service, make, check, options);
  qcut::telemetry::set_enabled(false);
  const qcut::telemetry::MetricsSnapshot after = registry.snapshot();
  const qcut::service::CacheStats cache_after = service.stats().cache;
  attempted += untraced.attempted + traced.attempted;
  failed += untraced.failed + traced.failed;

  // Replay the sample alone, layer by layer, and time the same requests
  // through a fresh service holding one request at a time. sweep_warm
  // primes both first, as its set-up primed the service.
  Replayer replayer(backend, pool, kBackendSeed, kCacheCapacity, kCacheMaxBytes);
  qcut::service::CutService solo(backend, service_options(pool));
  if (workload.primed) {
    for (int k = 0; k < workload.replay_jobs; ++k) {
      const CutRequest request = as_sent(source.timed(replay_index(k)), ready.stack);
      (void)replayer.replay(request, 0, false);
      (void)solo.run(request);
    }
  }
  double solo_s = 0.0;
  for (int k = 0; k < workload.replay_jobs; ++k) {
    const std::uint64_t index = replay_index(k);
    const CutRequest request = as_sent(source.timed(index), ready.stack);
    const auto start = std::chrono::steady_clock::now();
    (void)solo.run(request);
    solo_s += std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    const std::vector<double> replayed =
        replayer.replay(request, static_cast<std::uint64_t>(k) + 1, true);
    ++attempted;
    const auto it = service_results.find(index);
    if (it == service_results.end() || !bitwise_equal(replayed, it->second)) ++failed;
  }
  const ReplayReport replay = replayer.report();
  const double replayed_jobs = static_cast<double>(std::max<std::uint64_t>(1, replay.jobs));
  const auto layer_s = [&](const std::string& name) {
    const auto it = replay.layers.find(name);
    return it == replay.layers.end() ? 0.0 : it->second.self_s;
  };
  const auto ms_per_job = [&](double seconds) { return seconds / replayed_jobs * 1e3; };

  // Layers summed into the replayed job time, in pipeline order.
  const std::vector<std::pair<std::string, double>> layers = {
      {"cutting.plan.ms_per_job", ms_per_job(layer_s("cutting.plan"))},
      {"cutting.chain.ms_per_job", ms_per_job(layer_s("cutting.chain"))},
      {"cutting.golden.ms_per_job", ms_per_job(layer_s("cutting.golden"))},
      {"cutting.variants.ms_per_job", ms_per_job(layer_s("cutting.variants"))},
      {"service.hash.ms_per_job", ms_per_job(layer_s("service.hash"))},
      {"service.cache.ms_per_job",
       ms_per_job(layer_s("service.cache.lookup") + layer_s("service.cache.insert"))},
      {"cutting.prefix_group.ms_per_job", ms_per_job(layer_s("cutting.prefix_group"))},
      {"parallel.dispatch.ms_per_job", ms_per_job(layer_s("parallel.dispatch"))},
      {"backend.run_batch.ms_per_job", ms_per_job(layer_s("backend.run_batch"))},
      {"sim.compile.ms_per_job", ms_per_job(layer_s("sim.compile"))},
      {"sim.apply.ms_per_job", ms_per_job(layer_s("sim.apply"))},
      {"sim.sample.ms_per_job", ms_per_job(layer_s("sim.sample"))},
      {"service.absorb.ms_per_job", ms_per_job(layer_s("service.absorb"))},
      {"cutting.reconstruct.ms_per_job", ms_per_job(layer_s("cutting.reconstruct"))},
  };
  // Every recorded layer, mapped to a metric above or not: a span name the
  // metric list misses shows up as a gap in the smoke test's sum.
  double layer_sum_ms = 0.0;
  for (const auto& [name, totals] : replay.layers) layer_sum_ms += ms_per_job(totals.self_s);
  const double solo_ms = solo_s / static_cast<double>(std::max(1, workload.replay_jobs)) * 1e3;

  const double traced_jobs = static_cast<double>(traced.attempted);
  const std::uint64_t hits = cache_after.hits - cache_before.hits;
  const std::uint64_t misses = cache_after.misses - cache_before.misses;
  const double untraced_p50 = summarize(untraced).segment_p50_ms;
  const double traced_p50 = summarize(traced).segment_p50_ms;

  std::vector<Metric> metrics = {
      {"service.submit_us", median(traced.submit_s) * 1e6, "us"},
      {"service.queue_wait_ms",
       histogram_delta_median(before, after, "service.tenant_wait_seconds.standard") * 1e3, "ms"},
      {"service.solo_latency_ms", solo_ms, "ms"},
      {"service.overhead_ms_per_job", solo_ms - layer_sum_ms, "ms"},
      {"service.cache.hit_frac",
       ratio(static_cast<double>(hits), static_cast<double>(hits + misses)), "fraction"},
      {"service.cache.lookup_us",
       ratio(layer_s("service.cache.lookup") * 1e6, static_cast<double>(replay.cache_lookups)),
       "us"},
      {"service.cache.evictions_per_job",
       static_cast<double>(cache_after.evictions - cache_before.evictions) / traced_jobs,
       "count/job"},
      {"service.dispatch.tasks_per_job",
       static_cast<double>(counter_delta(before, after, "service.fair_dispatches")) / traced_jobs,
       "count/job"},
      {"service.failures_per_job",
       static_cast<double>(counter_delta(before, after, "service.jobs_failed") +
                           counter_delta(before, after, "service.retries") +
                           counter_delta(before, after, "service.admission_rejected")) /
           traced_jobs,
       "count/job"},
      {"cutting.golden.neglected_frac",
       1.0 - ratio(static_cast<double>(required_variants),
                   static_cast<double>(unneglected_variants)),
       "fraction"},
      {"backend.prefix_share_frac",
       ratio(static_cast<double>(replay.prefix_ops_saved),
             static_cast<double>(replay.ops_submitted)),
       "fraction"},
      {"sim.apply.gbps_computed", ratio(replay.apply_bytes * 1e-9, layer_s("sim.apply")), "GB/s"},
      {"sim.fusion.absorbed_frac",
       ratio(static_cast<double>(counter_delta(before, after, "sim.fusion.gates_absorbed")),
             static_cast<double>(counter_delta(before, after, "sim.fusion.gates_in"))),
       "fraction"},
      {"parallel.pool.busy_frac",
       ratio(static_cast<double>(counter_delta(before, after, "pool.busy_ns")) * 1e-9,
             traced.wall_s * kPoolWorkers),
       "fraction"},
      {"parallel.pool.tasks_per_job",
       static_cast<double>(counter_delta(before, after, "pool.tasks")) / traced_jobs, "count/job"},
      {"trace.attributed_frac", replay.attributed_frac, "fraction"},
      {"trace.overhead_frac", ratio(traced_p50, untraced_p50) - 1.0, "fraction"},
  };
  for (const auto& [name, value] : layers) metrics.push_back({name, value, "ms"});

  std::cout << "# workload " << workload.name << " (traced): " << jobs - half
            << " traced jobs, " << replay.jobs << " replayed, seed " << args.seed << '\n'
            << "# traced-pass host steal " << traced.steal_frac * 100.0 << "% (diagnostic)\n"
            << "# replayed job " << replay.job_wall_s * 1e3 << " ms; self time by layer:\n";
  for (const auto& [name, totals] : replay.layers) {
    std::cout << "#   " << std::left << std::setw(24) << name << std::right << std::setw(12)
              << std::setprecision(5) << totals.self_s / replayed_jobs * 1e3 << " ms/job "
              << std::setw(8) << std::setprecision(3)
              << 100.0 * ratio(totals.self_s, replay.job_wall_s * replayed_jobs) << " %  "
              << totals.spans << " spans\n";
  }
  print_metrics(metrics);

  const std::string spans_path = record_path(args, "-spans.json");
  if (!replayer.write_spans(spans_path)) {
    std::cerr << "cutbench: could not write " << spans_path << '\n';
  }
  JsonObject record = base_record(args, workload, source, backend, jobs);
  record.add("steal_frac", traced.steal_frac)
      .add("traced_wall_s", traced.wall_s)
      .add("capped", untraced.capped || traced.capped)
      .add("untraced_latency_p50_ms", untraced_p50)
      .add("traced_latency_p50_ms", traced_p50)
      .add("replay_job_ms", replay.job_wall_s * 1e3)
      .add("metrics", metrics_object(metrics))
      .add("attempted", attempted)
      .add("failed", failed);
  if (!write_record(record_path(args, "-trace.json"), record)) {
    std::cerr << "cutbench: could not write the run record under " << args.out_dir << '\n';
  }
  std::cout << result_line(failed == 0, attempted, failed, metrics) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    const perfbench::Workload& workload = perfbench::find_workload(args.workload);
    const perfbench::RequestSource source(workload, args.seed);
    std::error_code ignored;  // a missing record directory only loses the record
    std::filesystem::create_directories(args.out_dir, ignored);
    return args.trace ? perfbench::run_traced(args, workload, source)
                      : perfbench::run_end_to_end(args, workload, source);
  } catch (const std::exception& e) {
    std::cerr << "cutbench: " << e.what() << '\n';
    return 1;
  }
}
