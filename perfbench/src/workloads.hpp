#pragma once
// The benchmark's three workloads: what each sends to the CutService, how
// many jobs one run processes, and the output checks recorded with it.
//
// Every request is a pure function of (workload, seed, index): two builds
// given the same seed and run length process exactly the same requests, in
// the same rotation of request kinds, whatever their speed. Requests are
// generated one at a time as clients need them, so the generator's memory
// stays small next to the service's.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.hpp"
#include "cutting/request.hpp"

namespace perfbench {

/// A workload's inputs and sizes; BENCHMARK.json says why each exists.
struct Workload {
  std::string name;

  /// Closed-loop clients (requests outstanding at once).
  int clients = 1;

  /// Reconstruct each job inline on the service's scheduler thread (the
  /// small-circuit workloads): every request carries a one-worker pool for
  /// its reconstruction, on which parallel_for runs inline. On the
  /// service's 2-worker pool the scheduler thread would block on a
  /// fork-join across vCPUs for every job, and any of those vCPUs the host
  /// may be running another guest on: a burst of host steal then cost
  /// these workloads several times its own share of time. Variant
  /// execution stays on the service's pool either way.
  bool inline_reconstruction = false;

  /// Timed jobs per requested second of run length. The job count, not a
  /// time limit, ends the timed part, so a faster build processes the
  /// same requests in less time instead of a different mix.
  double jobs_per_second = 1.0;

  /// Equal-count segments of the timed part; the timing metrics are
  /// medians over them (see summarize in main.cpp). A segment must hold
  /// many times `clients` jobs, or the work in flight across its
  /// boundaries blurs its figures.
  int segments = 10;

  /// Warm-up jobs per set-up, drawn from a request stream disjoint from
  /// the timed one.
  int warmup_jobs = 0;

  /// Timed jobs [0, accuracy_jobs) form the fixed accuracy subset.
  int accuracy_jobs = 0;

  /// Per-job ceiling on the TVD between the reconstruction and the exact
  /// uncut distribution; a job above it fails its output check.
  double tvd_ceiling = 1.0;

  /// Requests replayed layer by layer in a traced run.
  int replay_jobs = 0;

  /// True for sweep_warm: a priming pass over the parameter grid runs in
  /// set-up, and every timed job must be served from the cache.
  bool primed = false;
};

/// The workload of that name (paper_mixed, wide_cold or sweep_warm).
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] const Workload& find_workload(std::string_view name);

/// Request generator of one workload under one seed.
class RequestSource {
 public:
  RequestSource(const Workload& workload, std::uint64_t seed);

  /// Timed request `index` (0-based).
  [[nodiscard]] qcut::cutting::CutRequest timed(std::uint64_t index) const;

  /// Warm-up request `index`; never equal to a timed request.
  [[nodiscard]] qcut::cutting::CutRequest warmup(std::uint64_t index) const;

  /// sweep_warm's priming pass: one request per grid point (empty for the
  /// cold workloads).
  [[nodiscard]] std::vector<qcut::cutting::CutRequest> priming() const;

 private:
  [[nodiscard]] qcut::cutting::CutRequest make(std::uint64_t stream, std::uint64_t index) const;

  const Workload& workload_;
  std::uint64_t seed_;
};

}  // namespace perfbench
