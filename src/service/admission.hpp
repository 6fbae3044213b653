#pragma once
// Admission control for CutService: bounded job and in-flight-variant
// budgets, priced before any planning work runs.
//
// submit() must stay cheap and deterministic, so a job's cost is an O(1)
// upper-bound estimate: estimated_variant_count (cutting/request.hpp) for
// the variant bill, and one dense statevector of the full circuit's width
// per variant for the byte bill (sizeof(double) << num_qubits - the
// simulator's working set for that variant, before fragment splitting
// shrinks it). Estimates err high on purpose: admission that under-prices
// lets an overload through; over-pricing merely rejects a little early.
//
// All limits default to 0 = unbounded, so existing single-tenant users see
// no behavior change until they opt in.

#include <cstddef>
#include <cstdint>

#include "cutting/request.hpp"

namespace qcut::service {

/// Bounds checked by CutService::submit before a job is enqueued.
struct AdmissionOptions {
  /// Hard cap on jobs admitted and not yet finished (queued + executing).
  /// 0 = unbounded.
  std::size_t max_queued_jobs = 0;

  /// Hard cap on the summed estimated variant count of admitted jobs.
  /// 0 = unbounded.
  std::uint64_t max_in_flight_variants = 0;

  /// Hard cap on the summed estimated bytes of admitted jobs. 0 = unbounded.
  std::uint64_t max_in_flight_bytes = 0;

  /// Soft watermark for pressure-adaptive degradation: when the number of
  /// active jobs at admit time exceeds this, jobs that opted in via
  /// CutRequest::load_shed are served degraded (see LoadShedPolicy).
  /// 0 = shedding disabled.
  std::size_t shed_watermark_jobs = 0;

  /// Cooperative mode: instead of failing fast at the high watermark,
  /// submit() blocks (up to max_block_seconds) until the budgets admit the
  /// job. A job too large for an absolute budget even on an idle service
  /// still rejects immediately - waiting could never help.
  bool block = false;
  /// Finite and >= 0 (CutService's constructor checks); a bound past the
  /// clock's 2^64 ns range leaves only the request's deadline to end a wait.
  double max_block_seconds = 30.0;

  /// Base of the retry-after hint carried by ResourceExhausted: the hint is
  /// this value scaled by the overload depth (how many times over budget
  /// the service currently is), derived purely from queue state - never
  /// from a wall clock.
  double retry_after_hint_seconds = 0.05;
};

/// Pre-planning price of one job.
struct JobCost {
  std::uint64_t variants = 0;
  std::uint64_t bytes = 0;
};

/// Prices `request` for admission (see file comment for the model).
[[nodiscard]] JobCost estimate_job_cost(const cutting::CutRequest& request);

/// Current admission load, tracked by the service under its mutex.
struct AdmissionLoad {
  std::size_t jobs = 0;
  std::uint64_t variants = 0;
  std::uint64_t bytes = 0;
};

/// True when `cost` fits every configured budget on top of `load`.
[[nodiscard]] bool admits(const AdmissionOptions& options, const AdmissionLoad& load,
                          const JobCost& cost);

/// True when `cost` violates some absolute budget even at zero load, i.e.
/// blocking can never admit it.
[[nodiscard]] bool never_admits(const AdmissionOptions& options, const JobCost& cost);

/// Deterministic retry-after hint: retry_after_hint_seconds scaled by how
/// far past its budgets the service is (load relative to each configured
/// limit, worst ratio), clamped to [hint, 60 * hint].
[[nodiscard]] double retry_after_hint(const AdmissionOptions& options,
                                      const AdmissionLoad& load, const JobCost& cost);

}  // namespace qcut::service
