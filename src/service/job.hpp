#pragma once
// Cut-run jobs: the unit of work the CutService queues and drives.
//
// A job is one CutRequest (circuit, target, cut selection, options). The
// service resolves it at admission (auto-planning, Pauli-target rotation)
// and advances it through phases; each executing phase is a "wave" of
// variant executions fanned out through the VariantScheduler. Static golden
// modes run a single wave covering every fragment of the chain. Online
// detection (GoldenMode::DetectOnline) runs one wave per fragment: fragment
// f's measured data prunes boundary f's spec before fragment f+1 executes —
// which is why the phase machine exists at all: requests interleave at wave
// granularity instead of blocking the service on one request's detector.
//
// The target never enters the variant cache key (a variant's outcome
// distribution does not depend on what is estimated from it), so a
// distribution job and an observable job over the same fragments share
// every variant.

#include <atomic>
#include <cstdint>
#include <exception>
#include <future>
#include <mutex>
#include <vector>

#include "common/stopwatch.hpp"
#include "cutting/request.hpp"
#include "service/fragment_cache.hpp"

namespace qcut::service {

enum class JobPhase {
  Queued,                 // submitted, not yet planned
  ExecutingFragments,     // single wave: every fragment together
  ExecutingFragmentWave,  // online detection: one fragment's wave
  Done,
  Failed,
};

/// One variant execution a job is waiting on. Slots are preallocated before
/// requests are issued, so completion callbacks (which may run concurrently
/// on pool threads) write disjoint entries without locking.
struct VariantSlot {
  int fragment = 0;
  cutting::FragmentVariantKey key;
  std::size_t shots = 0;          // planned shots; 0 in exact mode
  CachedDistribution result;      // written by the scheduler callback
};

/// One variant slot whose execution failed (after the service's retry
/// policy was exhausted). Collected during the wave, resolved at the wave
/// boundary per CutRequest::on_variant_failure.
struct SlotFailure {
  std::size_t slot = 0;
  std::exception_ptr error;
};

/// Physical backend work attributed to this job. Variants served from the
/// cache or shared with another in-flight request consumed no backend time.
struct JobAccounting {
  std::atomic<std::uint64_t> variants_executed{0};
  std::atomic<std::uint64_t> variants_from_cache{0};
  std::atomic<std::uint64_t> variants_shared{0};
  std::atomic<std::uint64_t> shots_executed{0};
};

struct CutJob {
  CutJob(std::uint64_t job_id, cutting::CutRequest job_request)
      : id(job_id), request(std::move(job_request)) {}

  const std::uint64_t id;
  cutting::CutRequest request;

  /// Filled at admission by cutting::resolve (the planner may run here).
  cutting::ResolvedRequest resolved;

  std::promise<cutting::CutResponse> promise;

  // Owned by the scheduler thread advancing the job, one at a time: a
  // thread holds the job from taking it off the ready queue until its
  // hand-off (CutService::scheduler_loop), and a wave cannot requeue the
  // job before the hand-off releases the issuer's count in `pending`.
  JobPhase phase = JobPhase::Queued;
  int wave_fragment = 0;  // online mode: which fragment the current wave runs
  /// DetectOnline with a total_shot_budget: the budget not yet committed
  /// to earlier waves (one budget amortized across all fragment waves).
  std::size_t online_budget_remaining = 0;
  cutting::CutResponse response;

  // Current wave. `pending` counts the wave's unfinished slots plus one
  // for the issuing scheduler thread until its hand-off; whoever brings it
  // to zero requeues the job.
  std::vector<VariantSlot> slots;
  std::atomic<std::size_t> pending{0};
  std::size_t wave_smallest_share = 0;  // the wave's per-variant shot floor
  Stopwatch wave_timer;
  Stopwatch total_timer;

  // Telemetry: engaged at admission when telemetry::enabled(). The job hops
  // between scheduler threads and pool workers, so its phase spans are
  // recorded on a dedicated virtual tracer track ("job <id>") from measured
  // tracer-clock timestamps rather than RAII scopes.
  bool traced = false;
  std::uint32_t trace_track = 0;   // the job's virtual tracer track
  std::uint64_t job_start_ns = 0;  // tracer-clock admission timestamp
  std::uint64_t wave_start_ns = 0; // tracer-clock start of the current wave

  // Slot failures are collected as they arrive (pool threads) and resolved
  // by the job's next scheduler turn at the wave boundary, once pending
  // hits 0: OnVariantFailure::Fail propagates the first failure enriched
  // with the variant's identity and the co-failure count; Neglect drops the
  // failed variants from reconstruction and the job continues.
  std::atomic<bool> failed{false};
  std::mutex failure_mutex;
  std::vector<SlotFailure> failures;

  /// Terminal error (deadline, cancellation, a Fail-policy wave failure or
  /// any other throw), set by CutService::fail and moved into the promise
  /// by the hand-off.
  std::exception_ptr error;

  // Graceful degradation (OnVariantFailure::Neglect): variants dropped so
  // far and, per boundary, how many reconstruction strings they removed.
  // Owned by the scheduler thread advancing the job.
  std::vector<cutting::NeglectedVariant> neglected;
  std::vector<std::uint64_t> dropped_strings;  // one entry per boundary

  // Deadline and cancellation, checked at wave boundaries.
  std::uint64_t deadline_ns = 0;  // absolute, on the service clock; 0 = none
  std::atomic<bool> cancel_requested{false};

  // Multi-tenant fairness: the dispatcher key ("tenant_id/priority") and
  // effective weight (tenant_weight x priority multiplier), fixed at submit.
  std::string tenant_key;
  std::uint32_t effective_weight = 1;

  // Admission accounting: the budgets this job holds until it finishes
  // (released by the hand-off of a done or failed job), and when it was
  // admitted (service clock, for the per-class wait histogram).
  std::uint64_t admitted_variants = 0;
  std::uint64_t admitted_bytes = 0;
  std::uint64_t submit_ns = 0;

  // Load shedding: set by admit() when the service was past the shed
  // watermark and the request opted in. Owned by the scheduler thread
  // advancing the job.
  bool shed = false;
  double shed_shot_fraction = 1.0;
  double shed_golden_tol = 0.0;     // tolerance actually used by DetectExact
  double shed_neglect_mass = 0.0;   // summed violation of extra-neglected elements

  JobAccounting accounting;
};

/// Priority-class weight multiplier (Interactive 4, Standard 2, Batch 1).
[[nodiscard]] std::uint32_t priority_multiplier(cutting::PriorityClass priority) noexcept;

/// Dispatcher key charged for a job's variant work: "tenant_id/<class>".
/// The class is part of the key so one tenant's Interactive and Batch
/// streams are separate scheduling entities with different weights.
[[nodiscard]] std::string tenant_dispatch_key(const cutting::CutRequest& request);

/// One variant of one fragment, before shot planning.
struct WaveVariant {
  int fragment = 0;
  cutting::FragmentVariantKey key;
};

/// A planned wave: slots plus the totals the direct path would have
/// recorded in ChainFragmentData for the same variants.
struct WavePlan {
  std::vector<VariantSlot> slots;
  std::size_t smallest_share = 0;        // shots_per_variant floor; 0 in exact mode
  std::uint64_t planned_total_shots = 0; // 0 in exact mode
};

/// Plans one wave over `variants` in order, splitting shots exactly as the
/// direct execution path does (see plan_variant_shots): the two paths must
/// agree bit-for-bit.
[[nodiscard]] WavePlan plan_wave(const std::vector<WaveVariant>& variants,
                                 std::size_t shots_per_variant, std::size_t total_shot_budget,
                                 bool exact);

}  // namespace qcut::service
