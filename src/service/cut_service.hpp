#pragma once
// CutService: an asynchronous cut-execution service.
//
// Accepts many concurrent cut-run requests and serves them through a job
// queue, a phase scheduler that fans fragment variants onto the thread
// pool, cross-request variant deduplication, and a content-addressed
// fragment-result cache (see scheduler.hpp / fragment_cache.hpp). The
// paper's neglect of basis elements shrinks the variant set one request
// must execute; the service extends the same idea across requests: a
// variant executed for any request is never executed again while cached,
// and identical in-flight variants are shared.
//
// The service accepts the unified cutting::CutRequest (cutting/request.hpp):
// explicit single-boundary cuts, explicit chains, AutoPlan or AutoChainPlan,
// distribution or observable/Pauli targets, all four GoldenModes. qcut::run
// (cutting/pipeline.hpp) is a thin synchronous wrapper over this service.
// Every job executes over a FragmentGraph; static golden modes run one wave
// covering all fragments, DetectOnline runs one wave per fragment (fragment
// f's measured data prunes boundary f before fragment f+1 is issued) so
// detection of one request never blocks execution of another. Targets are
// job-level state only - they never enter the variant cache key - so a
// distribution job and an observable job over the same fragments share
// every variant.
//
// Threading: scheduler threads advance jobs (planning, wave issue,
// detection, reconstruction) and the pool executes their variants. One
// scheduler thread starts with the service; another starts whenever a job
// becomes ready while every running one holds a job, up to the pool's
// worker count. A thread holds a job from taking it off the ready queue
// until the hand-off that ends its turn (scheduler_loop), so one job is
// never advanced by two threads at once.
//
// Determinism: given equal seeds the service produces distributions
// bit-for-bit identical to the direct execute_chain +
// reconstruct_distribution path, regardless of concurrency, caching, or
// dedup - seed streams are assigned per variant, not per schedule.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "backend/backend.hpp"
#include "common/retry.hpp"
#include "cutting/pipeline.hpp"
#include "service/admission.hpp"
#include "service/fair_dispatcher.hpp"
#include "service/fragment_cache.hpp"
#include "service/job.hpp"
#include "service/scheduler.hpp"

namespace qcut::service {

struct CutServiceOptions {
  /// Pool executing fragment variants and reconstruction; nullptr selects
  /// the global pool.
  parallel::ThreadPool* pool = nullptr;

  /// Fragment-result cache capacity in entries; 0 disables caching
  /// (in-flight dedup still applies).
  std::size_t cache_capacity = 4096;

  /// Byte bound on the fragment-result cache (payloads + bookkeeping);
  /// 0 = entry count only. See FragmentResultCache.
  std::uint64_t cache_max_bytes = 0;

  /// Admission control: bounded job / in-flight-variant / byte budgets,
  /// load-shed watermark, and the bounded-block mode. All limits default
  /// to unbounded (the pre-admission behavior).
  AdmissionOptions admission;

  /// Registry the service's instruments (job counters, scheduler, cache)
  /// register on; nullptr selects the global registry. Pass a private
  /// registry to isolate one service's metrics from the rest of the
  /// process.
  telemetry::MetricsRegistry* metrics = nullptr;

  /// Retry policy for variant-group executions failing with TransientError
  /// (common/retry.hpp). Retries re-run the identical (circuit, shots,
  /// seed stream) batch, so a retried success is bit-for-bit the fault-free
  /// result. max_attempts = 1 disables retry. A group whose batch still
  /// fails is split: each member runs alone under this same policy.
  RetryPolicy retry;

  /// How retry code waits out backoff delays; the default really sleeps.
  /// Tests inject a recording no-op so nothing wall-blocks.
  Sleeper sleeper;

  /// Monotonic nanosecond clock behind job deadlines; the default is
  /// monotonic_now_ns. Tests inject a controlled counter.
  MonotonicClock clock;
};

struct CutServiceStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  /// Requests refused at admission (never became jobs; not counted in
  /// jobs_submitted).
  std::uint64_t jobs_rejected = 0;
  /// Jobs served degraded under their LoadShedPolicy.
  std::uint64_t jobs_shed = 0;
  SchedulerStats scheduler;
  CacheStats cache;

  /// Full snapshot of the service's registry: the job/scheduler/cache
  /// fields above are thin views over the same instruments, so e.g.
  /// `cache.hits == telemetry.counter_value("cache.hits")` bit-for-bit
  /// (when the service owns a private registry).
  telemetry::MetricsSnapshot telemetry;
};

class CutService {
 public:
  explicit CutService(backend::Backend& backend, CutServiceOptions options = {});

  /// Waits for every submitted job, then stops the scheduler threads.
  ~CutService();

  CutService(const CutService&) = delete;
  CutService& operator=(const CutService&) = delete;

  /// Enqueues one cut request. Validation is eager: malformed requests
  /// throw qcut::Error here, before anything is queued. Failures discovered
  /// later (invalid bipartition, no plannable cut, backend errors) are
  /// rethrown by the future.
  ///
  /// Overload behavior (options.admission): a request that would exceed a
  /// configured budget throws ResourceExhausted here - fail-fast and typed,
  /// never a future that hangs - unless admission.block is set, in which
  /// case submit() waits up to max_block_seconds for load to drain before
  /// rejecting. A request whose deadline is already unmeetable (expired
  /// deadline_at_ns, or a bounded-block wait that consumed the whole
  /// deadline) throws DeadlineExceeded without enqueueing.
  [[nodiscard]] std::future<cutting::CutResponse> submit(cutting::CutRequest request);

  /// A submitted job's handle: the id addresses cancel().
  struct SubmittedJob {
    std::uint64_t id = 0;
    std::future<cutting::CutResponse> future;
  };

  /// Like submit(), also returning the job id for cancellation.
  [[nodiscard]] SubmittedJob submit_job(cutting::CutRequest request);

  /// Requests cancellation of a job by id. Checked at wave boundaries (the
  /// job's in-flight variants are drained first, so no scheduler key is
  /// stranded); a cancelled job's future throws CancelledError. Returns
  /// false when the job already finished or the id is unknown.
  bool cancel(std::uint64_t job_id);

  /// Synchronous convenience: submit and wait.
  [[nodiscard]] cutting::CutResponse run(const cutting::CutRequest& request);

  /// Blocks until every job submitted so far has finished.
  void wait_idle();

  [[nodiscard]] CutServiceStats stats() const;
  [[nodiscard]] const FragmentResultCache& cache() const noexcept { return cache_; }

 private:
  using JobPtr = std::shared_ptr<CutJob>;

  /// What identifies one variant execution of the current wave beyond its
  /// slot: the cache key and the seed stream. Its circuit is built only if
  /// the key misses and this wave launches it.
  struct PreparedVariant {
    Hash128 key;
    std::uint64_t seed_stream = 0;
  };

  /// One scheduler thread: takes ready jobs, advances each by one step and
  /// hands it off (see the hand-off comment in the loop).
  void scheduler_loop();

  /// Queues a ready job and wakes a scheduler thread for it, starting one
  /// more thread when every running one holds a job, up to the pool's
  /// worker count. Caller holds mutex_.
  void push_ready_locked(JobPtr job);

  void advance(const JobPtr& job);
  void admit(const JobPtr& job);
  void issue_wave(const JobPtr& job, const std::vector<WaveVariant>& variants);

  /// Executes the cache-missed, deduped variants of a wave: builds their
  /// circuits, groups them by shared circuit prefix and submits one
  /// Backend::run_batch pool task per group, publishing each variant through
  /// VariantScheduler::complete. A build that throws fails every launched
  /// key, so none is left in flight.
  /// A group's batch runs under run_with_retry. When a batch of several
  /// members ends in an error, each member runs alone under the same policy
  /// and only the keys whose own run fails are failed, so one bad variant
  /// never takes its prefix siblings down with it. `job` is the issuing
  /// job: a stop condition (deadline / cancellation) observed before a
  /// batch runs, or between its retries, drains the batch's keys without
  /// touching the backend, unless another job joined one of them in flight
  /// (VariantScheduler::abandon_unshared).
  void launch_variant_groups(const JobPtr& job, const std::vector<PreparedVariant>& prepared,
                             const std::vector<std::size_t>& to_launch, bool exact);

  /// What one batch run under the retry policy ended in.
  struct BatchOutcome {
    bool abandoned = false;                   // a stop condition drained the keys instead
    std::vector<CachedDistribution> results;  // one per job when it succeeded
    std::exception_ptr error;                 // set when it failed
  };

  /// Runs `batch` through backend.run_batch, retrying TransientError per
  /// options.retry with the identical batch and `jitter_stream` as the
  /// backoff jitter stream. A stop condition of `owner` seen before the
  /// first attempt or between retries abandons `keys` (abandon_unshared)
  /// instead; nothing is published here.
  [[nodiscard]] BatchOutcome run_with_retry(CutJob& owner, const backend::BatchRequest& batch,
                                            std::span<const Hash128> keys,
                                            std::uint64_t jitter_stream);

  void absorb_wave(const JobPtr& job);
  void handle_fragment_wave_complete(const JobPtr& job);
  void reconstruct_and_finish(const JobPtr& job);
  /// Marks the job Failed with `error`; the hand-off delivers it.
  void fail(const JobPtr& job, std::exception_ptr error);
  void enqueue_ready(const JobPtr& job);

  /// Deadline / cancellation check: returns the terminal error to fail the
  /// job with, or nullptr when the job may proceed. Increments the matching
  /// counter at most once per job (callers fail the job right away).
  [[nodiscard]] std::exception_ptr job_stop_error(CutJob& job);

  /// Resolves the wave's collected slot failures at the wave boundary.
  /// Returns nullptr when the job may proceed (no failures, or every
  /// failure was neglected under OnVariantFailure::Neglect — in which case
  /// the failed variants are recorded in job.neglected and their
  /// reconstruction strings dropped from the job's specs); otherwise the
  /// enriched error to fail the job with.
  [[nodiscard]] std::exception_ptr handle_wave_failures(const JobPtr& job);

  /// Drops the reconstruction strings that require the failed variant
  /// (fragment, key) from the job's chain specs, recording the per-boundary
  /// drop counts. The neglect analogy made literal: the strings disappear
  /// from reconstruction exactly as golden-detected negligible bases do.
  void apply_variant_drop(CutJob& job, int fragment, cutting::FragmentVariantKey key);

  /// Builds response.degradation from job.neglected / job.dropped_strings
  /// and the job's load-shed state.
  void finalize_degradation(CutJob& job);

  /// Returns the job's admission budgets to the pool and wakes blocked
  /// submitters. Called exactly once per finished job (done or failed), by
  /// its hand-off, with mutex_ held.
  void release_admission_locked(CutJob& job);

  /// Applies the job's LoadShedPolicy when the service is past the shed
  /// watermark at admit time: scales the shot knobs and arms the loosened
  /// DetectExact tolerance. No-op for jobs that did not opt in.
  void maybe_shed(CutJob& job);

  /// Records one finished phase of a traced job: a span on the job's
  /// virtual tracer track plus a response.phase_seconds entry. No-op for
  /// untraced jobs.
  void record_job_phase(CutJob& job, const char* name, std::uint64_t start_ns,
                        std::uint64_t end_ns, std::uint32_t depth = 1);

  backend::Backend& backend_;
  parallel::ThreadPool& pool_;
  /// backend_.identity(), folded into every cache key.
  const std::string backend_identity_;
  telemetry::MetricsRegistry& metrics_;  // before cache_/scheduler_: they register on it
  FragmentResultCache cache_;
  VariantScheduler scheduler_;
  /// Weighted-fair release of variant-group tasks into the pool. After the
  /// pool reference it dispatches onto.
  FairDispatcher dispatcher_;

  // Fault tolerance: retry policy plus the injected clock and sleeper
  // (defaults wired in the constructor; service code never reads a wall
  // clock or ambient entropy directly).
  const RetryPolicy retry_;
  Sleeper sleeper_;
  MonotonicClock clock_;

  /// Admission budgets (immutable after construction).
  const AdmissionOptions admission_;

  // Job-lifecycle instruments; CutServiceStats' integer fields are views.
  std::shared_ptr<telemetry::Counter> jobs_submitted_;
  std::shared_ptr<telemetry::Counter> jobs_completed_;
  std::shared_ptr<telemetry::Counter> jobs_failed_;
  std::shared_ptr<telemetry::Counter> waves_;
  std::shared_ptr<telemetry::Gauge> active_jobs_gauge_;
  std::shared_ptr<telemetry::Histogram> wave_variants_;

  // Fault-tolerance instruments.
  std::shared_ptr<telemetry::Counter> retries_;
  std::shared_ptr<telemetry::Counter> variants_neglected_;
  std::shared_ptr<telemetry::Counter> deadline_exceeded_;
  std::shared_ptr<telemetry::Counter> cancelled_;
  std::shared_ptr<telemetry::Histogram> backoff_seconds_;

  // Overload-control instruments.
  std::shared_ptr<telemetry::Counter> admission_rejected_;
  std::shared_ptr<telemetry::Counter> load_shed_;
  std::shared_ptr<telemetry::Gauge> queue_depth_gauge_;
  /// Queue wait (submit to admit) per priority class, seconds.
  std::shared_ptr<telemetry::Histogram> wait_interactive_;
  std::shared_ptr<telemetry::Histogram> wait_standard_;
  std::shared_ptr<telemetry::Histogram> wait_batch_;
  /// Scheduler threads started ("service.scheduler_threads"; 0 once the
  /// service is destroyed).
  std::shared_ptr<telemetry::Gauge> scheduler_threads_gauge_;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  /// Wakes bounded-block submitters when a finishing job returns budget.
  std::condition_variable admission_cv_;
  /// Estimated variants / bytes held by admitted, unfinished jobs.
  std::uint64_t admitted_variants_ = 0;
  std::uint64_t admitted_bytes_ = 0;
  std::deque<JobPtr> ready_;
  /// Live jobs by id, for cancel(); entries are erased when a job finishes.
  std::unordered_map<std::uint64_t, JobPtr> jobs_;
  std::size_t active_jobs_ = 0;
  bool stopping_ = false;
  std::uint64_t next_job_id_ = 1;

  /// Scheduler threads, started on demand up to max_schedulers_ (the
  /// pool's worker count, or fewer if the system refuses a thread), and how
  /// many of them hold a job right now.
  std::vector<std::thread> schedulers_;
  std::size_t max_schedulers_;
  std::size_t busy_schedulers_ = 0;
};

}  // namespace qcut::service
