#pragma once
// Variant scheduler: the dedup + cache layer between cut-run jobs and the
// thread pool.
//
// Every variant execution is content-addressed (see circuit_hash.hpp). A
// requested item first consults the fragment-result cache; on a miss it
// either joins an identical in-flight execution claimed by another request
// (cross-request deduplication - two concurrent jobs needing the same
// upstream setting share one backend run) or is claimed in flight and
// handed back to the caller's launcher, which executes the surviving items
// (typically grouped into shared-prefix Backend::run_batch calls) and
// publishes each through complete(). Results enter the cache before
// waiters are notified, so a request arriving one instant later still
// hits.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "service/fragment_cache.hpp"

namespace qcut::service {

/// How a request's result was obtained; Executed means this request's
/// execute function ran on the backend (and its job should be billed).
enum class VariantSource { Executed, Cache, SharedInFlight };

/// Thin view over the scheduler's telemetry counters ("scheduler.requests",
/// "scheduler.cache_hits", ...): the legacy accessor and a MetricsSnapshot
/// report bit-identical values.
struct SchedulerStats {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t dedup_joins = 0;   // requests satisfied by joining an in-flight twin
  std::uint64_t executions = 0;    // backend executions actually launched
  std::uint64_t failures = 0;      // executions that threw
};

class VariantScheduler {
 public:
  /// Exactly one of result / error is set. May be invoked inline from
  /// request_batch() (cache hit) or later from whichever thread the
  /// launcher publishes complete() on. Always runs exactly once per item;
  /// the caller must keep this scheduler alive until every callback has
  /// fired (the CutService waits for all jobs).
  using Callback =
      std::function<void(CachedDistribution result, std::exception_ptr error, VariantSource source)>;

  /// Counters register on `metrics` (the global registry when nullptr).
  explicit VariantScheduler(FragmentResultCache& cache,
                            telemetry::MetricsRegistry* metrics = nullptr);

  VariantScheduler(const VariantScheduler&) = delete;
  VariantScheduler& operator=(const VariantScheduler&) = delete;

  /// One item of a batched request: dedup/cache identity plus the result
  /// callback. What to execute is the launcher's business (see below), so
  /// the launcher can group the surviving items into shared-prefix backend
  /// batches instead of one execution per item.
  struct BatchItem {
    Hash128 key;
    Callback on_ready;
  };

  /// Batched request(): each item is served from the cache or joins an
  /// in-flight twin exactly as request() would; the items that must
  /// actually execute are claimed in flight and their indices handed to
  /// `launch` in one call (invoked synchronously, once, only when
  /// non-empty). For every claimed item the launcher must eventually call
  /// complete() with its key exactly once — typically from pool tasks
  /// running grouped Backend::run_batch calls.
  void request_batch(std::vector<BatchItem> items,
                     const std::function<void(const std::vector<std::size_t>&)>& launch);

  /// Publishes the result (or failure) of an execution claimed via
  /// request_batch: inserts into the cache and notifies the launcher and
  /// every waiter that joined in flight. A failure never touches the cache,
  /// and the failed key is evicted from the in-flight table atomically with
  /// collecting its waiters (single critical section), so a callback that
  /// re-requests the key claims a fresh execution rather than joining the
  /// dead one.
  void complete(const Hash128& key, CachedDistribution result, std::exception_ptr error);

  /// Fails several keys at once: all keys are evicted from the in-flight
  /// table under ONE critical section before any waiter is notified, so a
  /// concurrent request never observes the set half-evicted. The service
  /// uses it when it cannot run a launch at all (a variant build throws).
  void complete_failed(std::span<const Hash128> keys, const std::exception_ptr& error);

  /// complete_failed() for a group its launcher no longer needs (its job
  /// stopped), unless another request joined one of the keys in flight:
  /// then nothing changes and it returns false, because the group must
  /// still run for the joiner. The check and the eviction share one
  /// critical section with joins, so no request joins a key it abandons.
  [[nodiscard]] bool abandon_unshared(std::span<const Hash128> keys,
                                      const std::exception_ptr& error);

  [[nodiscard]] SchedulerStats stats() const;

 private:
  struct Waiter {
    Callback callback;
    bool launcher = false;  // this request claimed the execution
  };

  /// Evicts `keys` from the in-flight table and returns their waiters.
  /// Caller holds mutex_.
  std::vector<std::vector<Waiter>> evict_failed_locked(std::span<const Hash128> keys);

  /// Invokes every evicted waiter with `error`, outside mutex_.
  static void notify_failed(std::vector<std::vector<Waiter>>& waiters_per_key,
                            const std::exception_ptr& error);

  FragmentResultCache& cache_;
  mutable std::mutex mutex_;
  std::unordered_map<Hash128, std::vector<Waiter>, Hash128Hasher> in_flight_;

  // This instance's registry instruments; stats() is a view over them.
  std::shared_ptr<telemetry::Counter> requests_;
  std::shared_ptr<telemetry::Counter> cache_hits_;
  std::shared_ptr<telemetry::Counter> dedup_joins_;
  std::shared_ptr<telemetry::Counter> executions_;
  std::shared_ptr<telemetry::Counter> failures_;
  std::shared_ptr<telemetry::Gauge> in_flight_gauge_;
  std::shared_ptr<telemetry::Histogram> batch_size_;
  std::shared_ptr<telemetry::Histogram> launch_size_;
};

}  // namespace qcut::service
