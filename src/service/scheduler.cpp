#include "service/scheduler.hpp"

#include <memory>
#include <utility>

#include "common/error.hpp"

namespace qcut::service {

namespace {

/// Wave sizes grow with 6^Kin * 3^Kout, so power-of-two-ish buckets up to a
/// few thousand cover every realistic batch.
std::vector<double> batch_size_bounds() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096};
}

}  // namespace

VariantScheduler::VariantScheduler(FragmentResultCache& cache,
                                   telemetry::MetricsRegistry* metrics)
    : cache_(cache) {
  telemetry::MetricsRegistry& registry =
      metrics != nullptr ? *metrics : telemetry::MetricsRegistry::global();
  requests_ = registry.counter("scheduler.requests");
  cache_hits_ = registry.counter("scheduler.cache_hits");
  dedup_joins_ = registry.counter("scheduler.dedup_joins");
  executions_ = registry.counter("scheduler.executions");
  failures_ = registry.counter("scheduler.failures");
  in_flight_gauge_ = registry.gauge("scheduler.in_flight");
  batch_size_ = registry.histogram("scheduler.batch_size", batch_size_bounds());
  launch_size_ = registry.histogram("scheduler.launch_size", batch_size_bounds());
}

void VariantScheduler::request_batch(
    std::vector<BatchItem> items,
    const std::function<void(const std::vector<std::size_t>&)>& launch) {
  batch_size_->record(static_cast<double>(items.size()));
  // Cache pass first (the cache holds its own lock; never taken together
  // with mutex_). Hit callbacks fire inline, like request().
  std::vector<bool> hit(items.size(), false);
  std::size_t misses = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (std::optional<CachedDistribution> found = cache_.lookup(items[i].key)) {
      requests_->add();
      cache_hits_->add();
      hit[i] = true;
      items[i].on_ready(std::move(*found), nullptr, VariantSource::Cache);
    } else {
      ++misses;
    }
  }
  if (misses == 0) return;

  std::vector<std::size_t> to_launch;
  to_launch.reserve(misses);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (hit[i]) continue;
      requests_->add();
      auto [it, inserted] = in_flight_.try_emplace(items[i].key);
      if (inserted) {
        executions_->add();
        it->second.push_back(Waiter{std::move(items[i].on_ready), /*launcher=*/true});
        to_launch.push_back(i);
      } else {
        dedup_joins_->add();
        it->second.push_back(Waiter{std::move(items[i].on_ready), /*launcher=*/false});
      }
    }
    in_flight_gauge_->set(static_cast<std::int64_t>(in_flight_.size()));
  }
  // A twin execution may have completed between the cache miss and taking
  // mutex_; the item is then claimed for a relaunch instead of hitting the
  // fresh cache entry. That costs one redundant (deterministic, identical)
  // execution and is harmless; re-checking the cache here would invert the
  // lock order.
  if (!to_launch.empty()) {
    launch_size_->record(static_cast<double>(to_launch.size()));
    launch(to_launch);
  }
}

void VariantScheduler::complete(const Hash128& key, CachedDistribution result,
                                std::exception_ptr error) {
  if (error != nullptr) {
    complete_failed(std::span<const Hash128>(&key, 1), error);
    return;
  }
  cache_.insert(key, result);

  std::vector<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = in_flight_.find(key);
    QCUT_CHECK(it != in_flight_.end(),
               "VariantScheduler::complete: key was not claimed in flight");
    waiters = std::move(it->second);
    in_flight_.erase(it);
    in_flight_gauge_->set(static_cast<std::int64_t>(in_flight_.size()));
  }
  // Invoking the callbacks is the execution's final act: once the last
  // waiter's job finishes, the service may be torn down, so no member
  // access after this point.
  for (Waiter& w : waiters) {
    w.callback(result, nullptr,
               w.launcher ? VariantSource::Executed : VariantSource::SharedInFlight);
  }
}

void VariantScheduler::complete_failed(std::span<const Hash128> keys,
                                       const std::exception_ptr& error) {
  // A failure never enters the cache: the next request for any of these
  // keys misses, claims a fresh execution, and may well succeed (transient
  // backend faults). Eviction of the WHOLE group and waiter collection
  // happen under one lock, before any notification, so callbacks (and any
  // concurrent request_batch) never observe a half-failed group.
  std::vector<std::vector<Waiter>> waiters_per_key;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    waiters_per_key = evict_failed_locked(keys);
  }
  notify_failed(waiters_per_key, error);
}

bool VariantScheduler::abandon_unshared(std::span<const Hash128> keys,
                                        const std::exception_ptr& error) {
  std::vector<std::vector<Waiter>> waiters_per_key;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Hash128& key : keys) {
      const auto it = in_flight_.find(key);
      QCUT_CHECK(it != in_flight_.end(),
                 "VariantScheduler::abandon_unshared: key was not claimed in flight");
      if (it->second.size() > 1) return false;  // the launcher plus a joiner
    }
    waiters_per_key = evict_failed_locked(keys);
  }
  notify_failed(waiters_per_key, error);
  return true;
}

std::vector<std::vector<VariantScheduler::Waiter>> VariantScheduler::evict_failed_locked(
    std::span<const Hash128> keys) {
  std::vector<std::vector<Waiter>> waiters_per_key;
  waiters_per_key.reserve(keys.size());
  for (const Hash128& key : keys) {
    failures_->add();
    const auto it = in_flight_.find(key);
    QCUT_CHECK(it != in_flight_.end(),
               "VariantScheduler::complete_failed: key was not claimed in flight");
    waiters_per_key.push_back(std::move(it->second));
    in_flight_.erase(it);
  }
  in_flight_gauge_->set(static_cast<std::int64_t>(in_flight_.size()));
  return waiters_per_key;
}

void VariantScheduler::notify_failed(std::vector<std::vector<Waiter>>& waiters_per_key,
                                     const std::exception_ptr& error) {
  for (std::vector<Waiter>& waiters : waiters_per_key) {
    for (Waiter& w : waiters) {
      w.callback(nullptr, error,
                 w.launcher ? VariantSource::Executed : VariantSource::SharedInFlight);
    }
  }
}

SchedulerStats VariantScheduler::stats() const {
  SchedulerStats stats;
  stats.requests = requests_->value();
  stats.cache_hits = cache_hits_->value();
  stats.dedup_joins = dedup_joins_->value();
  stats.executions = executions_->value();
  stats.failures = failures_->value();
  return stats;
}

}  // namespace qcut::service
