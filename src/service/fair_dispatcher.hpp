#pragma once
// Deterministic weighted-fair dispatch of variant-group tasks onto the
// thread pool (stride scheduling).
//
// Why not submit straight to the pool: ThreadPool's queue is FIFO, so one
// tenant's 369-variant wave enqueued first monopolizes every worker until
// it drains - a 5-variant interactive job behind it waits for all of it.
// The dispatcher interposes a per-tenant staging queue and releases at most
// one task per pool worker into the pool at a time; each released slot is
// granted to the tenant with the minimum stride pass value, so tenants make
// progress proportional to their weights regardless of arrival order or
// wave size.
//
// Determinism contract (qcut-lint clean): pass values advance by
// kStrideScale / weight per dispatch; ties break on submission sequence
// number, never on wall clock, thread identity, or ambient entropy. The
// same submission sequence therefore yields the same dispatch order on
// every run. Starvation is structurally impossible: every dispatch
// advances the chosen tenant's pass, so any tenant's pass eventually
// becomes the minimum (bounded by max_pass_gap = kStrideScale / 1).
//
// Tasks must not block on other dispatcher tasks (variant groups are
// independent by construction; reconstruction work bypasses the
// dispatcher), so capping in-pool tasks cannot deadlock.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include <condition_variable>

#include "parallel/thread_pool.hpp"
#include "telemetry/metrics.hpp"

namespace qcut::service {

class FairDispatcher {
 public:
  using Thunk = std::function<void()>;

  /// Pass-value increment for weight 1; a weight-w tenant advances by
  /// kStrideScale / w per dispatch, so it is chosen w times as often.
  static constexpr std::uint64_t kStrideScale = 1ull << 20;

  /// Tasks concurrently released into `pool` are capped at its worker
  /// count.
  explicit FairDispatcher(parallel::ThreadPool& pool,
                          telemetry::MetricsRegistry* metrics = nullptr);

  /// Blocks until every submitted task has finished, then destructs.
  ~FairDispatcher();

  FairDispatcher(const FairDispatcher&) = delete;
  FairDispatcher& operator=(const FairDispatcher&) = delete;

  /// Stages `task` on `tenant_key`'s queue with the given weight (>= 1;
  /// the effective weight, i.e. tenant weight x priority multiplier).
  /// A tenant's weight may change between submissions; the latest value
  /// applies from its next dispatch.
  void submit(const std::string& tenant_key, std::uint32_t weight, Thunk task);

  /// Blocks until all submitted tasks have completed.
  void drain();

 private:
  struct Tenant {
    std::uint64_t pass = 0;    // virtual time; min pass dispatches next
    std::uint32_t weight = 1;  // latest submitted weight
    std::deque<std::pair<std::uint64_t, Thunk>> queue;  // (sequence, task)
  };

  // Releases staged tasks into the pool while slots are free. Caller holds
  // mutex_.
  void pump(std::unique_lock<std::mutex>& lock);

  parallel::ThreadPool& pool_;
  unsigned width_;  // tasks in the pool at most: its worker count

  std::mutex mutex_;
  std::condition_variable drained_;
  // std::map: deterministic iteration order for the min-pass scan
  // (no-unordered-iteration).
  std::map<std::string, Tenant> tenants_;
  std::uint64_t next_sequence_ = 0;
  /// Floor for (re)activating tenants: a tenant that was idle takes
  /// pass = max(its old pass, virtual_time_), so it cannot bank credit
  /// while idle and then monopolize the pool on return.
  std::uint64_t virtual_time_ = 0;
  std::size_t in_pool_ = 0;
  std::size_t staged_ = 0;

  std::shared_ptr<telemetry::Counter> dispatches_;
  std::shared_ptr<telemetry::Gauge> staged_gauge_;
};

}  // namespace qcut::service
