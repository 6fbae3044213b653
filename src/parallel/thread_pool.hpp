#pragma once
// Fixed-size thread pool with future-based task submission.
//
// Circuit cutting is embarrassingly parallel across fragment variants
// (3^K upstream settings, 6^K downstream preparations) and across
// reconstruction terms; the pool is the single execution resource shared
// by those stages. Exceptions thrown inside tasks propagate through the
// returned futures.

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "telemetry/metrics.hpp"

namespace qcut::parallel {

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers; 0 selects
  /// hardware_concurrency (at least 1).
  explicit ThreadPool(unsigned num_threads = 0);

  /// Drains outstanding tasks and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Tasks enqueued and not yet claimed by a worker. A point-in-time
  /// reading for overload/backpressure decisions (the service's admission
  /// layer), not a synchronization primitive.
  [[nodiscard]] std::size_t queue_depth() const;

  /// Schedules a callable; the returned future yields its result (or
  /// rethrows its exception).
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<std::decay_t<F>>> submit(F&& task) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto packaged = std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> future = packaged->get_future();
    enqueue([packaged]() { (*packaged)(); });
    return future;
  }

  /// Process-wide default pool (created on first use).
  [[nodiscard]] static ThreadPool& global();

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  // Pool instruments (global registry). Task count and queue depth are
  // always on; task latency and busy time need clock reads and record only
  // while telemetry::enabled().
  std::shared_ptr<telemetry::Counter> tasks_;
  std::shared_ptr<telemetry::Counter> busy_ns_;
  std::shared_ptr<telemetry::Gauge> queue_depth_;
  std::shared_ptr<telemetry::Gauge> workers_gauge_;
  std::shared_ptr<telemetry::Histogram> task_seconds_;
};

/// True when the calling thread is a ThreadPool worker (any pool). Code
/// that would block on pool futures — e.g. the statevector gate kernels
/// threading over amplitude chunks — must run inline instead when already
/// on a worker: a nested parallel wait can deadlock a saturated pool.
[[nodiscard]] bool in_pool_worker() noexcept;

/// Runs fn(i) for i in [begin, end), distributing chunks over the pool.
/// Runs inline when the range is small or the pool has a single worker.
/// The first exception thrown by any invocation is rethrown, once every
/// chunk has finished.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn, std::size_t grain = 1);

/// Parallel reduction: combine(fn(i)) over [begin, end) with `identity` as
/// the initial value. `combine` must be associative.
template <typename T, typename Map, typename Combine>
[[nodiscard]] T parallel_map_reduce(ThreadPool& pool, std::size_t begin, std::size_t end,
                                    T identity, Map&& map_fn, Combine&& combine,
                                    std::size_t grain = 1) {
  if (begin >= end) return identity;
  const std::size_t count = end - begin;
  const std::size_t workers = std::max<std::size_t>(1, pool.size());
  const std::size_t chunk = std::max<std::size_t>(grain, (count + workers * 4 - 1) / (workers * 4));

  if (workers == 1 || count <= chunk) {
    T acc = identity;
    for (std::size_t i = begin; i < end; ++i) acc = combine(std::move(acc), map_fn(i));
    return acc;
  }

  std::vector<std::future<T>> futures;
  for (std::size_t lo = begin; lo < end; lo += chunk) {
    const std::size_t hi = std::min(end, lo + chunk);
    futures.push_back(pool.submit([lo, hi, identity, &map_fn, &combine]() {
      T acc = identity;
      for (std::size_t i = lo; i < hi; ++i) acc = combine(std::move(acc), map_fn(i));
      return acc;
    }));
  }
  // As in parallel_for: no exception leaves while a chunk still runs.
  for (auto& f : futures) f.wait();
  T acc = identity;
  for (auto& f : futures) acc = combine(std::move(acc), f.get());
  return acc;
}

}  // namespace qcut::parallel
