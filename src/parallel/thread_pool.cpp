#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"

namespace qcut::parallel {

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
  tasks_ = registry.counter("pool.tasks");
  busy_ns_ = registry.counter("pool.busy_ns");
  queue_depth_ = registry.gauge("pool.queue_depth");
  workers_gauge_ = registry.gauge("pool.workers");
  // 1us .. ~4s in powers of 4: pool tasks span tiny reconstruction chunks
  // to whole backend batches.
  task_seconds_ = registry.histogram("pool.task_seconds",
                                     telemetry::exponential_bounds(1e-6, 4.0, 12));
  workers_gauge_->set(static_cast<std::int64_t>(num_threads));
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    QCUT_CHECK(!stopping_, "ThreadPool: submit after shutdown");
    queue_.push_back(std::move(job));
    queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
  }
  wake_.notify_one();
}

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

namespace {
thread_local bool t_in_pool_worker = false;
}  // namespace

bool in_pool_worker() noexcept { return t_in_pool_worker; }

void ThreadPool::worker_loop() {
  t_in_pool_worker = true;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stopping_ and no work left
        return;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
    }
    tasks_->add();
    if (telemetry::enabled()) {
      const auto start = std::chrono::steady_clock::now();
      job();  // packaged_task captures exceptions into the future
      const auto elapsed = std::chrono::steady_clock::now() - start;
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
      busy_ns_->add(static_cast<std::uint64_t>(ns));
      task_seconds_->record(static_cast<double>(ns) * 1e-9);
    } else {
      job();  // packaged_task captures exceptions into the future
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn, std::size_t grain) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const std::size_t workers = std::max<std::size_t>(1, pool.size());
  const std::size_t chunk =
      std::max<std::size_t>(std::max<std::size_t>(1, grain),
                            (count + workers * 4 - 1) / (workers * 4));

  if (workers == 1 || count <= chunk) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  std::vector<std::future<void>> futures;
  for (std::size_t lo = begin; lo < end; lo += chunk) {
    const std::size_t hi = std::min(end, lo + chunk);
    futures.push_back(pool.submit([lo, hi, &fn]() {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  // Every chunk finishes before any exception leaves: the chunks still
  // running would otherwise call `fn` after the caller's frame is gone.
  for (auto& f : futures) f.wait();
  for (auto& f : futures) f.get();
}

}  // namespace qcut::parallel
