#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace qcut::parallel {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)f.get(), std::runtime_error);
}

TEST(ThreadPool, SingleWorkerPool) {
  ThreadPool pool(1);
  auto a = pool.submit([] { return 1; });
  auto b = pool.submit([] { return 2; });
  EXPECT_EQ(a.get() + b.get(), 3);
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(500);
  parallel_for(pool, 0, 500, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [](std::size_t i) {
                     if (i == 57) throw Error("failure injection");
                   }),
      Error);
}

TEST(ParallelFor, FinishesEveryChunkBeforeRethrowing) {
  // Chunk 0 throws at once while the other 15 chunks are still running;
  // the exception may only leave once they have all finished, since they
  // call a function that lives in this frame.
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(parallel_for(pool, 0, 64,
                            [&](std::size_t i) {
                              if (i == 0) throw Error("failure injection");
                              std::this_thread::sleep_for(std::chrono::milliseconds(2));
                              finished.fetch_add(1);
                            }),
               Error);
  EXPECT_EQ(finished.load(), 60);  // chunks of 4: all but chunk 0
}

TEST(ParallelFor, RespectsGrain) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  parallel_for(pool, 0, 10, [&](std::size_t) { count.fetch_add(1); }, /*grain=*/100);
  EXPECT_EQ(count.load(), 10);
}

TEST(ParallelMapReduce, SumsCorrectly) {
  ThreadPool pool(4);
  const long expected = 1000L * 999L / 2L;
  const long total = parallel_map_reduce<long>(
      pool, 0, 1000, 0L, [](std::size_t i) { return static_cast<long>(i); },
      [](long a, long b) { return a + b; });
  EXPECT_EQ(total, expected);
}

TEST(ParallelMapReduce, VectorAccumulation) {
  ThreadPool pool(3);
  const std::vector<double> result = parallel_map_reduce<std::vector<double>>(
      pool, 0, 64, std::vector<double>(4, 0.0),
      [](std::size_t i) {
        std::vector<double> v(4, 0.0);
        v[i % 4] = 1.0;
        return v;
      },
      [](std::vector<double> a, std::vector<double> b) {
        for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
        return a;
      });
  for (double v : result) {
    EXPECT_NEAR(v, 16.0, 1e-12);
  }
}

TEST(ParallelMapReduce, FinishesEveryChunkBeforeRethrowing) {
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW((void)parallel_map_reduce<int>(
                   pool, 0, 64, 0,
                   [&](std::size_t i) {
                     if (i == 0) throw Error("failure injection");
                     std::this_thread::sleep_for(std::chrono::milliseconds(2));
                     finished.fetch_add(1);
                     return 1;
                   },
                   [](int a, int b) { return a + b; }),
               Error);
  EXPECT_EQ(finished.load(), 60);  // chunks of 4: all but chunk 0
}

TEST(ParallelMapReduce, EmptyRangeReturnsIdentity) {
  ThreadPool pool(2);
  const int result = parallel_map_reduce<int>(
      pool, 3, 3, -7, [](std::size_t) { return 1; }, [](int a, int b) { return a + b; });
  EXPECT_EQ(result, -7);
}

TEST(ThreadPool, StressManySmallBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> counter{0};
    parallel_for(pool, 0, 64, [&](std::size_t) { counter.fetch_add(1); });
    ASSERT_EQ(counter.load(), 64);
  }
}

}  // namespace
}  // namespace qcut::parallel
