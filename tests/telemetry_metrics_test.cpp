// Metrics registry: counter exactness under concurrency, histogram bucket
// semantics, snapshot aggregation of same-named instruments, retirement of
// instruments whose component died, and the JSON emission (validated by
// parsing it back).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "support/mini_json.hpp"
#include "telemetry/metrics.hpp"

namespace qcut::telemetry {
namespace {

TEST(Counter, ExactUnderConcurrentIncrements) {
  MetricsRegistry registry;
  const auto counter = registry.counter("test.hits");

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter->add();
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(counter->value(), kThreads * kPerThread);
  EXPECT_EQ(registry.snapshot().counter_value("test.hits"), kThreads * kPerThread);
}

TEST(Counter, AddWithValue) {
  MetricsRegistry registry;
  const auto counter = registry.counter("test.shots");
  counter->add(1000);
  counter->add(24);
  EXPECT_EQ(counter->value(), 1024u);
}

TEST(Gauge, SetAndAdd) {
  MetricsRegistry registry;
  const auto gauge = registry.gauge("test.depth");
  EXPECT_EQ(gauge->value(), 0);
  gauge->set(7);
  EXPECT_EQ(gauge->value(), 7);
  gauge->add(-10);
  EXPECT_EQ(gauge->value(), -3);
}

TEST(Histogram, BucketBoundariesFollowLeConvention) {
  MetricsRegistry registry;
  const auto histogram = registry.histogram("test.sizes", {1.0, 2.0, 4.0});
  // Bucket i counts v <= upper_bounds[i] (first matching), the Prometheus
  // "le" convention: a value exactly on a bound lands IN that bound's bucket.
  for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0}) histogram->record(v);

  const MetricsSnapshot snapshot = registry.snapshot();
  const HistogramSample* sample = snapshot.find_histogram("test.sizes");
  ASSERT_NE(sample, nullptr);
  ASSERT_EQ(sample->buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(sample->buckets[0], 2u);      // 0.5, 1.0
  EXPECT_EQ(sample->buckets[1], 2u);      // 1.5, 2.0
  EXPECT_EQ(sample->buckets[2], 2u);      // 3.0, 4.0
  EXPECT_EQ(sample->buckets[3], 1u);      // 5.0 overflows
  EXPECT_EQ(sample->count, 7u);
  EXPECT_DOUBLE_EQ(sample->sum, 17.0);
  EXPECT_DOUBLE_EQ(sample->min, 0.5);
  EXPECT_DOUBLE_EQ(sample->max, 5.0);
  EXPECT_DOUBLE_EQ(sample->mean(), 17.0 / 7.0);
}

TEST(Histogram, CountExactUnderConcurrentRecords) {
  MetricsRegistry registry;
  const auto histogram =
      registry.histogram("test.latency", exponential_bounds(1.0, 2.0, 10));

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        histogram->record(static_cast<double>((t + i) % 1500));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const MetricsSnapshot snapshot = registry.snapshot();
  const HistogramSample* sample = snapshot.find_histogram("test.latency");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : sample->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, sample->count);
}

TEST(Histogram, EmptySampleIsZeroed) {
  MetricsRegistry registry;
  (void)registry.histogram("test.empty", {1.0});
  const MetricsSnapshot snapshot = registry.snapshot();
  const HistogramSample* sample = snapshot.find_histogram("test.empty");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count, 0u);
  EXPECT_DOUBLE_EQ(sample->min, 0.0);
  EXPECT_DOUBLE_EQ(sample->max, 0.0);
  EXPECT_DOUBLE_EQ(sample->mean(), 0.0);
}

TEST(Histogram, QuantileInterpolatesWithinBuckets) {
  MetricsRegistry registry;
  const auto histogram = registry.histogram("test.q", {10.0, 20.0, 40.0});
  for (int i = 0; i < 100; ++i) histogram->record(5.0);   // all in bucket 0
  const MetricsSnapshot snapshot = registry.snapshot();
  const HistogramSample* sample = snapshot.find_histogram("test.q");
  ASSERT_NE(sample, nullptr);
  EXPECT_GT(sample->quantile(0.5), 0.0);
  EXPECT_LE(sample->quantile(0.5), 10.0);
  EXPECT_LE(sample->quantile(0.99), 10.0);
}

TEST(ExponentialBounds, GeometricProgression) {
  const std::vector<double> bounds = exponential_bounds(1.0, 2.0, 5);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 2.0);
  EXPECT_DOUBLE_EQ(bounds[4], 16.0);
}

TEST(MetricsRegistry, SnapshotSumsSameNamedInstruments) {
  // The instance model: each registration is a fresh instrument, and a
  // snapshot aggregates by name — exactly how two caches in one process
  // contribute to one "cache.hits" series.
  MetricsRegistry registry;
  const auto first = registry.counter("shared.hits");
  const auto second = registry.counter("shared.hits");
  first->add(10);
  second->add(32);
  EXPECT_EQ(first->value(), 10u);   // per-instance views stay exact
  EXPECT_EQ(second->value(), 32u);
  EXPECT_EQ(registry.snapshot().counter_value("shared.hits"), 42u);

  const auto h1 = registry.histogram("shared.sizes", {1.0, 2.0});
  const auto h2 = registry.histogram("shared.sizes", {1.0, 2.0});
  h1->record(0.5);
  h2->record(1.5);
  h2->record(9.0);
  const MetricsSnapshot aggregated = registry.snapshot();
  const HistogramSample* sample = aggregated.find_histogram("shared.sizes");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count, 3u);
  EXPECT_EQ(sample->buckets[0], 1u);
  EXPECT_EQ(sample->buckets[1], 1u);
  EXPECT_EQ(sample->buckets[2], 1u);
  EXPECT_DOUBLE_EQ(sample->min, 0.5);
  EXPECT_DOUBLE_EQ(sample->max, 9.0);
}

TEST(MetricsRegistry, DroppedInstrumentsRetireIntoTheirTotals) {
  // Once only the registry holds an instrument (its component died), the
  // next registration folds it into its name's total and frees it; every
  // count it recorded stays in the snapshot, while a gauge, a level, drops
  // to 0 and keeps its name.
  MetricsRegistry registry;
  std::weak_ptr<Counter> dead_counter;
  std::weak_ptr<Gauge> dead_gauge;
  std::weak_ptr<Histogram> dead_histogram;
  {
    const auto counter = registry.counter("retired.hits");
    const auto gauge = registry.gauge("retired.depth");
    const auto histogram = registry.histogram("retired.sizes", {1.0, 2.0});
    counter->add(7);
    gauge->set(-3);
    histogram->record(0.5);
    histogram->record(9.0);
    dead_counter = counter;
    dead_gauge = gauge;
    dead_histogram = histogram;
  }
  EXPECT_FALSE(dead_counter.expired());  // nothing registered since
  const auto live = registry.counter("retired.hits");
  live->add(5);
  EXPECT_TRUE(dead_counter.expired());
  EXPECT_TRUE(dead_gauge.expired());
  EXPECT_TRUE(dead_histogram.expired());

  const MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_value("retired.hits"), 12u);
  const GaugeSample* depth = snapshot.find_gauge("retired.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 0);
  const HistogramSample* sizes = snapshot.find_histogram("retired.sizes");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count, 2u);
  EXPECT_EQ(sizes->buckets, (std::vector<std::uint64_t>{1, 0, 1}));
  EXPECT_DOUBLE_EQ(sizes->sum, 9.5);
  EXPECT_DOUBLE_EQ(sizes->min, 0.5);
  EXPECT_DOUBLE_EQ(sizes->max, 9.0);

  // A retired histogram still fixes its name's bucket bounds.
  EXPECT_THROW((void)registry.histogram("retired.sizes", {1.0, 3.0}), qcut::Error);
}

TEST(MetricsRegistry, HistogramBoundsMismatchThrows) {
  MetricsRegistry registry;
  (void)registry.histogram("test.h", {1.0, 2.0});
  EXPECT_THROW((void)registry.histogram("test.h", {1.0, 3.0}), qcut::Error);
}

TEST(MetricsRegistry, MissingSeriesLookups) {
  MetricsRegistry registry;
  const MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.find_counter("nope"), nullptr);
  EXPECT_EQ(snapshot.find_gauge("nope"), nullptr);
  EXPECT_EQ(snapshot.find_histogram("nope"), nullptr);
  EXPECT_EQ(snapshot.counter_value("nope"), 0u);
}

TEST(MetricsSnapshot, JsonRoundTrips) {
  MetricsRegistry registry;
  registry.counter("c.one")->add(5);
  const auto gauge = registry.gauge("g.depth");  // a dropped gauge would read 0
  gauge->set(-2);
  const auto histogram = registry.histogram("h.lat", {1.0, 10.0});
  histogram->record(0.5);
  histogram->record(100.0);

  const testing::JsonValue parsed = testing::parse_json(registry.snapshot().to_json());
  ASSERT_TRUE(parsed.is_object());
  EXPECT_DOUBLE_EQ(parsed.at("counters").at("c.one").number, 5.0);
  EXPECT_DOUBLE_EQ(parsed.at("gauges").at("g.depth").number, -2.0);
  const testing::JsonValue& hist = parsed.at("histograms").at("h.lat");
  EXPECT_DOUBLE_EQ(hist.at("count").number, 2.0);
  ASSERT_TRUE(hist.at("buckets").is_array());
  ASSERT_EQ(hist.at("buckets").array.size(), 3u);
  EXPECT_DOUBLE_EQ(hist.at("buckets").array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(hist.at("buckets").array[2].number, 1.0);  // overflow
  EXPECT_DOUBLE_EQ(hist.at("min").number, 0.5);
  EXPECT_DOUBLE_EQ(hist.at("max").number, 100.0);
}

TEST(Telemetry, EnabledFlagDefaultsOff) {
  EXPECT_FALSE(enabled());
  set_enabled(true);
#ifndef QCUT_TELEMETRY_DISABLED
  EXPECT_TRUE(enabled());
#else
  EXPECT_FALSE(enabled());  // compile-time kill switch pins the flag
#endif
  set_enabled(false);
  EXPECT_FALSE(enabled());
}

}  // namespace
}  // namespace qcut::telemetry
