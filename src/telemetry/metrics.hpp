#pragma once
// Metrics registry: lock-cheap named counters, gauges, and fixed-bucket
// histograms for the whole cutting stack.
//
// Every layer (service, scheduler, cache, backend, simulator engine, thread
// pool) records into instruments obtained from a MetricsRegistry — by
// default the process-global one — and a MetricsSnapshot aggregates them
// into one typed, JSON-serializable view. Counters and histograms shard
// their storage across cache-line-padded slots indexed by a thread-local
// shard id, so concurrent recording from pool workers never contends on one
// cache line; a snapshot sums the shards.
//
// Instance model: registry.counter(name) creates a NEW instrument on every
// call and registers it under `name`. Components that exist many times
// (e.g. one FragmentResultCache per CutService) each hold their own
// instruments — their per-instance stats views stay exact — while
// snapshot() sums same-named instruments into one series, the way a
// process-level scrape would. Instruments are shared_ptr-owned by both the
// registry and the component. Once only the registry holds one (its
// component died), the next registration folds it into a per-name retired
// total and drops it: a counter's value, a histogram's buckets, count, sum,
// min and max. A snapshot starts from those totals, so it still includes
// everything a dead component counted (counters and histograms are
// cumulative), while a process that builds and destroys components in a
// loop keeps only its live instruments. A gauge is a level, not a total: a
// dead component's level is 0, so a gauge only the registry holds adds
// nothing to a snapshot, and a retired gauge leaves only its name, which
// snapshots still list.
//
// Cost model: counters, gauges, and histogram recording are a few relaxed
// atomic operations and are ALWAYS on — the stats views (CacheStats,
// SchedulerStats) are built from them. Anything that needs a clock read
// (spans, per-kernel timing, pool task latency) is gated behind
// telemetry::enabled(), default off, so the hot path pays one predictable
// branch when observability is not wanted. Compiling with
// QCUT_TELEMETRY_DISABLED pins enabled() to false and makes the span macro
// a no-op (see trace.hpp).

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace qcut::telemetry {

// ---- Runtime enable flag ----------------------------------------------------

/// True when timing instrumentation (spans, per-kernel timers, task latency)
/// should record. Counters/gauges/histogram *recording of already-known
/// values* ignore this flag — they are cheap and back the stats views.
[[nodiscard]] bool enabled() noexcept;

/// Flips the runtime flag. No-op when compiled with QCUT_TELEMETRY_DISABLED.
void set_enabled(bool on) noexcept;

// ---- Sharding ---------------------------------------------------------------

inline constexpr std::size_t kMetricShards = 16;

/// Stable per-thread shard index in [0, kMetricShards): threads are handed
/// incrementing ids on first use, taken modulo the shard count.
[[nodiscard]] std::size_t thread_shard() noexcept;

namespace detail {
struct alignas(64) PaddedCounter {
  std::atomic<std::uint64_t> value{0};
};
}  // namespace detail

// ---- Instruments ------------------------------------------------------------

/// Monotonic counter. add() is one relaxed fetch_add on the caller's shard.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[thread_shard()].value.fetch_add(n, std::memory_order_relaxed);
  }
  /// Sum over shards. Racy-consistent while writers are active; exact once
  /// they have quiesced (e.g. after CutService::wait_idle).
  [[nodiscard]] std::uint64_t value() const noexcept;

 private:
  std::array<detail::PaddedCounter, kMetricShards> shards_;
};

/// Last-write-wins signed gauge (queue depths, cache size, worker counts).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: bucket i counts values v with v <= upper_bounds[i]
/// (first matching bound, Prometheus "le" convention); one overflow bucket
/// counts the rest. Also tracks count, sum, min, and max. Recording is a
/// binary search plus relaxed atomics on the caller's shard.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void record(double value) noexcept;

  [[nodiscard]] const std::vector<double>& upper_bounds() const noexcept {
    return upper_bounds_;
  }

 private:
  friend class MetricsRegistry;
  struct alignas(64) Shard {
    std::vector<std::atomic<std::uint64_t>> buckets;  // upper_bounds.size() + 1
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };
  std::vector<double> upper_bounds_;  // ascending
  std::array<Shard, kMetricShards> shards_;
};

/// Exponentially spaced bucket bounds: start, start*factor, ... (count of
/// them). The usual shape for latency histograms.
[[nodiscard]] std::vector<double> exponential_bounds(double start, double factor, int count);

// ---- Snapshot ---------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> buckets;  // upper_bounds.size() + 1 (last = overflow)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when count == 0
  double max = 0.0;  // 0 when count == 0

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Linear-interpolated quantile estimate from the bucket counts,
  /// q in [0, 1] (e.g. 0.99). Overflow-bucket hits clamp to the last bound.
  [[nodiscard]] double quantile(double q) const noexcept;
};

/// One aggregated view of a registry: same-named instruments summed, series
/// sorted by name. The single schema benches, tests, and the service stats
/// consume.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  [[nodiscard]] const CounterSample* find_counter(std::string_view name) const noexcept;
  [[nodiscard]] const GaugeSample* find_gauge(std::string_view name) const noexcept;
  [[nodiscard]] const HistogramSample* find_histogram(std::string_view name) const noexcept;

  /// Counter value by name; 0 when the counter does not exist.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const noexcept;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with the
  /// histogram fields spelled out. `indent` spaces of leading indentation
  /// on every line after the first (so the object can be embedded).
  [[nodiscard]] std::string to_json(int indent = 0) const;
};

// ---- Registry ---------------------------------------------------------------

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Creates and registers a new instrument under `name`. Callers keep the
  /// returned handle (recording never takes the registry lock); once every
  /// copy of it is dropped, a later registration retires it (see the
  /// instance model above).
  [[nodiscard]] std::shared_ptr<Counter> counter(std::string name);
  [[nodiscard]] std::shared_ptr<Gauge> gauge(std::string name);
  /// Same-named histograms must agree on bounds (they aggregate bucket-wise);
  /// registering a mismatch throws qcut::Error.
  [[nodiscard]] std::shared_ptr<Histogram> histogram(std::string name,
                                                     std::vector<double> upper_bounds);

  /// Aggregates every registered instrument, summing same-named ones.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// The process-wide default registry every layer records into unless an
  /// explicit one is wired through (e.g. CutServiceOptions::metrics).
  [[nodiscard]] static MetricsRegistry& global();

 private:
  template <typename T>
  struct Named {
    std::string name;
    std::shared_ptr<T> instrument;
  };

  /// Folds every instrument only the registry still holds into the retired
  /// totals (a gauge into its name alone) and drops it. Caller holds mutex_.
  void retire_dead_locked();

  /// Adds `histogram`'s shards into `sample` (shaped on first use).
  static void accumulate(HistogramSample& sample, const std::string& name,
                         const Histogram& histogram);

  mutable std::mutex mutex_;
  std::vector<Named<Counter>> counters_;
  std::vector<Named<Gauge>> gauges_;
  std::vector<Named<Histogram>> histograms_;
  // Per-name totals of retired instruments, and the names of retired
  // gauges (listed at 0); snapshot() starts from them.
  std::map<std::string, std::uint64_t> retired_counters_;
  std::set<std::string> retired_gauges_;
  std::map<std::string, HistogramSample> retired_histograms_;
};

}  // namespace qcut::telemetry
