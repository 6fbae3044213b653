#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace qcut::telemetry {

// ---- Enable flag ------------------------------------------------------------

namespace {
std::atomic<bool> g_enabled{false};
}  // namespace

#ifdef QCUT_TELEMETRY_DISABLED
bool enabled() noexcept { return false; }
void set_enabled(bool) noexcept {}
#else
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }
#endif

// ---- Sharding ---------------------------------------------------------------

std::size_t thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

// ---- Counter ----------------------------------------------------------------

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const detail::PaddedCounter& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

// ---- Histogram --------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)) {
  QCUT_CHECK(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()),
             "Histogram: bucket upper bounds must be ascending");
  for (Shard& shard : shards_) {
    shard.buckets = std::vector<std::atomic<std::uint64_t>>(upper_bounds_.size() + 1);
  }
}

namespace {

/// Relaxed atomic min/max on doubles via compare-exchange; converges in a
/// handful of iterations because updates only move one direction.
void atomic_min(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_add_double(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::record(double value) noexcept {
  Shard& shard = shards_[thread_shard()];
  const auto it = std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value);
  const std::size_t bucket = static_cast<std::size_t>(it - upper_bounds_.begin());
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(shard.sum, value);
  atomic_min(shard.min, value);
  atomic_max(shard.max, value);
}

std::vector<double> exponential_bounds(double start, double factor, int count) {
  QCUT_CHECK(start > 0.0 && factor > 1.0 && count >= 1,
             "exponential_bounds: need start > 0, factor > 1, count >= 1");
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double b = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

// ---- Snapshot ---------------------------------------------------------------

double HistogramSample::quantile(double q) const noexcept {
  if (count == 0 || upper_bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= target) {
      if (i >= upper_bounds.size()) return upper_bounds.back();  // overflow bucket
      const double hi = upper_bounds[i];
      const double lo = i == 0 ? std::min(min, hi) : upper_bounds[i - 1];
      const std::uint64_t in_bucket = buckets[i];
      if (in_bucket == 0) return hi;
      const double into =
          (target - static_cast<double>(cumulative - in_bucket)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(into, 0.0, 1.0);
    }
  }
  return upper_bounds.back();
}

const CounterSample* MetricsSnapshot::find_counter(std::string_view name) const noexcept {
  for (const CounterSample& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSample* MetricsSnapshot::find_gauge(std::string_view name) const noexcept {
  for (const GaugeSample& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSample* MetricsSnapshot::find_histogram(std::string_view name) const noexcept {
  for (const HistogramSample& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const noexcept {
  const CounterSample* c = find_counter(name);
  return c == nullptr ? 0 : c->value;
}

namespace {

void append_number(std::ostream& out, double v) {
  // JSON has no infinity; an empty histogram's min/max serialize as 0.
  if (!std::isfinite(v)) v = 0.0;
  out << v;
}

}  // namespace

std::string MetricsSnapshot::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(std::max(indent, 0)), ' ');
  std::ostringstream out;
  out.precision(17);
  out << "{\n";
  out << pad << "  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << pad << "    \"" << counters[i].name
        << "\": " << counters[i].value;
  }
  out << (counters.empty() ? "" : "\n" + pad + "  ") << "},\n";
  out << pad << "  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << pad << "    \"" << gauges[i].name
        << "\": " << gauges[i].value;
  }
  out << (gauges.empty() ? "" : "\n" + pad + "  ") << "},\n";
  out << pad << "  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSample& h = histograms[i];
    out << (i == 0 ? "\n" : ",\n") << pad << "    \"" << h.name << "\": {";
    out << "\"count\": " << h.count << ", \"sum\": ";
    append_number(out, h.sum);
    out << ", \"min\": ";
    append_number(out, h.min);
    out << ", \"max\": ";
    append_number(out, h.max);
    out << ", \"bounds\": [";
    for (std::size_t b = 0; b < h.upper_bounds.size(); ++b) {
      if (b > 0) out << ", ";
      append_number(out, h.upper_bounds[b]);
    }
    out << "], \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out << ", ";
      out << h.buckets[b];
    }
    out << "]}";
  }
  out << (histograms.empty() ? "" : "\n" + pad + "  ") << "}\n";
  out << pad << "}";
  return out.str();
}

// ---- Registry ---------------------------------------------------------------

std::shared_ptr<Counter> MetricsRegistry::counter(std::string name) {
  auto instrument = std::make_shared<Counter>();
  std::lock_guard<std::mutex> lock(mutex_);
  retire_dead_locked();
  counters_.push_back({std::move(name), instrument});
  return instrument;
}

std::shared_ptr<Gauge> MetricsRegistry::gauge(std::string name) {
  auto instrument = std::make_shared<Gauge>();
  std::lock_guard<std::mutex> lock(mutex_);
  retire_dead_locked();
  gauges_.push_back({std::move(name), instrument});
  return instrument;
}

std::shared_ptr<Histogram> MetricsRegistry::histogram(std::string name,
                                                      std::vector<double> upper_bounds) {
  auto instrument = std::make_shared<Histogram>(std::move(upper_bounds));
  std::lock_guard<std::mutex> lock(mutex_);
  retire_dead_locked();
  const auto check_bounds = [&](const std::vector<double>& bounds) {
    QCUT_CHECK(bounds == instrument->upper_bounds(),
               "MetricsRegistry: histogram '" + name +
                   "' re-registered with different bucket bounds");
  };
  for (const Named<Histogram>& existing : histograms_) {
    if (existing.name == name) check_bounds(existing.instrument->upper_bounds());
  }
  const auto retired = retired_histograms_.find(name);
  if (retired != retired_histograms_.end()) check_bounds(retired->second.upper_bounds);
  histograms_.push_back({std::move(name), instrument});
  return instrument;
}

void MetricsRegistry::retire_dead_locked() {
  // use_count() == 1: no component holds the instrument any more, and the
  // registry never hands it out again, so its values are final. The
  // acquire fence pairs with the release in the last owner's decrement, so
  // every value it recorded is visible here. ThreadSanitizer does not model
  // fences (GCC warns about them under it); the values read are atomics,
  // so it has no race to report either way.
  const auto dead = [](const auto& named) {
    if (named.instrument.use_count() != 1) return false;
#ifndef __SANITIZE_THREAD__
    std::atomic_thread_fence(std::memory_order_acquire);
#endif
    return true;
  };
  std::erase_if(counters_, [&](const Named<Counter>& c) {
    if (!dead(c)) return false;
    retired_counters_[c.name] += c.instrument->value();
    return true;
  });
  std::erase_if(gauges_, [&](const Named<Gauge>& g) {
    if (!dead(g)) return false;
    retired_gauges_.insert(g.name);
    return true;
  });
  std::erase_if(histograms_, [&](const Named<Histogram>& h) {
    if (!dead(h)) return false;
    accumulate(retired_histograms_[h.name], h.name, *h.instrument);
    return true;
  });
}

void MetricsRegistry::accumulate(HistogramSample& sample, const std::string& name,
                                 const Histogram& histogram) {
  if (sample.upper_bounds.empty()) {
    sample.name = name;
    sample.upper_bounds = histogram.upper_bounds();
    sample.buckets.assign(histogram.upper_bounds().size() + 1, 0);
    sample.min = std::numeric_limits<double>::infinity();
    sample.max = -std::numeric_limits<double>::infinity();
  }
  for (const Histogram::Shard& shard : histogram.shards_) {
    for (std::size_t b = 0; b < shard.buckets.size(); ++b) {
      sample.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
    sample.count += shard.count.load(std::memory_order_relaxed);
    sample.sum += shard.sum.load(std::memory_order_relaxed);
    sample.min = std::min(sample.min, shard.min.load(std::memory_order_relaxed));
    sample.max = std::max(sample.max, shard.max.load(std::memory_order_relaxed));
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);

  std::map<std::string, std::uint64_t> counter_totals = retired_counters_;
  for (const Named<Counter>& c : counters_) counter_totals[c.name] += c.instrument->value();

  // A gauge only the registry holds belongs to a dead component, whose
  // level is 0.
  std::map<std::string, std::int64_t> gauge_totals;
  for (const std::string& name : retired_gauges_) gauge_totals.emplace(name, 0);
  for (const Named<Gauge>& g : gauges_) {
    gauge_totals[g.name] += g.instrument.use_count() == 1 ? 0 : g.instrument->value();
  }

  std::map<std::string, HistogramSample> histogram_totals = retired_histograms_;
  for (const Named<Histogram>& h : histograms_) {
    accumulate(histogram_totals[h.name], h.name, *h.instrument);
  }

  MetricsSnapshot snap;
  snap.counters.reserve(counter_totals.size());
  for (auto& [name, value] : counter_totals) snap.counters.push_back({name, value});
  snap.gauges.reserve(gauge_totals.size());
  for (auto& [name, value] : gauge_totals) snap.gauges.push_back({name, value});
  snap.histograms.reserve(histogram_totals.size());
  for (auto& [name, sample] : histogram_totals) {
    if (sample.count == 0) {
      sample.min = 0.0;
      sample.max = 0.0;
    }
    snap.histograms.push_back(std::move(sample));
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace qcut::telemetry
