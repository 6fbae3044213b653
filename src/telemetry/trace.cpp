#include "telemetry/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>

#include "common/table.hpp"

namespace qcut::telemetry {

namespace {

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t next_tracer_id() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Tracer::Tracer(std::size_t ring_capacity)
    : ring_capacity_(std::max<std::size_t>(ring_capacity, 16)),
      tracer_id_(next_tracer_id()),
      epoch_ns_(steady_now_ns()) {}

std::uint64_t Tracer::now_ns() const noexcept { return steady_now_ns() - epoch_ns_; }

Tracer::ThreadLog& Tracer::thread_log() {
  // One log per (thread, tracer): threads touch few tracers (usually just
  // the global one), so a small thread-local map resolves without locking
  // after first use. Keyed on the tracer's process-unique id, NOT its
  // address — a new tracer allocated where a destroyed one lived must not
  // inherit the dead tracer's logs. Logs are shared_ptr-owned by the
  // tracer, so a log outlives its thread and its events stay exportable.
  thread_local std::unordered_map<std::uint64_t, std::shared_ptr<ThreadLog>> logs;
  std::shared_ptr<ThreadLog>& slot = logs[tracer_id_];
  if (slot == nullptr) {
    slot = std::make_shared<ThreadLog>();
    std::lock_guard<std::mutex> lock(mutex_);
    slot->track = next_track_++;
    logs_.push_back(slot);
  }
  return *slot;
}

void Tracer::push(ThreadLog& log, SpanEvent event) {
  std::lock_guard<std::mutex> lock(log.mutex);
  if (log.ring.size() < ring_capacity_) {
    log.ring.push_back(std::move(event));
  } else {
    log.ring[log.next] = std::move(event);
  }
  log.next = (log.next + 1) % ring_capacity_;
  ++log.recorded;
}

void Tracer::record(std::string name, std::uint64_t start_ns, std::uint64_t dur_ns) {
  ThreadLog& log = thread_log();
  SpanEvent event;
  event.name = std::move(name);
  event.start_ns = start_ns;
  event.dur_ns = dur_ns;
  event.track = log.track;
  event.depth = log.depth;
  push(log, std::move(event));
}

std::uint32_t Tracer::alloc_track(std::string label) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t track = next_track_++;
  track_labels_.emplace_back(track, std::move(label));
  return track;
}

void Tracer::record_on(std::uint32_t track, std::string name, std::uint64_t start_ns,
                       std::uint64_t dur_ns, std::uint32_t depth) {
  ThreadLog& log = thread_log();
  SpanEvent event;
  event.name = std::move(name);
  event.start_ns = start_ns;
  event.dur_ns = dur_ns;
  event.track = track;
  event.depth = depth;
  push(log, std::move(event));
}

std::vector<SpanEvent> Tracer::events() const {
  std::vector<std::shared_ptr<ThreadLog>> logs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    logs = logs_;
  }
  std::vector<SpanEvent> all;
  for (const std::shared_ptr<ThreadLog>& log : logs) {
    std::lock_guard<std::mutex> lock(log->mutex);
    // Oldest-first: the ring wraps at `next`, so [next, end) precedes
    // [0, next) once full.
    if (log->ring.size() == ring_capacity_) {
      all.insert(all.end(), log->ring.begin() + static_cast<std::ptrdiff_t>(log->next),
                 log->ring.end());
      all.insert(all.end(), log->ring.begin(),
                 log->ring.begin() + static_cast<std::ptrdiff_t>(log->next));
    } else {
      all.insert(all.end(), log->ring.begin(), log->ring.end());
    }
  }
  return all;
}

std::uint64_t Tracer::dropped() const {
  std::vector<std::shared_ptr<ThreadLog>> logs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    logs = logs_;
  }
  std::uint64_t total = 0;
  for (const std::shared_ptr<ThreadLog>& log : logs) {
    std::lock_guard<std::mutex> lock(log->mutex);
    total += log->recorded - log->ring.size();
  }
  return total;
}

void Tracer::clear() {
  std::vector<std::shared_ptr<ThreadLog>> logs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    logs = logs_;
  }
  for (const std::shared_ptr<ThreadLog>& log : logs) {
    std::lock_guard<std::mutex> lock(log->mutex);
    log->ring.clear();
    log->next = 0;
    log->recorded = 0;
  }
}

std::string Tracer::chrome_trace_json() const {
  const std::vector<SpanEvent> all = events();
  std::vector<std::pair<std::uint32_t, std::string>> labels;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    labels = track_labels_;
    for (const std::shared_ptr<ThreadLog>& log : logs_) {
      labels.emplace_back(log->track, "thread-" + std::to_string(log->track));
    }
  }

  std::ostringstream out;
  out.precision(17);
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const auto& [track, label] : labels) {
    out << (first ? "\n" : ",\n") << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
        << "\"tid\": " << track << ", \"args\": {\"name\": \"" << label << "\"}}";
    first = false;
  }
  for (const SpanEvent& e : all) {
    out << (first ? "\n" : ",\n") << "  {\"name\": \"" << e.name << "\", \"ph\": \"X\", "
        << "\"ts\": " << static_cast<double>(e.start_ns) / 1000.0
        << ", \"dur\": " << static_cast<double>(e.dur_ns) / 1000.0 << ", \"pid\": 0, \"tid\": "
        << e.track << ", \"args\": {\"depth\": " << e.depth << "}}";
    first = false;
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out.str();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << chrome_trace_json();
  return out.good();
}

std::vector<PhaseAggregate> Tracer::aggregate() const {
  std::map<std::string, PhaseAggregate> by_name;
  for (const SpanEvent& e : events()) {
    PhaseAggregate& agg = by_name[e.name];
    const double seconds = static_cast<double>(e.dur_ns) * 1e-9;
    if (agg.count == 0) {
      agg.name = e.name;
      agg.min_seconds = seconds;
      agg.max_seconds = seconds;
    }
    ++agg.count;
    agg.total_seconds += seconds;
    agg.min_seconds = std::min(agg.min_seconds, seconds);
    agg.max_seconds = std::max(agg.max_seconds, seconds);
  }
  std::vector<PhaseAggregate> rows;
  rows.reserve(by_name.size());
  for (auto& [name, agg] : by_name) rows.push_back(std::move(agg));
  std::sort(rows.begin(), rows.end(), [](const PhaseAggregate& a, const PhaseAggregate& b) {
    return a.total_seconds > b.total_seconds;
  });
  return rows;
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

Span::Span(Tracer& tracer, std::string_view name) {
  if (!enabled()) return;
  tracer_ = &tracer;
  name_ = name;
  ++tracer.thread_log().depth;  // count open spans for nested depths
  start_ns_ = tracer.now_ns();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  const std::uint64_t end_ns = tracer_->now_ns();
  Tracer::ThreadLog& log = tracer_->thread_log();
  --log.depth;  // this span's own depth (0 = outermost)
  SpanEvent event;
  event.name = std::move(name_);
  event.start_ns = start_ns_;
  event.dur_ns = end_ns - start_ns_;
  event.track = log.track;
  event.depth = log.depth;
  tracer_->push(log, std::move(event));
}

std::string phase_table(const std::vector<PhaseAggregate>& aggregates) {
  Table table({"phase", "count", "total ms", "mean ms", "min ms", "max ms"});
  for (const PhaseAggregate& agg : aggregates) {
    table.add_row({agg.name, std::to_string(agg.count),
                   format_double(agg.total_seconds * 1e3, 3),
                   format_double(agg.mean_seconds() * 1e3, 3),
                   format_double(agg.min_seconds * 1e3, 3),
                   format_double(agg.max_seconds * 1e3, 3)});
  }
  return table.to_string();
}

}  // namespace qcut::telemetry
