#pragma once
// Span tracer: RAII phase scopes recorded into per-thread ring buffers,
// exported as Chrome trace-event JSON (open trace.json in Perfetto or
// chrome://tracing) and as an aggregated per-phase table.
//
// TELEMETRY_SPAN("phase") opens a scope on the calling thread: when
// telemetry::enabled() it records {name, start, duration, thread id, depth}
// into that thread's ring buffer on destruction, with depth maintained by a
// per-thread stack so nested scopes reconstruct their parent chain. Virtual
// tracks (alloc_track / record_on) let a logical owner — e.g. one
// CutService job whose phases hop between scheduler threads and pool
// workers — lay its spans on a single timeline: parent/child is then
// determined by timing containment on the track, exactly how the Chrome
// trace viewer nests "X" (complete) events.
//
// Recording takes the owning thread's buffer mutex, which is uncontended
// except while an export or clear() is scanning — spans are phase-scale
// (a variant batch, a reconstruction, a detector run), not per-amplitude,
// so this costs nothing measurable. When the runtime flag is off a span is
// one relaxed load and a branch; when compiled with QCUT_TELEMETRY_DISABLED
// the macro expands to nothing.
//
// Ring buffers hold the most recent `ring_capacity` events per thread;
// older events are overwritten and counted in dropped().

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"

namespace qcut::telemetry {

/// One closed span. Times are nanoseconds since the tracer's epoch
/// (steady-clock, process-local).
struct SpanEvent {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t track = 0;  // thread id or virtual track id
  std::uint32_t depth = 0;  // RAII nesting depth on the recording thread
};

/// Aggregated per-phase statistics over every recorded span of one name.
struct PhaseAggregate {
  std::string name;
  std::uint64_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;

  [[nodiscard]] double mean_seconds() const noexcept {
    return count == 0 ? 0.0 : total_seconds / static_cast<double>(count);
  }
};

class Tracer {
 public:
  /// `ring_capacity` caps the events retained per thread (and per virtual
  /// track use site); the newest events win.
  explicit Tracer(std::size_t ring_capacity = 1 << 14);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Nanoseconds since this tracer's construction (steady clock). The time
  /// base of every recorded span.
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

  /// Records a closed span on the calling thread's track at its current
  /// RAII depth. Records regardless of enabled() — the caller gates (the
  /// RAII Span checks the flag once at construction).
  void record(std::string name, std::uint64_t start_ns, std::uint64_t dur_ns);

  /// Reserves a virtual track (its own row in the trace viewer), labeled in
  /// the exported trace metadata.
  [[nodiscard]] std::uint32_t alloc_track(std::string label);

  /// Records a closed span onto a virtual track. `depth` is informational
  /// (virtual tracks nest by timing containment).
  void record_on(std::uint32_t track, std::string name, std::uint64_t start_ns,
                 std::uint64_t dur_ns, std::uint32_t depth = 0);

  /// Every retained event, in recording order per thread. Stable only while
  /// no spans are being recorded.
  [[nodiscard]] std::vector<SpanEvent> events() const;

  /// Events overwritten by ring-buffer wraparound.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Discards retained events (keeps track labels and thread registrations).
  /// Call while no spans are open.
  void clear();

  /// Chrome trace-event format: {"traceEvents": [...]} with one "X"
  /// (complete) event per span — ts/dur in microseconds — plus
  /// "thread_name" metadata for threads and virtual tracks.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Writes chrome_trace_json() to `path`; false when the file cannot be
  /// written.
  bool write_chrome_trace(const std::string& path) const;

  /// Per-phase aggregation of every retained span, sorted by descending
  /// total time.
  [[nodiscard]] std::vector<PhaseAggregate> aggregate() const;

  /// The process-wide tracer TELEMETRY_SPAN records into.
  [[nodiscard]] static Tracer& global();

 private:
  friend class Span;

  struct ThreadLog {
    mutable std::mutex mutex;
    std::vector<SpanEvent> ring;      // grows to capacity, then wraps
    std::size_t next = 0;             // ring write position
    std::uint64_t recorded = 0;       // total ever recorded
    std::uint32_t track = 0;
    std::uint32_t depth = 0;          // open RAII spans (owner thread only)
  };

  [[nodiscard]] ThreadLog& thread_log();
  void push(ThreadLog& log, SpanEvent event);

  const std::size_t ring_capacity_;
  const std::uint64_t tracer_id_;  // process-unique; keys the thread-local
                                   // log lookup so a new tracer reusing a
                                   // destroyed tracer's address starts clean
  const std::uint64_t epoch_ns_;   // steady-clock ns at construction

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<ThreadLog>> logs_;
  std::vector<std::pair<std::uint32_t, std::string>> track_labels_;
  std::uint32_t next_track_ = 1;
};

/// RAII span: captures the start time and copies the name when
/// telemetry::enabled() at construction, records on destruction. A disabled
/// span allocates nothing. Use through TELEMETRY_SPAN.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_ = nullptr;  // nullptr when disabled at construction
  std::string name_;
  std::uint64_t start_ns_ = 0;
};

/// Renders aggregate() rows as a fixed-width per-phase table
/// (phase/count/total/mean/min/max).
[[nodiscard]] std::string phase_table(const std::vector<PhaseAggregate>& aggregates);

}  // namespace qcut::telemetry

#ifdef QCUT_TELEMETRY_DISABLED
#define QCUT_TELEMETRY_SPAN_IMPL2(name, line)
#else
#define QCUT_TELEMETRY_SPAN_IMPL2(name, line) \
  ::qcut::telemetry::Span qcut_telemetry_span_##line(::qcut::telemetry::Tracer::global(), (name))
#endif
#define QCUT_TELEMETRY_SPAN_IMPL(name, line) QCUT_TELEMETRY_SPAN_IMPL2(name, line)

/// Opens a scope-lifetime span named `name` on the global tracer.
#define TELEMETRY_SPAN(name) QCUT_TELEMETRY_SPAN_IMPL(name, __LINE__)
