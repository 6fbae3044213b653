// Span tracer: RAII nesting and depths, per-thread tracks, virtual tracks,
// ring-buffer overflow, the Chrome trace-event export (validated by parsing
// the emitted JSON), and the disabled-mode guarantees.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/mini_json.hpp"
#include "telemetry/trace.hpp"

namespace qcut::telemetry {
namespace {

/// Flips the runtime telemetry flag for one test and restores it after.
struct EnabledGuard {
  EnabledGuard() { set_enabled(true); }
  ~EnabledGuard() { set_enabled(false); }
};

/// Skips the test body when the compile-time kill switch pins telemetry off.
#define QCUT_REQUIRE_TELEMETRY()                                        \
  do {                                                                  \
    if (!enabled()) GTEST_SKIP() << "built with QCUT_TELEMETRY_DISABLED"; \
  } while (false)

TEST(Span, RecordsNestedDepthsAndContainment) {
  EnabledGuard guard;
  QCUT_REQUIRE_TELEMETRY();
  Tracer tracer;
  {
    Span outer(tracer, "outer");
    {
      Span inner(tracer, "inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  const std::vector<SpanEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  // Spans record at destruction: inner closes first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_EQ(events[0].track, events[1].track);  // same thread, same track

  // Timing containment: inner lies within outer.
  const SpanEvent& inner = events[0];
  const SpanEvent& outer = events[1];
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
  EXPECT_GE(inner.dur_ns, 1000000u);  // slept >= 1ms
}

TEST(Span, DistinctThreadsGetDistinctTracks) {
  EnabledGuard guard;
  QCUT_REQUIRE_TELEMETRY();
  Tracer tracer;
  auto spin = [&] { Span span(tracer, "work"); };
  std::thread a(spin);
  std::thread b(spin);
  a.join();
  b.join();

  const std::vector<SpanEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].track, events[1].track);
}

TEST(Tracer, VirtualTracksRecordExplicitSpans) {
  EnabledGuard guard;
  QCUT_REQUIRE_TELEMETRY();
  Tracer tracer;
  const std::uint32_t track = tracer.alloc_track("job 1");
  tracer.record_on(track, "job", 100, 1000, 0);
  tracer.record_on(track, "job.plan", 100, 200, 1);

  const std::vector<SpanEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].track, track);
  EXPECT_EQ(events[1].track, track);
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].depth, 1u);

  // The label surfaces as a thread_name metadata record in the export.
  EXPECT_NE(tracer.chrome_trace_json().find("job 1"), std::string::npos);
}

TEST(Tracer, RingBufferKeepsNewestAndCountsDropped) {
  EnabledGuard guard;
  QCUT_REQUIRE_TELEMETRY();
  Tracer tracer(16);  // minimum capacity
  for (int i = 0; i < 40; ++i) {
    Span span(tracer, "span " + std::to_string(i));
  }
  const std::vector<SpanEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(tracer.dropped(), 24u);
  // Oldest-first order over the surviving (newest) 16: 24, 25, ..., 39.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].name, "span " + std::to_string(24 + i));
  }

  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, ChromeTraceJsonRoundTrips) {
  EnabledGuard guard;
  QCUT_REQUIRE_TELEMETRY();
  Tracer tracer;
  {
    Span outer(tracer, "phase_a");
    Span inner(tracer, "phase_b");
  }
  const std::uint32_t track = tracer.alloc_track("job 7");
  tracer.record_on(track, "job", 5000, 2000, 0);

  const std::string path = ::testing::TempDir() + "qcut_trace_test.json";
  ASSERT_TRUE(tracer.write_chrome_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());

  const testing::JsonValue parsed = testing::parse_json(buffer.str());
  ASSERT_TRUE(parsed.is_object());
  EXPECT_EQ(parsed.at("displayTimeUnit").string, "ms");
  const testing::JsonValue& trace_events = parsed.at("traceEvents");
  ASSERT_TRUE(trace_events.is_array());

  std::set<std::string> phase_names;
  bool saw_job_metadata = false;
  for (const testing::JsonValue& event : trace_events.array) {
    const std::string ph = event.at("ph").string;
    if (ph == "M") {
      EXPECT_EQ(event.at("name").string, "thread_name");
      if (event.at("args").at("name").string == "job 7") saw_job_metadata = true;
      continue;
    }
    ASSERT_EQ(ph, "X");  // complete events only
    phase_names.insert(event.at("name").string);
    EXPECT_GE(event.at("dur").number, 0.0);
    EXPECT_TRUE(event.has("ts"));
    EXPECT_TRUE(event.has("tid"));
  }
  EXPECT_TRUE(saw_job_metadata);
  EXPECT_EQ(phase_names, (std::set<std::string>{"phase_a", "phase_b", "job"}));

  // The virtual "job" span: ts/dur are microseconds of the recorded ns.
  for (const testing::JsonValue& event : trace_events.array) {
    if (event.at("ph").string == "X" && event.at("name").string == "job") {
      EXPECT_DOUBLE_EQ(event.at("ts").number, 5.0);
      EXPECT_DOUBLE_EQ(event.at("dur").number, 2.0);
    }
  }
}

TEST(Tracer, AggregateGroupsByName) {
  EnabledGuard guard;
  QCUT_REQUIRE_TELEMETRY();
  Tracer tracer;
  const std::uint32_t track = tracer.alloc_track("agg");
  tracer.record_on(track, "wave", 0, 2000000, 1);
  tracer.record_on(track, "wave", 3000000, 4000000, 1);
  tracer.record_on(track, "plan", 0, 1000000, 1);

  const std::vector<PhaseAggregate> aggregates = tracer.aggregate();
  ASSERT_EQ(aggregates.size(), 2u);
  // Sorted by total time, descending: wave (6ms) before plan (1ms).
  EXPECT_EQ(aggregates[0].name, "wave");
  EXPECT_EQ(aggregates[0].count, 2u);
  EXPECT_DOUBLE_EQ(aggregates[0].total_seconds, 0.006);
  EXPECT_DOUBLE_EQ(aggregates[0].min_seconds, 0.002);
  EXPECT_DOUBLE_EQ(aggregates[0].max_seconds, 0.004);
  EXPECT_DOUBLE_EQ(aggregates[0].mean_seconds(), 0.003);
  EXPECT_EQ(aggregates[1].name, "plan");

  const std::string table = phase_table(aggregates);
  EXPECT_NE(table.find("wave"), std::string::npos);
  EXPECT_NE(table.find("plan"), std::string::npos);
}

TEST(Span, DisabledModeRecordsNothing) {
  ASSERT_FALSE(enabled());  // default off
  Tracer tracer;
  {
    Span span(tracer, "ghost");
    TELEMETRY_SPAN("macro ghost");
  }
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Span, DisabledModeOverheadStaysSmall) {
  ASSERT_FALSE(enabled());
  Tracer tracer;
  constexpr int kIterations = 1000000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    Span span(tracer, "hot");
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // A disabled span is one branch and no allocation; even debug or
  // sanitizer builds clear this very generous guard (~1us per span).
  EXPECT_LT(seconds, 1.0);
  EXPECT_TRUE(tracer.events().empty());
}

}  // namespace
}  // namespace qcut::telemetry
