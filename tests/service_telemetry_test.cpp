// Service-level observability acceptance:
//  * a traced CutService job emits a valid Chrome trace with nested
//    plan/wave/detect/reconstruct spans contained in the "job" span,
//  * the metrics snapshot's cache counters bit-match the legacy CacheStats
//    view on the same run,
//  * telemetry on vs off leaves the response bit-for-bit identical,
//  * services built and destroyed on one registry leave their totals, and
//    their gauges read 0.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "backend/statevector_backend.hpp"
#include "service/cut_service.hpp"
#include "support/mini_json.hpp"
#include "telemetry/trace.hpp"

namespace qcut::service {
namespace {

struct EnabledGuard {
  EnabledGuard() { telemetry::set_enabled(true); }
  ~EnabledGuard() { telemetry::set_enabled(false); }
};

/// The 3-fragment chain circuit of examples/chain_cutting.cpp: 7 qubits,
/// cuttable into widths 3|3|3 by the chain planner.
circuit::Circuit chain_circuit() {
  circuit::Circuit c(7);
  c.h(0).cx(0, 1).cx(1, 2).ry(0.3, 2);
  c.cx(2, 3).cx(3, 4).ry(0.5, 4);
  c.cx(4, 5).cx(5, 6).ry(0.7, 6);
  return c;
}

cutting::CutRequest chain_request() {
  cutting::ChainPlannerOptions planner;
  planner.max_fragment_width = 3;
  cutting::CutRequest request(chain_circuit());
  request.with_chain_plan(planner)
      .with_golden(cutting::GoldenMode::DetectOnline)
      .with_shots(2000)
      .with_seed(11);
  return request;
}

TEST(ServiceTelemetry, TracedJobEmitsContainedPhaseSpans) {
  EnabledGuard guard;
  if (!telemetry::enabled()) GTEST_SKIP() << "built with QCUT_TELEMETRY_DISABLED";
  telemetry::Tracer::global().clear();

  backend::StatevectorBackend backend(7);
  telemetry::MetricsRegistry registry;
  CutServiceOptions options;
  options.metrics = &registry;
  CutService service(backend, options);
  const cutting::CutResponse response = service.run(chain_request());
  ASSERT_EQ(response.graph.num_fragments(), 3);

  // The response carries its phase times: a plan, one wave + one detect per
  // fragment boundary handoff, and a reconstruction.
  std::map<std::string, int> phase_counts;
  for (const auto& [name, seconds] : response.phase_seconds) {
    ++phase_counts[name];
    EXPECT_GE(seconds, 0.0);
  }
  EXPECT_EQ(phase_counts["job.plan"], 1);
  EXPECT_EQ(phase_counts["job.wave"], 3);     // one wave per fragment (online)
  EXPECT_EQ(phase_counts["job.detect"], 2);   // one detector per boundary
  EXPECT_EQ(phase_counts["job.reconstruct"], 1);
  EXPECT_EQ(phase_counts["job"], 1);

  // Export and reparse the Chrome trace; the job's spans all live on the
  // job's virtual track and nest inside the enclosing "job" span.
  const std::string path = ::testing::TempDir() + "qcut_service_trace.json";
  ASSERT_TRUE(telemetry::Tracer::global().write_chrome_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  const testing::JsonValue trace = testing::parse_json(buffer.str());

  double job_tid = -1.0;
  for (const testing::JsonValue& event : trace.at("traceEvents").array) {
    if (event.at("ph").string == "M" && event.at("args").at("name").string == "job 1") {
      job_tid = event.at("tid").number;
    }
  }
  ASSERT_GE(job_tid, 0.0) << "job track metadata missing from trace";

  double job_start = 0.0;
  double job_end = 0.0;
  std::vector<testing::JsonValue> phases;
  for (const testing::JsonValue& event : trace.at("traceEvents").array) {
    if (event.at("ph").string != "X" || event.at("tid").number != job_tid) continue;
    if (event.at("name").string == "job") {
      job_start = event.at("ts").number;
      job_end = job_start + event.at("dur").number;
    } else {
      phases.push_back(event);
    }
  }
  ASSERT_GT(job_end, job_start);
  ASSERT_EQ(phases.size(), 7u);  // plan + 3 waves + 2 detects + reconstruct
  for (const testing::JsonValue& phase : phases) {
    const double start = phase.at("ts").number;
    const double end = start + phase.at("dur").number;
    EXPECT_GE(start, job_start) << phase.at("name").string;
    EXPECT_LE(end, job_end) << phase.at("name").string;
    EXPECT_EQ(phase.at("args").at("depth").number, 1.0);
  }

  // Pool workers recorded the backend batches on their own tracks.
  bool saw_backend_span = false;
  for (const testing::JsonValue& event : trace.at("traceEvents").array) {
    if (event.at("ph").string == "X" && event.at("name").string == "backend.run_batch") {
      saw_backend_span = true;
      EXPECT_NE(event.at("tid").number, job_tid);
    }
  }
  EXPECT_TRUE(saw_backend_span);

  // Bit-match: the snapshot's cache/scheduler/job series against the legacy
  // stats views over the same (private) registry.
  const CutServiceStats stats = service.stats();
  EXPECT_EQ(stats.telemetry.counter_value("cache.hits"), stats.cache.hits);
  EXPECT_EQ(stats.telemetry.counter_value("cache.misses"), stats.cache.misses);
  EXPECT_EQ(stats.telemetry.counter_value("cache.insertions"), stats.cache.insertions);
  EXPECT_EQ(stats.telemetry.counter_value("cache.evictions"), stats.cache.evictions);
  EXPECT_EQ(stats.telemetry.counter_value("scheduler.requests"), stats.scheduler.requests);
  EXPECT_EQ(stats.telemetry.counter_value("scheduler.executions"),
            stats.scheduler.executions);
  EXPECT_EQ(stats.telemetry.counter_value("service.jobs_submitted"), 1u);
  EXPECT_EQ(stats.telemetry.counter_value("service.jobs_completed"), 1u);
  EXPECT_EQ(stats.telemetry.counter_value("service.waves"), 3u);
  EXPECT_GT(stats.scheduler.requests, 0u);

  // The response embeds the same snapshot.
  ASSERT_TRUE(response.telemetry.has_value());
  EXPECT_EQ(response.telemetry->counter_value("cache.misses"), stats.cache.misses);
}

TEST(ServiceTelemetry, ResponsesBitIdenticalWithTelemetryOnAndOff) {
  backend::StatevectorBackend backend_off(7);
  std::vector<double> probabilities_off;
  std::uint64_t terms_off = 0;
  {
    ASSERT_FALSE(telemetry::enabled());
    CutService service(backend_off);
    const cutting::CutResponse response = service.run(chain_request());
    probabilities_off = response.reconstruction.raw_probabilities;
    terms_off = response.reconstruction.terms;
    EXPECT_TRUE(response.phase_seconds.empty());
    EXPECT_FALSE(response.telemetry.has_value());
  }

  backend::StatevectorBackend backend_on(7);
  {
    EnabledGuard guard;
    CutService service(backend_on);
    const cutting::CutResponse response = service.run(chain_request());
    ASSERT_EQ(response.reconstruction.raw_probabilities.size(), probabilities_off.size());
    for (std::size_t i = 0; i < probabilities_off.size(); ++i) {
      EXPECT_EQ(response.reconstruction.raw_probabilities[i], probabilities_off[i]) << i;
    }
    EXPECT_EQ(response.reconstruction.terms, terms_off);
  }
}

TEST(ServiceTelemetry, UntracedJobsCarryNoPhaseData) {
  ASSERT_FALSE(telemetry::enabled());
  backend::StatevectorBackend backend(7);
  telemetry::MetricsRegistry registry;
  CutServiceOptions options;
  options.metrics = &registry;
  CutService service(backend, options);
  const cutting::CutResponse response = service.run(chain_request());
  EXPECT_TRUE(response.phase_seconds.empty());
  EXPECT_FALSE(response.telemetry.has_value());

  // Counters still ran (they back the stats views) on the private registry.
  const CutServiceStats stats = service.stats();
  EXPECT_EQ(stats.telemetry.counter_value("service.jobs_completed"), 1u);
  EXPECT_EQ(stats.telemetry.counter_value("cache.misses"), stats.cache.misses);
  EXPECT_GT(stats.cache.misses, 0u);
}

TEST(ServiceTelemetry, DestroyedServicesLeaveTheirTotalsOnTheRegistry) {
  // The qcut::run shape: one short-lived service per call on a shared
  // registry. The dead services' instruments retire into per-name totals,
  // so the job count stays exact.
  telemetry::MetricsRegistry registry;
  constexpr int kServices = 5;
  for (int i = 0; i < kServices; ++i) {
    backend::StatevectorBackend backend(3);
    CutServiceOptions options;
    options.metrics = &registry;
    CutService service(backend, options);
    cutting::CutRequest request(chain_circuit());
    request.with_cut(circuit::WirePoint{1, 1}).with_exact();
    (void)service.run(request);
  }
  EXPECT_EQ(registry.snapshot().counter_value("service.jobs_completed"),
            static_cast<std::uint64_t>(kServices));
}

TEST(ServiceTelemetry, DestroyedServicesLeaveNoGaugeLevel) {
  // A gauge is a level: with one live service at a time on a shared
  // registry, cache.size reads the live cache's entries, not the sum of
  // every cache the registry has seen, and 0 once every service is gone.
  telemetry::MetricsRegistry registry;
  for (int i = 0; i < 3; ++i) {
    backend::StatevectorBackend backend(3);
    CutServiceOptions options;
    options.metrics = &registry;
    CutService service(backend, options);
    cutting::CutRequest request(chain_circuit());
    request.with_cut(circuit::WirePoint{1, 1}).with_exact();
    (void)service.run(request);
    const CutServiceStats stats = service.stats();
    ASSERT_GT(stats.cache.insertions, 0u);
    ASSERT_EQ(stats.cache.evictions, 0u);
    const telemetry::MetricsSnapshot snapshot = registry.snapshot();
    const telemetry::GaugeSample* size = snapshot.find_gauge("cache.size");
    ASSERT_NE(size, nullptr);
    EXPECT_EQ(size->value, static_cast<std::int64_t>(stats.cache.insertions)) << "service " << i;
  }
  const telemetry::MetricsSnapshot snapshot = registry.snapshot();
  const telemetry::GaugeSample* size = snapshot.find_gauge("cache.size");
  ASSERT_NE(size, nullptr);
  EXPECT_EQ(size->value, 0);
}

}  // namespace
}  // namespace qcut::service
