#include "backend/statevector_backend.hpp"

#include <algorithm>
#include <utility>

#include "sim/sampling.hpp"
#include "telemetry/trace.hpp"

namespace qcut::backend {

StatevectorBackend::StatevectorBackend(std::uint64_t seed, sim::EngineOptions engine)
    : base_rng_(seed), engine_(engine), device_(sim::make_cpu_device(engine)) {
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
  batches_ = registry.counter("backend.batches");
  batch_jobs_ = registry.counter("backend.batch_jobs");
  forks_ = registry.counter("backend.forks");
  prefix_ops_saved_ = registry.counter("backend.prefix_ops_saved");
  group_size_ = registry.histogram("backend.group_size",
                                   telemetry::exponential_bounds(1.0, 2.0, 12));
}

std::string StatevectorBackend::identity() const {
  // The construction seed drives every sampled Counts; the device token
  // carries the result-affecting engine configuration (fusion on or off,
  // the dispatched SIMD ISA) — both must separate cache namespaces (the
  // Backend::identity() contract). Two scalar-vs-SIMD backends therefore
  // never share a fragment-cache entry, while two equal-flag SIMD backends
  // do.
  return name() + "(seed=" + std::to_string(base_rng_.seed()) + ")" +
         device_->identity_token();
}

Counts StatevectorBackend::run(const Circuit& circuit, std::size_t shots,
                               std::uint64_t seed_stream) {
  QCUT_CHECK(shots > 0, "StatevectorBackend::run: shots must be positive");
  const std::vector<double> probs = exact_probabilities(circuit);
  Rng rng = base_rng_.child(seed_stream);
  const std::vector<std::uint64_t> histogram = sim::sample_histogram(probs, shots, rng);

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.jobs;
    stats_.shots += shots;
  }
  return Counts::from_histogram(histogram, circuit.num_qubits());
}

std::vector<double> StatevectorBackend::exact_probabilities(const Circuit& circuit) {
  const std::unique_ptr<sim::CompiledProgram> program = device_->compile(circuit);
  const std::unique_ptr<sim::DeviceState> state = device_->create_state(circuit.num_qubits());
  device_->apply(*program, *state);
  std::vector<double> probs;
  device_->probabilities(*state, probs);
  return probs;
}

namespace {

/// Execution units of a batch: every prefix group, plus a singleton unit
/// (prefix 0) for each job no group covers.
struct BatchUnit {
  std::size_t prefix_ops = 0;
  std::vector<std::size_t> jobs;
};

std::vector<BatchUnit> plan_units(const BatchRequest& request) {
  std::vector<bool> covered(request.jobs.size(), false);
  std::size_t grouped = 0;
  for (const BatchPrefixGroup& group : request.groups) grouped += group.jobs.size();
  std::vector<BatchUnit> units;
  units.reserve(request.groups.size() + request.jobs.size() -
                std::min(grouped, request.jobs.size()));
  for (const BatchPrefixGroup& group : request.groups) {
    QCUT_CHECK(!group.jobs.empty(), "run_batch: prefix group has no jobs");
    const Circuit& rep = request.jobs[group.jobs.front()].circuit;
    for (std::size_t j : group.jobs) {
      QCUT_CHECK(j < request.jobs.size(), "run_batch: prefix group job index out of range");
      QCUT_CHECK(!covered[j], "run_batch: job appears in two prefix groups");
      covered[j] = true;
      const Circuit& c = request.jobs[j].circuit;
      QCUT_CHECK(c.num_qubits() == rep.num_qubits() && group.prefix_ops <= c.num_ops() &&
                     circuit::common_prefix_ops(rep, c) >= group.prefix_ops,
                 "run_batch: prefix group members do not share the declared prefix");
    }
    units.push_back(BatchUnit{group.prefix_ops, group.jobs});
  }
  for (std::size_t j = 0; j < request.jobs.size(); ++j) {
    if (!covered[j]) units.push_back(BatchUnit{0, {j}});
  }
  return units;
}

}  // namespace

BatchResult StatevectorBackend::run_batch(const BatchRequest& request) {
  TELEMETRY_SPAN("backend.run_batch");
  BatchResult result;
  result.probabilities.resize(request.jobs.size());

  const std::vector<BatchUnit> units = plan_units(request);

  // How much the shared-prefix plan shares: each unit simulates its prefix
  // once and forks a state copy per extra member, saving prefix_ops
  // applications for each of them.
  batches_->add();
  batch_jobs_->add(request.jobs.size());
  for (const BatchUnit& unit : units) {
    group_size_->record(static_cast<double>(unit.jobs.size()));
    const std::uint64_t extra_members = unit.jobs.size() - 1;
    forks_->add(extra_members);
    prefix_ops_saved_->add(extra_members * unit.prefix_ops);
  }

  std::size_t sampled_shots = 0;
  if (!request.exact) {
    for (const BatchJob& job : request.jobs) {
      QCUT_CHECK(job.shots > 0, "StatevectorBackend::run_batch: shots must be positive");
      sampled_shots += job.shots;
    }
  }

  const auto run_unit = [&](std::size_t u) {
    TELEMETRY_SPAN("backend.unit");
    const BatchUnit& unit = units[u];
    const Circuit& rep = request.jobs[unit.jobs.front()].circuit;
    const int width = rep.num_qubits();

    // Compile (and fusion-scan) the shared prefix ONCE. Under fusion only
    // the settled operations — those no later push could merge into — are
    // applied before the fork; compile_suffix clones the prefix program's
    // scan state per member, so settled + member tail is exactly the stream
    // a standalone full-circuit compile emits (the GateFusion stream
    // property).
    const std::unique_ptr<sim::CompiledProgram> prefix_program =
        device_->compile_prefix(rep, unit.prefix_ops);
    const std::unique_ptr<sim::DeviceState> base = device_->create_state(width);
    device_->apply(*prefix_program, *base);

    // Per-member scratch, allocated once per unit and reused: the forked
    // state (copy_state reuses its buffers), which only a unit of several
    // members needs, and the sampled-mode probability vector. The last
    // member consumes the prefix state itself.
    const std::unique_ptr<sim::DeviceState> fork =
        unit.jobs.size() > 1 ? device_->create_state(width) : nullptr;
    std::vector<double> probs_scratch;
    for (std::size_t m = 0; m < unit.jobs.size(); ++m) {
      const std::size_t j = unit.jobs[m];
      const BatchJob& job = request.jobs[j];
      const bool last = m + 1 == unit.jobs.size();
      sim::DeviceState& member = last ? *base : *fork;
      if (!last) device_->copy_state(*base, *fork);
      const std::unique_ptr<sim::CompiledProgram> suffix =
          device_->compile_suffix(*prefix_program, job.circuit);
      device_->apply(*suffix, member);
      if (request.exact) {
        device_->probabilities(member, result.probabilities[j]);
      } else {
        device_->probabilities(member, probs_scratch);
        Rng rng = base_rng_.child(job.seed_stream);
        result.probabilities[j] = probabilities_from_histogram(
            sim::sample_histogram(probs_scratch, job.shots, rng), job.shots);
      }
    }
  };

  if (request.pool != nullptr) {
    parallel::parallel_for(*request.pool, 0, units.size(), run_unit);
  } else {
    for (std::size_t u = 0; u < units.size(); ++u) run_unit(u);
  }

  // Accounting matches the equivalent per-job calls: run() bills each job,
  // exact_probabilities() bills nothing.
  if (!request.exact && !request.jobs.empty()) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.jobs += request.jobs.size();
    stats_.shots += sampled_shots;
  }
  return result;
}

BackendStats StatevectorBackend::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void StatevectorBackend::reset_stats() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_ = BackendStats{};
}

}  // namespace qcut::backend
