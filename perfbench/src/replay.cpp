#include "replay.hpp"

#include <chrono>
#include <fstream>
#include <memory>

#include "backend/counts.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "cutting/fragment_executor.hpp"
#include "cutting/fragment_graph.hpp"
#include "cutting/golden.hpp"
#include "cutting/reconstructor.hpp"
#include "cutting/variants.hpp"
#include "run_record.hpp"
#include "service/circuit_hash.hpp"
#include "service/job.hpp"
#include "sim/device.hpp"
#include "sim/sampling.hpp"

namespace perfbench {

namespace cutting = qcut::cutting;
namespace service = qcut::service;
namespace sim = qcut::sim;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// One fragment's required variants (CutService's fragment_wave).
std::vector<service::WaveVariant> fragment_wave(const cutting::FragmentGraph& graph,
                                                const cutting::ChainNeglectSpec& spec,
                                                int fragment) {
  std::vector<service::WaveVariant> wave;
  for (const cutting::FragmentVariantKey& key :
       cutting::required_fragment_variants(graph, fragment, spec)) {
    wave.push_back(service::WaveVariant{fragment, key});
  }
  return wave;
}

/// Every fragment's variants, fragment-major (CutService's full_wave).
std::vector<service::WaveVariant> full_wave(const cutting::FragmentGraph& graph,
                                            const cutting::ChainNeglectSpec& spec) {
  std::vector<service::WaveVariant> wave;
  for (int f = 0; f < graph.num_fragments(); ++f) {
    const std::vector<service::WaveVariant> part = fragment_wave(graph, spec, f);
    wave.insert(wave.end(), part.begin(), part.end());
  }
  return wave;
}

double computed_apply_bytes(const sim::CompiledProgram& program) {
  return static_cast<double>(program.summary().compiled_ops) * 2.0 * 16.0 *
         static_cast<double>(std::uint64_t{1} << program.num_qubits());
}

}  // namespace

/// RAII span: opens on construction, closes on destruction.
class Replayer::Scope {
 public:
  Scope(Replayer& replayer, const char* name, int parent)
      : replayer_(replayer), id_(replayer.open(name, parent)) {}
  ~Scope() { replayer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Replayer& replayer_;
  int id_;
};

/// One wave of one job: what CutService::issue_wave prepares, plus the
/// results the wave's variants resolve to.
struct Replayer::Wave {
  Wave(const cutting::FragmentGraph& wave_graph, const cutting::CutRunOptions& run_options,
       cutting::ChainFragmentData& job_data, std::vector<service::WaveVariant> wave_variants,
       bool first_wave)
      : graph(wave_graph),
        options(run_options),
        data(job_data),
        variants(std::move(wave_variants)),
        first(first_wave) {}

  const cutting::FragmentGraph& graph;
  const cutting::CutRunOptions& options;
  cutting::ChainFragmentData& data;
  std::vector<service::WaveVariant> variants;
  bool first;

  std::vector<service::VariantSlot> slots;
  std::size_t smallest_share = 0;
  std::vector<qcut::circuit::Circuit> circuits;
  std::vector<std::uint64_t> seed_streams;
  std::vector<service::Hash128> keys;
  std::vector<service::CachedDistribution> results;
};

Replayer::Replayer(qcut::backend::StatevectorBackend& backend, qcut::parallel::ThreadPool& pool,
                   std::uint64_t backend_seed, std::size_t cache_capacity,
                   std::uint64_t cache_max_bytes)
    : backend_(backend),
      pool_(pool),
      backend_seed_(backend_seed),
      backend_identity_(backend.identity()),
      cache_(cache_capacity, &cache_metrics_, cache_max_bytes) {}

int Replayer::open(const char* name, int parent) {
  if (!recording_) return -1;
  const std::uint64_t start = now_ns();
  std::lock_guard<std::mutex> lock(spans_mutex_);
  spans_.push_back(Span{name, start, start, parent, job_});
  return static_cast<int>(spans_.size()) - 1;
}

void Replayer::close(int span) {
  if (span < 0) return;
  const std::uint64_t end = now_ns();
  std::lock_guard<std::mutex> lock(spans_mutex_);
  spans_[static_cast<std::size_t>(span)].end_ns = end;
}

std::vector<double> Replayer::replay(const cutting::CutRequest& request, std::uint64_t job_id,
                                     bool record) {
  QCUT_CHECK(!request.options.exact, "perfbench replay: exact-mode requests are not replayed");
  recording_ = record;
  job_ = job_id;
  const cutting::CutRunOptions& opt = request.options;

  Scope job(*this, "job", -1);
  const int root = job.id();

  cutting::ResolvedRequest resolved;
  {
    Scope span(*this, "cutting.plan", root);
    resolved = cutting::resolve(request);
  }
  cutting::FragmentGraph graph;
  cutting::ChainFragmentData data;
  {
    Scope span(*this, "cutting.chain", root);
    graph = cutting::make_fragment_chain(resolved.circuit, resolved.boundaries);
    data = cutting::make_chain_data(graph);
  }

  cutting::ChainNeglectSpec specs = cutting::ChainNeglectSpec::none(graph);
  if (opt.golden_mode == cutting::GoldenMode::Provided) {
    Scope span(*this, "cutting.golden", root);
    specs = cutting::ChainNeglectSpec(opt.provided_spec.has_value()
                                          ? std::vector<cutting::NeglectSpec>{*opt.provided_spec}
                                          : opt.provided_boundary_specs);
  } else if (opt.golden_mode == cutting::GoldenMode::DetectExact) {
    Scope span(*this, "cutting.golden", root);
    std::vector<cutting::NeglectSpec> boundary_specs;
    for (const std::vector<qcut::circuit::WirePoint>& boundary : resolved.boundaries) {
      const cutting::Bipartition bp = cutting::make_bipartition(resolved.circuit, boundary);
      boundary_specs.push_back(cutting::detect_golden_exact(bp, opt.golden_tol).to_spec());
    }
    specs = cutting::ChainNeglectSpec(std::move(boundary_specs));
  }

  if (opt.golden_mode == cutting::GoldenMode::DetectOnline) {
    // One wave per fragment; boundary f is pruned from fragment f's
    // measured data before fragment f+1's wave is built.
    for (int f = 0; f < graph.num_fragments(); ++f) {
      Wave wave(graph, opt, data, fragment_wave(graph, specs, f), f == 0);
      run_wave(wave, root);
      if (f + 1 == graph.num_fragments()) break;

      Scope span(*this, "cutting.golden", root);
      const std::vector<std::uint32_t> contexts =
          f > 0 ? cutting::required_prep_indices(specs.boundary(f - 1))
                : std::vector<std::uint32_t>{0};
      const cutting::ChainFragment& fragment = graph.fragments[static_cast<std::size_t>(f)];
      cutting::FragmentLayout layout;
      layout.num_cuts = graph.boundaries[static_cast<std::size_t>(f)].num_cuts();
      layout.width = fragment.width();
      layout.cut_qubits = fragment.out_cut_qubits;
      layout.out_qubits = fragment.output_qubits;
      const cutting::GoldenDetectionReport detection = cutting::detect_golden_from_counts_core(
          layout, contexts.size(),
          [&](std::size_t context, std::uint32_t setting) -> const std::vector<double>& {
            return data.distribution(f, cutting::FragmentVariantKey{contexts[context], setting});
          },
          wave.smallest_share, opt.online);
      specs.boundary(f) = detection.to_spec();
    }
  } else {
    Wave wave(graph, opt, data, full_wave(graph, specs), true);
    run_wave(wave, root);
  }

  Scope span(*this, "cutting.reconstruct", root);
  cutting::ReconstructionOptions recon;
  recon.pool = opt.pool != nullptr ? opt.pool : &pool_;  // as CutService does
  return cutting::reconstruct_distribution(graph, data, specs, recon).raw_probabilities;
}

void Replayer::run_wave(Wave& wave, int parent) {
  const cutting::CutRunOptions& opt = wave.options;
  {
    Scope span(*this, "cutting.variants", parent);
    service::WavePlan plan =
        service::plan_wave(wave.variants, opt.shots_per_variant, opt.total_shot_budget, false);
    if (wave.first) wave.data.shots_per_variant = plan.smallest_share;
    wave.data.total_jobs += plan.slots.size();
    wave.data.total_shots += plan.planned_total_shots;
    wave.smallest_share = plan.smallest_share;
    wave.slots = std::move(plan.slots);
    for (const service::VariantSlot& slot : wave.slots) {
      wave.circuits.push_back(
          cutting::make_fragment_variant(wave.graph, slot.fragment, slot.key).circuit);
      wave.seed_streams.push_back(opt.seed_stream_base +
                                  cutting::fragment_seed_offset(slot.fragment) +
                                  cutting::variant_seed_index(wave.graph, slot.fragment, slot.key));
    }
  }
  const std::size_t n = wave.slots.size();
  {
    Scope span(*this, "service.hash", parent);
    for (std::size_t i = 0; i < n; ++i) {
      wave.keys.push_back(service::hash_variant_execution(
          wave.circuits[i], wave.slots[i].shots, false, wave.seed_streams[i], backend_identity_));
    }
  }
  wave.results.assign(n, nullptr);
  std::vector<std::size_t> misses;
  {
    Scope span(*this, "service.cache.lookup", parent);
    for (std::size_t i = 0; i < n; ++i) {
      if (std::optional<service::CachedDistribution> hit = cache_.lookup(wave.keys[i])) {
        wave.results[i] = std::move(*hit);
      } else {
        misses.push_back(i);
      }
    }
    if (recording_) cache_lookups_ += n;
  }
  if (!misses.empty()) {
    std::vector<cutting::PrefixGroup> groups;
    {
      Scope span(*this, "cutting.prefix_group", parent);
      std::vector<const qcut::circuit::Circuit*> circuits;
      circuits.reserve(misses.size());
      for (std::size_t i : misses) circuits.push_back(&wave.circuits[i]);
      groups = cutting::group_by_shared_prefix(circuits);
    }
    for (const cutting::PrefixGroup& group : groups) {
      std::vector<std::size_t> members;
      for (std::size_t m : group.members) members.push_back(misses[m]);
      // A singleton is a standalone backend unit (prefix 0), as in
      // CutService::launch_variant_groups.
      run_group(wave, members, members.size() > 1 ? group.prefix_ops : 0, parent);
    }
    Scope span(*this, "service.cache.insert", parent);
    for (std::size_t i : misses) cache_.insert(wave.keys[i], wave.results[i]);
  }
  Scope span(*this, "service.absorb", parent);
  for (std::size_t i = 0; i < n; ++i) {
    const service::VariantSlot& slot = wave.slots[i];
    wave.data.fragments[static_cast<std::size_t>(slot.fragment)].variants.emplace(
        cutting::pack_variant_key(slot.key), *wave.results[i]);
  }
}

void Replayer::run_group(Wave& wave, const std::vector<std::size_t>& members,
                         std::size_t prefix_ops, int parent) {
  Scope dispatch(*this, "parallel.dispatch", parent);
  const int dispatch_id = dispatch.id();
  // StatevectorBackend::run_batch for one shared-prefix unit, step by step.
  const auto unit = [&] {
    Scope batch(*this, "backend.run_batch", dispatch_id);
    const int batch_id = batch.id();
    const sim::Device& device = backend_.device();
    const qcut::circuit::Circuit& rep = wave.circuits[members.front()];
    const int width = rep.num_qubits();

    std::unique_ptr<sim::CompiledProgram> prefix;
    {
      Scope span(*this, "sim.compile", batch_id);
      prefix = device.compile_prefix(rep, prefix_ops);
    }
    const std::unique_ptr<sim::DeviceState> base = device.create_state(width);
    {
      Scope span(*this, "sim.apply", batch_id);
      device.apply(*prefix, *base);
    }
    double bytes = computed_apply_bytes(*prefix);
    const std::unique_ptr<sim::DeviceState> fork = device.create_state(width);
    std::vector<double> probabilities;
    std::uint64_t ops = 0;
    for (std::size_t m = 0; m < members.size(); ++m) {
      const std::size_t j = members[m];
      const bool last = m + 1 == members.size();
      sim::DeviceState& state = last ? *base : *fork;
      if (!last) device.copy_state(*base, *fork);
      std::unique_ptr<sim::CompiledProgram> suffix;
      {
        Scope span(*this, "sim.compile", batch_id);
        suffix = device.compile_suffix(*prefix, wave.circuits[j]);
      }
      {
        Scope span(*this, "sim.apply", batch_id);
        device.apply(*suffix, state);
      }
      bytes += computed_apply_bytes(*suffix);
      ops += wave.circuits[j].num_ops();
      Scope span(*this, "sim.sample", batch_id);
      device.probabilities(state, probabilities);
      qcut::Rng rng = qcut::Rng(backend_seed_).child(wave.seed_streams[j]);
      const qcut::backend::Counts counts = qcut::backend::Counts::from_histogram(
          sim::sample_histogram(probabilities, wave.slots[j].shots, rng), width);
      wave.results[j] = std::make_shared<const std::vector<double>>(counts.to_probabilities());
    }
    if (recording_) {
      apply_bytes_ += bytes;
      ops_submitted_ += ops;
      prefix_ops_saved_ += (members.size() - 1) * prefix_ops;
    }
  };
  pool_.submit(unit).get();
}

ReplayReport Replayer::report() const {
  std::lock_guard<std::mutex> lock(spans_mutex_);
  ReplayReport out;
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  double attributed_sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::uint64_t duration = span.end_ns - span.start_ns;
    if (span.parent < 0) {
      ++out.jobs;
      out.job_wall_s += static_cast<double>(duration) * 1e-9;
      attributed_sum += duration == 0 ? 0.0
                                      : static_cast<double>(child_ns[i]) /
                                            static_cast<double>(duration);
      continue;
    }
    LayerTotals& layer = out.layers[span.name];
    layer.self_s += static_cast<double>(duration - child_ns[i]) * 1e-9;
    ++layer.spans;
  }
  if (out.jobs > 0) {
    out.job_wall_s /= static_cast<double>(out.jobs);
    out.attributed_frac = attributed_sum / static_cast<double>(out.jobs);
  }
  out.cache_lookups = cache_lookups_;
  out.prefix_ops_saved = prefix_ops_saved_;
  out.ops_submitted = ops_submitted_;
  out.apply_bytes = apply_bytes_;
  return out;
}

bool Replayer::write_spans(const std::string& path) const {
  std::lock_guard<std::mutex> lock(spans_mutex_);
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    JsonObject event;
    event.add("name", span.name)
        .add("ph", "X")
        .add("ts", static_cast<double>(span.start_ns - epoch) * 1e-3)
        .add("dur", static_cast<double>(span.end_ns - span.start_ns) * 1e-3)
        .add("pid", 1)
        .add("tid", span.job)
        .add_raw("args", "{\"parent\": " + std::to_string(span.parent) + "}");
    out << (i == 0 ? "\n" : ",\n") << event.str();
  }
  out << "\n]}\n";
  return out.good();
}

}  // namespace perfbench
