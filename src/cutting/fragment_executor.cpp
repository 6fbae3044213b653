#include "cutting/fragment_executor.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"

namespace qcut::cutting {

std::vector<std::size_t> plan_variant_shots(std::size_t shots_per_variant,
                                            std::size_t total_shot_budget, bool exact,
                                            std::size_t num_variants) {
  if (num_variants == 0) return {};
  std::vector<std::size_t> shots_for(num_variants, shots_per_variant);
  if (!exact && total_shot_budget > 0) {
    QCUT_CHECK(total_shot_budget >= num_variants,
               "plan_variant_shots: total_shot_budget must cover at least one shot per variant");
    const std::size_t base = total_shot_budget / num_variants;
    const std::size_t remainder = total_shot_budget % num_variants;
    for (std::size_t v = 0; v < num_variants; ++v) {
      shots_for[v] = base + (v < remainder ? 1 : 0);
    }
  }
  return shots_for;
}

std::uint64_t variant_seed_index(const FragmentGraph& graph, int fragment,
                                 FragmentVariantKey key) {
  QCUT_CHECK(fragment >= 0 && fragment < graph.num_fragments(),
             "variant_seed_index: fragment index out of range");
  std::uint64_t setting_tuples = 1;
  if (fragment < graph.num_boundaries()) {
    for (int k = 0; k < graph.boundaries[static_cast<std::size_t>(fragment)].num_cuts(); ++k) {
      setting_tuples *= 3;
    }
  }
  const std::uint64_t sub_index =
      static_cast<std::uint64_t>(key.prep_index) * setting_tuples + key.setting_index;
  // An interior fragment's 6^Kin * 3^Kout sub-indices must stay inside the
  // fragment's seed block, or its variants would silently draw the next
  // fragment's seed streams (correlated samples, cache-key collisions).
  QCUT_CHECK(sub_index < kDownstreamSeedStreamOffset,
             "variant_seed_index: fragment " + std::to_string(fragment) +
                 " has too many cut wires for the per-fragment seed block (sub-index " +
                 std::to_string(sub_index) + " >= 2^20); reduce the cuts per boundary");
  return sub_index;
}

SharedDistribution::SharedDistribution(std::vector<double> values)
    : values_(std::make_shared<const std::vector<double>>(std::move(values))) {}

SharedDistribution::SharedDistribution(std::shared_ptr<const std::vector<double>> values)
    : values_(std::move(values)) {
  QCUT_CHECK(values_ != nullptr, "SharedDistribution: null distribution");
}

const std::vector<double>& ChainFragmentData::distribution(int fragment,
                                                           FragmentVariantKey key) const {
  QCUT_CHECK(fragment >= 0 && fragment < num_fragments(),
             "ChainFragmentData: fragment index out of range");
  const auto& map = fragments[static_cast<std::size_t>(fragment)].variants;
  const auto it = map.find(pack_variant_key(key));
  // Built only when a check fails.
  const auto variant = [&] {
    return "ChainFragmentData: variant (prep " + std::to_string(key.prep_index) + ", setting " +
           std::to_string(key.setting_index) + ") of fragment " + std::to_string(fragment);
  };
  QCUT_CHECK(it != map.end(), variant() + " was not executed");
  const std::vector<double>& values = *it->second;
  const int width = fragments[static_cast<std::size_t>(fragment)].width;
  QCUT_CHECK(values.size() == pow2(width),
             variant() + " has " + std::to_string(values.size()) + " outcomes, not 2^" +
                 std::to_string(width));
  return values;
}

ChainFragmentData make_chain_data(const FragmentGraph& graph) {
  ChainFragmentData data;
  data.fragments.resize(static_cast<std::size_t>(graph.num_fragments()));
  for (int f = 0; f < graph.num_fragments(); ++f) {
    data.fragments[static_cast<std::size_t>(f)].width =
        graph.fragments[static_cast<std::size_t>(f)].width();
  }
  return data;
}

ChainFragmentData execute_chain(const FragmentGraph& graph, const ChainNeglectSpec& spec,
                                backend::Backend& backend, const ExecutionOptions& options) {
  QCUT_CHECK(spec.num_boundaries() == graph.num_boundaries(),
             "execute_chain: spec boundary count must match the graph");
  QCUT_CHECK(options.exact || options.shots_per_variant > 0 || options.total_shot_budget > 0,
             "execute_chain: need shots_per_variant or total_shot_budget when sampling");

  Stopwatch timer;
  parallel::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : parallel::ThreadPool::global();

  struct WorkItem {
    int fragment;
    FragmentVariantKey key;
  };
  std::vector<WorkItem> work;
  for (int f = 0; f < graph.num_fragments(); ++f) {
    for (const FragmentVariantKey& key : required_fragment_variants(graph, f, spec)) {
      work.push_back(WorkItem{f, key});
    }
  }

  const std::vector<std::size_t> shots_for = plan_variant_shots(
      options.shots_per_variant, options.total_shot_budget, options.exact, work.size());

  ChainFragmentData data = make_chain_data(graph);
  if (!options.exact) {
    data.shots_per_variant = shots_for.empty() ? 0 : shots_for.back();  // smallest share
  }

  backend::BatchRequest batch;
  batch.exact = options.exact;
  batch.pool = &pool;
  batch.jobs.reserve(work.size());
  for (std::size_t v = 0; v < work.size(); ++v) {
    const WorkItem& item = work[v];
    backend::BatchJob job;
    job.circuit = make_fragment_variant(graph, item.fragment, item.key).circuit;
    job.shots = shots_for[v];
    job.seed_stream = options.seed_stream_base + fragment_seed_offset(item.fragment) +
                      variant_seed_index(graph, item.fragment, item.key);
    batch.jobs.push_back(std::move(job));
  }
  std::vector<const Circuit*> circuits;
  circuits.reserve(batch.jobs.size());
  for (const backend::BatchJob& job : batch.jobs) circuits.push_back(&job.circuit);
  for (PrefixGroup& group : group_by_shared_prefix(circuits)) {
    batch.groups.push_back(backend::BatchPrefixGroup{group.prefix_ops, std::move(group.members)});
  }
  std::vector<std::vector<double>> results = backend.run_batch(batch).probabilities;

  for (std::size_t v = 0; v < work.size(); ++v) {
    ChainFragmentData::PerFragment& fragment =
        data.fragments[static_cast<std::size_t>(work[v].fragment)];
    const std::uint64_t key = pack_variant_key(work[v].key);
    fragment.variants.emplace(key, std::move(results[v]));
    if (!options.exact && shots_for[v] != data.shots_per_variant) {
      fragment.shots.emplace(key, shots_for[v]);
    }
  }

  data.total_jobs = work.size();
  if (!options.exact) {
    for (std::size_t v = 0; v < work.size(); ++v) data.total_shots += shots_for[v];
  }
  data.wall_seconds = timer.elapsed_seconds();
  return data;
}

void ingest_counts(ChainFragmentData& data, int fragment, FragmentVariantKey key,
                   const backend::Counts& counts) {
  QCUT_CHECK(fragment >= 0 && fragment < data.num_fragments(),
             "ingest_counts: fragment index out of range");
  ChainFragmentData::PerFragment& target = data.fragments[static_cast<std::size_t>(fragment)];
  QCUT_CHECK(counts.num_bits() == target.width,
             "ingest_counts: counts register width does not match the fragment");
  QCUT_CHECK(counts.total_shots() > 0, "ingest_counts: counts are empty");
  QCUT_CHECK(data.shots_per_variant == 0 || counts.total_shots() == data.shots_per_variant,
             "ingest_counts: counts shot total does not match shots_per_variant");
  const std::uint64_t packed = pack_variant_key(key);
  if (target.variants.insert_or_assign(packed, counts.to_probabilities()).second) {
    ++data.total_jobs;
  } else {
    // A replacement: the replaced counts' shots leave the total.
    const auto replaced = target.shots.find(packed);
    data.total_shots -= replaced != target.shots.end() ? replaced->second : data.shots_per_variant;
  }
  if (counts.total_shots() != data.shots_per_variant) {
    target.shots.insert_or_assign(packed, counts.total_shots());
  } else {
    target.shots.erase(packed);
  }
  data.total_shots += counts.total_shots();
}

}  // namespace qcut::cutting
