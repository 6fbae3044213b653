#pragma once
// Fragment execution: running every required variant of every fragment of a
// chain on a backend, in parallel, and collecting the outcome distributions
// into ChainFragmentData, or building that data from counts run elsewhere.
// A bipartition is the N=2 chain; tests/cutting_chain_test.cpp pins it to
// digests of the two-fragment pipeline this replaced.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "backend/backend.hpp"
#include "cutting/variants.hpp"
#include "parallel/thread_pool.hpp"

namespace qcut::cutting {

/// Seed-stream layout shared by every execution path (direct and service):
/// fragment f draws from the block base + f * kDownstreamSeedStreamOffset,
/// at sub-index prep_index * 3^Kout + setting_index. For the N=2 chain that
/// puts fragment 0's variants at base + setting_index and fragment 1's at
/// base + kDownstreamSeedStreamOffset + prep_index. The offset keeps the
/// blocks disjoint for any realistic per-boundary cut count.
inline constexpr std::uint64_t kDownstreamSeedStreamOffset = 1u << 20;

/// Base of fragment f's seed-stream block.
[[nodiscard]] constexpr std::uint64_t fragment_seed_offset(int fragment) noexcept {
  return static_cast<std::uint64_t>(fragment) * kDownstreamSeedStreamOffset;
}

/// Sub-index of a variant within its fragment's seed block.
[[nodiscard]] std::uint64_t variant_seed_index(const FragmentGraph& graph, int fragment,
                                               FragmentVariantKey key);

struct ExecutionOptions {
  /// Shots per circuit variant (ignored in exact mode and when
  /// total_shot_budget is set).
  std::size_t shots_per_variant = 1000;

  /// When nonzero, a TOTAL shot budget split evenly across the required
  /// variants (remainder given to the earliest variants). Under a fixed
  /// budget a golden cut concentrates the same shots on fewer variants,
  /// reducing the estimator variance at equal cost.
  std::size_t total_shot_budget = 0;

  /// Use Backend::exact_probabilities instead of sampling (noise-free
  /// reference pipeline; used by the correctness tests).
  bool exact = false;

  /// Pool for concurrent variant execution; nullptr selects the global pool.
  parallel::ThreadPool* pool = nullptr;

  /// Base of the deterministic seed-stream block used for this execution.
  std::uint64_t seed_stream_base = 0;
};

/// Per-variant shot plan shared by every execution path: a fixed per-variant
/// count, or an even split of `total_shot_budget` with the remainder going to
/// the earliest variants. In exact mode the plan is all-`shots_per_variant`
/// but unused. Throws when a nonzero budget cannot cover one shot per
/// variant.
[[nodiscard]] std::vector<std::size_t> plan_variant_shots(std::size_t shots_per_variant,
                                                          std::size_t total_shot_budget,
                                                          bool exact,
                                                          std::size_t num_variants);

/// One variant's outcome distribution behind a shared, immutable handle.
/// Copying a handle shares the storage: the service's cache, every response
/// served from it and every bootstrap replica read the same vector, so
/// nothing may write through a handle (qcut-lint's no-const-cast keeps
/// src/ from casting the const away). To change a variant's data, replace
/// its handle. A handle holds its distribution alive, also past the cache
/// entry or service it came from.
class SharedDistribution {
 public:
  /// Takes ownership of `values` without copying them again. Implicit, so
  /// a variant map's emplace(key, std::move(vector)) stores the vector
  /// itself.
  SharedDistribution(std::vector<double> values);
  /// Shares `values`, e.g. a fragment-cache entry. Throws qcut::Error when
  /// it is null.
  SharedDistribution(std::shared_ptr<const std::vector<double>> values);

  [[nodiscard]] const std::vector<double>& operator*() const noexcept { return *values_; }
  [[nodiscard]] const std::vector<double>* operator->() const noexcept { return values_.get(); }

  /// Equal contents, elementwise, whether or not the storage is shared.
  friend bool operator==(const SharedDistribution& a, const SharedDistribution& b) {
    return *a.values_ == *b.values_;
  }

 private:
  std::shared_ptr<const std::vector<double>> values_;
};

/// The measured per-fragment data the chain Reconstructor consumes.
struct ChainFragmentData {
  struct PerFragment {
    int width = 0;
    /// pack_variant_key(key) -> outcome distribution over 2^width.
    std::unordered_map<std::uint64_t, SharedDistribution> variants;
    /// pack_variant_key(key) -> shots behind that distribution, for the
    /// sampled variants whose count is not shots_per_variant (a budget's
    /// remainder, a later DetectOnline wave, ingested counts).
    /// execute_chain, ingest_counts and CutService record it.
    std::unordered_map<std::uint64_t, std::size_t> shots;
  };
  std::vector<PerFragment> fragments;

  /// 0 in exact mode; under a budget the smallest count of the first wave.
  std::size_t shots_per_variant = 0;
  std::uint64_t total_jobs = 0;
  std::uint64_t total_shots = 0;
  double wall_seconds = 0.0;          // wall time spent gathering the data

  [[nodiscard]] int num_fragments() const noexcept {
    return static_cast<int>(fragments.size());
  }
  /// The stored distribution; throws qcut::Error when it is missing or not
  /// 2^width long.
  [[nodiscard]] const std::vector<double>& distribution(int fragment,
                                                        FragmentVariantKey key) const;
};

/// Empty ChainFragmentData shaped for `graph`.
[[nodiscard]] ChainFragmentData make_chain_data(const FragmentGraph& graph);

/// Runs every variant required by the per-boundary specs on `backend` and
/// collects the distributions. Variants are enumerated fragment by fragment
/// (fragment 0 first, keys ascending), the shot plan is split across that
/// order, and seed streams are assigned per variant, so results do not
/// depend on scheduling. Every variant goes into one Backend::run_batch
/// call over the pool, with the circuits grouped by longest common prefix:
/// backends with a native batch path (the statevector simulator) simulate
/// each shared body once - one full simulation per prep tuple instead of
/// per variant - and fork cheap suffixes for the 3^Kout trailing-rotation
/// variants. By the run_batch determinism contract the results are bit for
/// bit those of per-variant run() / exact_probabilities() calls.
[[nodiscard]] ChainFragmentData execute_chain(const FragmentGraph& graph,
                                              const ChainNeglectSpec& spec,
                                              backend::Backend& backend,
                                              const ExecutionOptions& options = {});

/// Bring-your-own counts: records the counts of one variant run elsewhere
/// (e.g. a make_fragment_variant circuit exported with to_qasm and executed
/// on hardware) into data shaped by make_chain_data, replacing any earlier
/// counts of that variant: a replacement takes the replaced counts' shots
/// out of total_shots and is not counted as another job. Throws when
/// `fragment` is out of range, the register width is not the fragment's,
/// the counts are empty, or `data.shots_per_variant` is set and the shot
/// total differs from it.
void ingest_counts(ChainFragmentData& data, int fragment, FragmentVariantKey key,
                   const backend::Counts& counts);

}  // namespace qcut::cutting
