#include "cutting/uncertainty.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/ordered.hpp"
#include "common/rng.hpp"
#include "metrics/stats.hpp"
#include "sim/sampling.hpp"

namespace qcut::cutting {

namespace {

/// One multinomial resample of every variant distribution in `data`, each
/// with the shots recorded for it (data.shots_per_variant where none is).
/// The replica starts as handle copies of `data` and replaces each handle
/// with its resampled distribution: the shared distributions (a service
/// cache's entries among them) are read, never written.
///
/// Fragments are visited in order and each fragment's variants in ascending
/// packed key, so the RNG consumption sequence (and with it every bootstrap
/// replica) is a pure function of (data, seed), not of unordered_map
/// iteration order, which differs across standard library implementations
/// and rehash histories.
ChainFragmentData resample(const ChainFragmentData& data, Rng& rng) {
  ChainFragmentData replica = data;
  for (ChainFragmentData::PerFragment& fragment : replica.fragments) {
    for (const std::uint64_t key : sorted_keys(fragment.variants)) {
      SharedDistribution& probs = fragment.variants.at(key);
      const auto recorded = fragment.shots.find(key);
      const std::size_t shots =
          recorded != fragment.shots.end() ? recorded->second : data.shots_per_variant;
      const auto histogram = sim::sample_histogram(*probs, shots, rng);
      probs = sim::histogram_to_probabilities(histogram);
    }
  }
  return replica;
}

void check_inputs(const ChainFragmentData& data, const BootstrapOptions& options) {
  QCUT_CHECK(data.shots_per_variant > 0,
             "bootstrap: fragment data must be sampled (exact data has no shot noise)");
  check_bootstrap_options(options);
}

/// Linearly interpolated quantile of ascending `values`.
double quantile(const std::vector<double>& values, double q) {
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace

void check_bootstrap_options(const BootstrapOptions& options) {
  QCUT_CHECK(options.replicas >= 2, "bootstrap: need at least 2 replicas");
  // Written so that NaN fails too.
  QCUT_CHECK(options.confidence > 0.0 && options.confidence < 1.0,
             "bootstrap: confidence must be in (0, 1)");
}

DistributionUncertainty bootstrap_distribution(const FragmentGraph& graph,
                                               const ChainFragmentData& data,
                                               const ChainNeglectSpec& spec,
                                               const BootstrapOptions& options) {
  check_inputs(data, options);

  Rng rng(options.seed);
  ReconstructionOptions recon;
  recon.pool = options.pool;

  const index_t dim = pow2(graph.num_original_qubits);
  std::vector<std::vector<double>> replicas;
  replicas.reserve(options.replicas);
  for (std::size_t r = 0; r < options.replicas; ++r) {
    Rng replica_rng = rng.child(r);
    const ChainFragmentData resampled = resample(data, replica_rng);
    replicas.push_back(
        reconstruct_distribution(graph, resampled, spec, recon).raw_probabilities);
  }

  DistributionUncertainty out;
  out.mean.assign(dim, 0.0);
  out.standard_error.assign(dim, 0.0);
  out.ci_lower.assign(dim, 0.0);
  out.ci_upper.assign(dim, 0.0);

  const double alpha = (1.0 - options.confidence) / 2.0;
  std::vector<double> values(options.replicas);
  for (index_t x = 0; x < dim; ++x) {
    metrics::RunningStats stats;
    for (std::size_t r = 0; r < options.replicas; ++r) {
      values[r] = replicas[r][x];
      stats.add(values[r]);
    }
    out.mean[x] = stats.mean();
    out.standard_error[x] = stats.stddev();
    std::sort(values.begin(), values.end());
    out.ci_lower[x] = quantile(values, alpha);
    out.ci_upper[x] = quantile(values, 1.0 - alpha);
  }
  return out;
}

ExpectationUncertainty bootstrap_expectation(const FragmentGraph& graph,
                                             const ChainFragmentData& data,
                                             const ChainNeglectSpec& spec,
                                             const DiagonalObservable& observable,
                                             const BootstrapOptions& options) {
  check_inputs(data, options);

  Rng rng(options.seed);
  ReconstructionOptions recon;
  recon.pool = options.pool;

  std::vector<double> values;
  values.reserve(options.replicas);
  for (std::size_t r = 0; r < options.replicas; ++r) {
    Rng replica_rng = rng.child(r);
    const ChainFragmentData resampled = resample(data, replica_rng);
    values.push_back(reconstruct_diagonal_expectation(graph, resampled, spec,
                                                      observable.diagonal(), recon));
  }

  ExpectationUncertainty out;
  out.estimate =
      reconstruct_diagonal_expectation(graph, data, spec, observable.diagonal(), recon);
  const metrics::Summary summary = metrics::summarize(values);
  out.standard_error = summary.stddev;

  std::sort(values.begin(), values.end());
  const double alpha = (1.0 - options.confidence) / 2.0;
  out.ci_lower = quantile(values, alpha);
  out.ci_upper = quantile(values, 1.0 - alpha);
  return out;
}

}  // namespace qcut::cutting
