#include "sim/sampling.hpp"

#include <cmath>

#include "common/error.hpp"

namespace qcut::sim {

namespace {

/// Entries down to -kNegativeTolerance count as exact zeros.
constexpr double kNegativeTolerance = 1e-9;

/// Multinomial counts as a chain of conditional binomials: outcome i, in
/// index order, takes Binomial(shots left, w_i / (w_i + ... + w_last)). The
/// mass left is an exact suffix sum, so the last positive-weight outcome
/// takes the remainder at p = 1 without a draw, and a zero-weight outcome
/// takes 0.
std::vector<std::uint64_t> binomial_chain(std::span<const double> probabilities,
                                          std::size_t shots, Rng& rng) {
  const std::size_t size = probabilities.size();
  std::vector<double> mass_left(size);
  double mass = 0.0;
  for (std::size_t i = size; i-- > 0;) {
    double w = probabilities[i];
    if (w < 0.0) {
      QCUT_CHECK(w >= -kNegativeTolerance, "sample_histogram: weights must be non-negative");
      w = 0.0;
    }
    mass += w;
    mass_left[i] = mass;
  }
  QCUT_CHECK(mass > 0.0, "sample_histogram: total weight must be positive");
  QCUT_CHECK(std::isfinite(mass), "sample_histogram: total weight must be finite");

  std::vector<std::uint64_t> histogram(size, 0);
  std::uint64_t left = shots;
  for (std::size_t i = 0; i < size && left > 0; ++i) {
    if (!(probabilities[i] > 0.0)) continue;
    const std::uint64_t count = rng.binomial(left, probabilities[i] / mass_left[i]);
    histogram[i] = count;
    left -= count;
  }
  return histogram;
}

}  // namespace

std::vector<std::uint64_t> sample_histogram(std::span<const double> probabilities,
                                            std::size_t shots, Rng& rng) {
  QCUT_CHECK(!probabilities.empty(), "sample_histogram: empty distribution");
  if (shots / kBinomialShotsPerOutcome >= probabilities.size()) {
    return binomial_chain(probabilities, shots, rng);
  }
  // Validation and clamping happen lazily inside DiscreteSampler while it
  // builds its cumulative table, so this path makes one pass over the
  // distribution instead of copy + clamp + accumulate.
  const DiscreteSampler sampler(probabilities, kNegativeTolerance);
  return sampler.sample_histogram(shots, rng);
}

std::vector<double> histogram_to_probabilities(std::span<const std::uint64_t> histogram) {
  std::uint64_t total = 0;
  for (std::uint64_t c : histogram) total += c;
  QCUT_CHECK(total > 0, "histogram_to_probabilities: histogram is empty");
  std::vector<double> probs(histogram.size());
  for (std::size_t i = 0; i < histogram.size(); ++i) {
    probs[i] = static_cast<double>(histogram[i]) / static_cast<double>(total);
  }
  return probs;
}

}  // namespace qcut::sim
