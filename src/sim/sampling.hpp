#pragma once
// Shot sampling from exact outcome distributions.

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace qcut::sim {

/// Draws `shots` outcomes from the distribution `probabilities` (need not be
/// perfectly normalized; tiny negative entries from floating-point noise are
/// clamped to zero; a non-finite total is a qcut::Error) and returns the
/// histogram of counts: bit for bit the outcomes of `shots`
/// DiscreteSampler::sample calls, one draw per shot, through
/// DiscreteSampler::sample_histogram's guide table (expected O(1 +
/// outcomes / entries) work per shot, at most 2^12 entries), or through
/// single sample() draws when there are fewer than min(outcomes / 16,
/// 2048) shots.
[[nodiscard]] std::vector<std::uint64_t> sample_histogram(std::span<const double> probabilities,
                                                          std::size_t shots, Rng& rng);

/// Empirical probabilities from a histogram (histogram / total).
[[nodiscard]] std::vector<double> histogram_to_probabilities(
    std::span<const std::uint64_t> histogram);

}  // namespace qcut::sim
