#pragma once
// Shot sampling from exact outcome distributions.

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace qcut::sim {

/// Shots per outcome from which sample_histogram draws one binomial per
/// outcome instead of one draw per shot. Fixed from bench/micro_planner's
/// rows of both methods: on random weights the guide table is faster at
/// 2^10 outcomes x 4000 shots (3.9 per outcome) and the binomials at 2^12
/// x 20000 (4.9), 2^8 x 4000 and every paper-size fragment.
inline constexpr std::size_t kBinomialShotsPerOutcome = 4;

/// Draws `shots` outcomes from the distribution `probabilities` and returns
/// the histogram of counts, exactly multinomial. The weights need not be
/// normalized; entries down to -1e-9 (floating-point noise) count as 0,
/// and a more negative entry, a zero total or a non-finite total is a
/// qcut::Error.
///
/// The method depends on (outcomes, shots) alone:
///  * shots >= kBinomialShotsPerOutcome * outcomes (paper-size fragments,
///    few outcomes against many shots): one Rng::binomial per outcome.
///    Outcome i, in index order, takes Binomial(shots left, p_i / mass
///    left), the mass left an exact suffix sum of the weights, so the last
///    positive-weight outcome takes the remainder without a draw and a
///    zero-weight outcome takes exactly 0. O(outcomes) work.
///  * otherwise (wide fragments): DiscreteSampler::sample_histogram, one
///    draw per shot through its guide table (expected O(1 + outcomes /
///    entries) per shot, at most 2^12 entries), or single sample() draws
///    below min(outcomes / 16, 2048) shots. Only on this side are the
///    counts, and the generator state after, bit for bit those of `shots`
///    DiscreteSampler::sample calls.
[[nodiscard]] std::vector<std::uint64_t> sample_histogram(std::span<const double> probabilities,
                                                          std::size_t shots, Rng& rng);

/// Empirical probabilities from a histogram (histogram / total).
[[nodiscard]] std::vector<double> histogram_to_probabilities(
    std::span<const std::uint64_t> histogram);

}  // namespace qcut::sim
