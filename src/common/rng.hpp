#pragma once
// Deterministic, stream-splittable random number generation.
//
// Experiments in qcut must be exactly reproducible from a single seed, and
// parallel fan-out (fragment variants executed on a thread pool) must not
// share a generator. Rng::child(stream) derives statistically independent
// generators for sub-tasks.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace qcut {

/// splitmix64: used to expand seeds into xoshiro state.
[[nodiscard]] std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// xoshiro256** engine. Satisfies UniformRandomBitGenerator.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256StarStar(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// High-level generator with the distributions qcut needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 12345) noexcept : seed_(seed), engine_(seed) {}

  /// Seed this generator was created with.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Derives an independent generator for sub-task `stream`.
  /// Deterministic in (seed, stream).
  [[nodiscard]] Rng child(std::uint64_t stream) const noexcept;

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform();

  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Standard normal via Box-Muller.
  [[nodiscard]] double normal();

  /// Normal with given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev);

  /// True with probability p.
  [[nodiscard]] bool bernoulli(double p);

  /// Binomial(n, p): the number of successes in n trials of probability p,
  /// exactly distributed. For p > 1/2 it draws n - Binomial(n, 1 - p);
  /// then it inverts the cdf by sequential search when n p < 10 (one
  /// uniform), and above that runs Hörmann's BTRD ("The generation of
  /// binomial random variates", 1993; ~1.2 uniforms per variate at any
  /// n p). n == 0, p == 0 and p == 1 return without a draw. Written here
  /// rather than through std::binomial_distribution, whose algorithm
  /// differs between standard libraries. Requires p in [0, 1] and
  /// n <= 2^53.
  [[nodiscard]] std::uint64_t binomial(std::uint64_t n, double p);

  /// Raw 64 random bits.
  [[nodiscard]] std::uint64_t next_u64();

 private:
  std::uint64_t seed_;
  Xoshiro256StarStar engine_;
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

/// Samples indices from a fixed discrete distribution over a cumulative
/// table.
///
/// Weights need not be normalized; negative weights are rejected, and so is
/// a total that is not finite. Tiny negative values caused by floating-point
/// cancellation (down to -negative_tolerance) are treated as exact zeros
/// while the cumulative table is built, so callers need not copy and clamp
/// their distribution first — construction is a single pass over the
/// weights.
///
/// Both draw paths take one 64-bit draw per sample, u = uniform() * total,
/// and map it to the same index: std::upper_bound's index of u in the
/// cumulative table, clamped to size() - 1.
class DiscreteSampler {
 public:
  explicit DiscreteSampler(std::span<const double> weights, double negative_tolerance = 0.0);

  /// Number of categories.
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

  /// Draws one index with probability weight[i] / total: a fixed-trip
  /// binary search, O(log n) per draw.
  [[nodiscard]] std::size_t sample(Rng& rng) const;

  /// Draws `n` indices and tallies them into a histogram of length size():
  /// bit for bit `n` sample() calls, and the same generator state after.
  /// Each call builds a guide table over the top bits of the draws (16
  /// entries per outcome, but no more than one per draw and 2^12 in all).
  /// An entry whose whole bucket of draws maps to one outcome is flagged,
  /// and its draws take that outcome without converting the draw or
  /// comparing it; any other draw finds its outcome by a forward scan from
  /// its bucket's entry: expected O(1 + size() / entries) per draw for
  /// every distribution shape. Fewer than min(size() / 16, 2048) draws (few
  /// draws over many outcomes, where building the table does not pay), or
  /// more than 2^31 outcomes, tally sample() draws instead.
  [[nodiscard]] std::vector<std::uint64_t> sample_histogram(std::size_t n, Rng& rng) const;

 private:
  std::vector<double> cdf_;  // inclusive prefix sums, cdf_.back() == total
};

}  // namespace qcut
