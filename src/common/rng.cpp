#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace qcut {

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// The top 53 of 64 random bits as a double in [0, 1), exactly.
[[nodiscard]] constexpr double unit_from_bits(std::uint64_t raw) noexcept {
  return static_cast<double>(raw >> 11) * 0x1.0p-53;
}
}  // namespace

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) noexcept {
  // Expand the seed through splitmix64 as recommended by the xoshiro authors;
  // guarantees the state is never all-zero.
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64_next(sm);
  }
}

Xoshiro256StarStar::result_type Xoshiro256StarStar::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::child(std::uint64_t stream) const noexcept {
  // Mix (seed, stream) through splitmix64 twice so children of consecutive
  // stream ids are decorrelated.
  std::uint64_t sm = seed_ ^ (0x6a09e667f3bcc909ULL + stream * 0x3c6ef372fe94f82bULL);
  const std::uint64_t derived = splitmix64_next(sm) ^ splitmix64_next(sm);
  return Rng(derived);
}

double Rng::uniform() { return unit_from_bits(engine_()); }

double Rng::uniform(double lo, double hi) {
  QCUT_CHECK(lo <= hi, "Rng::uniform: lo must be <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  QCUT_CHECK(lo <= hi, "Rng::uniform_int: lo must be <= hi");
  const std::uint64_t range = hi - lo + 1;  // range == 0 means the full 2^64 span
  if (range == 0) return engine_();
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~std::uint64_t{0}) - ((~std::uint64_t{0}) % range + 1) % range;
  std::uint64_t draw = engine_();
  while (draw > limit) draw = engine_();
  return lo + draw % range;
}

double Rng::normal() {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  spare_normal_ = radius * std::sin(angle);
  have_spare_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

bool Rng::bernoulli(double p) { return uniform() < p; }

std::uint64_t Rng::next_u64() { return engine_(); }

DiscreteSampler::DiscreteSampler(std::span<const double> weights, double negative_tolerance) {
  QCUT_CHECK(!weights.empty(), "DiscreteSampler: weights must be non-empty");
  cdf_.resize(weights.size());
  double total = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    double w = weights[i];
    if (w < 0.0) {
      // Clamping to exactly 0.0 here adds the same 0.0 the caller's
      // pre-clamped copy would have added: the cumulative table — and
      // therefore every sample — is bit-for-bit unchanged.
      QCUT_CHECK(w >= -negative_tolerance,
                 "DiscreteSampler: weights must be non-negative");
      w = 0.0;
    }
    total += w;
    cdf_[i] = total;
  }
  QCUT_CHECK(total > 0.0, "DiscreteSampler: total weight must be positive");
  QCUT_CHECK(std::isfinite(total), "DiscreteSampler: total weight must be finite");
}

std::size_t DiscreteSampler::sample(Rng& rng) const {
  const double u = rng.uniform() * cdf_.back();
  // std::upper_bound's index (the first entry with u < cdf[i], or size()),
  // found by a search whose trip count depends only on size(): each step
  // halves the window with a select instead of a data-dependent branch,
  // which mispredicts on random draws. The table is non-decreasing, so the
  // predicate splits it at one point for every u (NaN and inf included),
  // and both searches return that point.
  const double* base = cdf_.data();
  for (std::size_t len = cdf_.size(); len > 1;) {
    const std::size_t half = len / 2;
    base = u < base[half] ? base : base + half;
    len -= half;
  }
  const auto idx = static_cast<std::size_t>(base - cdf_.data()) + (u < *base ? 0 : 1);
  return std::min(idx, cdf_.size() - 1);
}

std::vector<std::uint64_t> DiscreteSampler::sample_histogram(std::size_t n, Rng& rng) const {
  const std::size_t size = cdf_.size();
  std::vector<std::uint64_t> histogram(size, 0);

  // Few draws over many outcomes (fewer than one per 16 outcomes, and fewer
  // than 2048) tally sample() draws: building the table walks the whole
  // cumulative table, which those draws do not repay. Measured on x86-64,
  // the two paths cross at ~1200 draws over 2^14 outcomes and at ~1500-2700
  // draws over 2^16-2^20; 100 draws over 2^16 run ~3x faster by search.
  constexpr std::size_t kOutcomesPerDraw = 16;
  constexpr std::size_t kGuidedDraws = 2048;
  // Guide entries hold an outcome index below 2^31 (their top bit is a
  // flag), which every table short of 16 GiB satisfies.
  constexpr std::size_t kMaxGuidedSize = std::size_t{1} << 31;
  if (n < std::min(size / kOutcomesPerDraw, kGuidedDraws) || size > kMaxGuidedSize) {
    for (std::size_t i = 0; i < n; ++i) ++histogram[sample(rng)];
    return histogram;
  }

  // A guide table over the top b bits of each draw: bucket k holds the
  // draws r in [k, k + 1) * 2^-b, exactly total / 2^b of the mass. Its
  // size depends only on (size, n): the smallest power of two at least
  // min(16 * size, n), capped at 2^12 entries. No more entries than draws:
  // a bigger table costs more to build than its shorter scans save (1500
  // draws over 2^14 outcomes take ~25% less time with 2^11 entries than
  // with 2^12). Up to 16 entries per outcome leave most of a paper-size
  // fragment's mass in buckets that hold a single outcome.
  constexpr int kMaxGuideBits = 12;
  constexpr std::size_t kEntriesPerOutcome = 16;
  int bits = 0;
  while (bits < kMaxGuideBits &&
         (std::size_t{1} << bits) < std::min(kEntriesPerOutcome * size, n)) {
    ++bits;
  }
  const std::size_t buckets = std::size_t{1} << bits;

  // guide[k] = std::upper_bound's index of bucket k's lower bound
  // k * 2^-b * total (rounded once, as a draw's u is), clamped to size - 1
  // as sample() clamps. u never decreases as the draw grows, so when the
  // bucket's highest draw, (k + 1) * 2^-b - 2^-53, maps to the same index,
  // every draw in the bucket does: the entry then carries kWhole and its
  // draws take that index without computing u. That holds when the index
  // is the last, or when the highest draw's u is still below cdf[index]
  // (every u in the bucket is at least the lower bound's, which is at
  // least cdf[index - 1]).
  constexpr std::uint32_t kWhole = std::uint32_t{1} << 31;
  const double total = cdf_.back();
  const std::size_t last = size - 1;
  const double bucket_width = std::ldexp(1.0, -bits);
  const int shift = 53 - bits;
  std::vector<std::uint32_t> guide(buckets);
  std::size_t at = 0;
  for (std::size_t k = 0; k < buckets; ++k) {
    const double bound = static_cast<double>(k) * bucket_width * total;
    while (at < last && !(bound < cdf_[at])) ++at;
    const double highest =
        unit_from_bits(((static_cast<std::uint64_t>(k + 1) << shift) - 1) << 11) * total;
    const bool whole = at == last || highest < cdf_[at];
    guide[k] = static_cast<std::uint32_t>(at) | (whole ? kWhole : 0);
  }

  // One draw per shot. The draw's bucket k = floor(r * 2^b) gives
  // r >= k * 2^-b exactly, so its u, computed exactly as sample() computes
  // it, is at least bucket k's rounded bound and its outcome at least
  // guide[k]; the scan then applies sample()'s own predicate and clamp.
  // Expected scan length is at most 1 + size / 2^b steps for every
  // distribution. The draws come from a local copy of the generator,
  // written back after the loop: the histogram's stores could otherwise
  // alias its state, which would then go through memory on every shot.
  Rng local = rng;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t raw = local.next_u64();
    const std::uint32_t entry = guide[(raw >> 11) >> shift];
    if ((entry & kWhole) != 0) {
      ++histogram[entry & ~kWhole];
      continue;
    }
    const double u = unit_from_bits(raw) * total;
    std::size_t idx = entry;
    while (idx < last && !(u < cdf_[idx])) ++idx;
    ++histogram[idx];
  }
  rng = local;
  return histogram;
}

}  // namespace qcut
