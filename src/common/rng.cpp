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

namespace {

/// Binomial(n, p) for p <= 1/2 and n p < 10 by inverting the cdf: walk
/// f(0) = (1 - p)^n, f(x) = f(x - 1) (n + 1 - x) / x * p / (1 - p) until
/// the uniform falls inside f(x). A uniform beyond the mass the rounded
/// terms cover (only ever by rounding) is redrawn once the walk reaches n
/// or a term underflows to 0, after which every term is 0, so the walk
/// never runs far past the mean however large n is.
double binomial_inversion(Rng& rng, double n, double p) {
  const double s = p / (1.0 - p);
  const double a = (n + 1.0) * s;
  const double f0 = std::exp(n * std::log1p(-p));
  for (;;) {
    double u = rng.uniform();
    double f = f0;
    double x = 0.0;
    while (u > f && x < n && f > 0.0) {
      u -= f;
      x += 1.0;
      f *= a / x - s;
    }
    if (u <= f) return x;
  }
}

/// log(k!) - ((k + 1/2) log(k + 1) - (k + 1) + log(2 pi) / 2), the error of
/// Stirling's formula, for an integer k >= 0: tabulated to k = 9, a series
/// above.
double stirling_tail(double k) {
  static constexpr double kTable[10] = {
      0.08106146679532726, 0.04134069595540929, 0.02767792568499834, 0.02079067210376509,
      0.01664469118982119, 0.01387612882307075, 0.01189670994589177, 0.01041126526197209,
      0.009255462182712733, 0.008330563433362871};
  if (k <= 9.0) return kTable[static_cast<int>(k)];
  const double next = k + 1.0;
  const double next2 = next * next;
  return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / next2) / next2) / next;
}

/// Binomial(n, p) for p <= 1/2 and n p >= 10: Hörmann's BTRD, transformed
/// rejection with decomposition, step for step as published. The variate
/// comes from K = floor((2 a / (1/2 - |U|) + b) U + c) for a uniform U in
/// [-1/2, 1/2); 86% of the time V alone selects the region where that
/// hat is accepted outright, and otherwise V is tested against f(K) /
/// f(m), by recursion when K lies within 15 of the mode m, else by
/// squeezes and Stirling's formula. Every K is range-checked as a double
/// before it becomes an integer.
double binomial_btrd(Rng& rng, double n, double p) {
  const double q = 1.0 - p;
  const double m = std::floor((n + 1.0) * p);
  const double r = p / q;
  const double nr = (n + 1.0) * r;
  const double npq = n * p * q;
  const double sqrt_npq = std::sqrt(npq);
  const double b = 1.15 + 2.53 * sqrt_npq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = n * p + 0.5;
  const double alpha = (2.83 + 5.1 / b) * sqrt_npq;
  const double v_r = 0.92 - 4.2 / b;
  const double u_rv_r = 0.86 * v_r;
  const auto in_range = [n](double k) { return k >= 0.0 && k <= n; };  // false for NaN
  for (;;) {
    // Step 1: the region of the hat that is accepted without a test.
    double v = rng.uniform();
    if (v <= u_rv_r) {
      const double u = v / v_r - 0.43;
      const double k = std::floor((2.0 * a / (0.5 - std::abs(u)) + b) * u + c);
      if (in_range(k)) return k;
      continue;
    }
    // Step 2: a uniform point (U, V) outside that region.
    double u = 0.0;
    if (v >= v_r) {
      u = rng.uniform() - 0.5;
    } else {
      u = v / v_r - 0.93;
      u = std::copysign(0.5, u) - u;
      v = rng.uniform() * v_r;
    }
    // Step 3.0. |U| = 1/2 (us == 0, reachable by rounding) would put K at
    // infinity, outside [0, n]: rejected before dividing by it.
    const double us = 0.5 - std::abs(u);
    if (!(us > 0.0)) continue;
    const double k = std::floor((2.0 * a / us + b) * u + c);
    if (!in_range(k)) continue;
    v = v * alpha / (a / (us * us) + b);
    const double km = std::abs(k - m);
    if (km <= 15.0) {
      // Step 3.1: f(K) / f(m) by recursion.
      double f = 1.0;
      if (m < k) {
        for (double i = m + 1.0; i <= k; i += 1.0) f *= nr / i - r;
      } else {
        for (double i = k + 1.0; i <= m; i += 1.0) v *= nr / i - r;
      }
      if (v <= f) return k;
      continue;
    }
    // Step 3.2: squeeze acceptance or rejection.
    v = std::log(v);
    const double rho = (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5);
    const double t = -km * km / (2.0 * npq);
    if (v < t - rho) return k;
    if (v > t + rho) continue;
    // Steps 3.3 and 3.4: the final test, log f(K) / f(m) by Stirling.
    const double nm = n - m + 1.0;
    const double h = (m + 0.5) * std::log((m + 1.0) / (r * nm)) + stirling_tail(m) +
                     stirling_tail(n - m);
    const double nk = n - k + 1.0;
    if (v <= h + (n + 1.0) * std::log(nm / nk) + (k + 0.5) * std::log(nk * r / (k + 1.0)) -
                 stirling_tail(k) - stirling_tail(n - k)) {
      return k;
    }
  }
}

}  // namespace

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  QCUT_CHECK(p >= 0.0 && p <= 1.0, "Rng::binomial: p must be in [0, 1]");
  QCUT_CHECK(n <= (std::uint64_t{1} << 53), "Rng::binomial: n must be at most 2^53");
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  if (p > 0.5) return n - binomial(n, 1.0 - p);
  const double trials = static_cast<double>(n);
  // Both draws return an integer in [0, n], exact as a double since n <= 2^53.
  const double k = trials * p < 10.0 ? binomial_inversion(*this, trials, p)
                                     : binomial_btrd(*this, trials, p);
  return static_cast<std::uint64_t>(k);
}

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
