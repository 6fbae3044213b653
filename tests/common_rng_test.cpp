#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace qcut {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ChildStreamsAreDeterministicAndIndependent) {
  Rng parent(7);
  Rng c1 = parent.child(0);
  Rng c2 = parent.child(1);
  Rng c1_again = Rng(7).child(0);
  EXPECT_EQ(c1.next_u64(), c1_again.next_u64());
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(Rng, ChildDoesNotAdvanceParent) {
  Rng a(9), b(9);
  (void)a.child(3);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    ASSERT_GE(u, -2.0);
    ASSERT_LT(u, 3.0);
  }
  EXPECT_THROW((void)rng.uniform(1.0, 0.0), Error);
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  Rng rng(6);
  std::vector<int> histogram(6, 0);
  for (int i = 0; i < 60000; ++i) {
    const std::uint64_t v = rng.uniform_int(10, 15);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 15u);
    ++histogram[v - 10];
  }
  for (int count : histogram) {
    EXPECT_NEAR(count, 10000, 400);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(6);
  EXPECT_EQ(rng.uniform_int(3, 3), 3u);
}

TEST(Rng, NormalMoments) {
  Rng rng(8);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, NormalShifted) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 0.1);
  EXPECT_NEAR(sum / n, 5.0, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

/// Pearson's chi-square statistic of `draws` Binomial(n, p) variates against
/// the exact pmf, over runs of consecutive values merged until each bin
/// expects at least 20 draws, as a standard normal by the Wilson-Hilferty
/// transform.
double binomial_chi_square_z(std::uint64_t n, double p, std::size_t draws, std::uint64_t seed) {
  std::vector<std::uint64_t> observed(n + 1, 0);
  Rng rng(seed);
  for (std::size_t i = 0; i < draws; ++i) {
    const std::uint64_t k = rng.binomial(n, p);
    EXPECT_LE(k, n);
    if (k > n) return std::numeric_limits<double>::infinity();
    ++observed[k];
  }
  const double trials = static_cast<double>(n);
  std::vector<double> bin_expected;
  std::vector<double> bin_observed;
  double expected = 0.0;
  double seen = 0.0;
  for (std::uint64_t k = 0; k <= n; ++k) {
    const double x = static_cast<double>(k);
    const double log_pmf = std::lgamma(trials + 1.0) - std::lgamma(x + 1.0) -
                           std::lgamma(trials - x + 1.0) + x * std::log(p) +
                           (trials - x) * std::log1p(-p);
    expected += static_cast<double>(draws) * std::exp(log_pmf);
    seen += static_cast<double>(observed[k]);
    if (expected >= 20.0) {
      bin_expected.push_back(expected);
      bin_observed.push_back(seen);
      expected = 0.0;
      seen = 0.0;
    }
  }
  bin_expected.back() += expected;  // the tail past the last full bin
  bin_observed.back() += seen;
  double chi2 = 0.0;
  for (std::size_t b = 0; b < bin_expected.size(); ++b) {
    const double diff = bin_observed[b] - bin_expected[b];
    chi2 += diff * diff / bin_expected[b];
  }
  const double df = static_cast<double>(bin_expected.size() - 1);
  const double spread = 2.0 / (9.0 * df);
  return (std::cbrt(chi2 / df) - (1.0 - spread)) / std::sqrt(spread);
}

/// Frequencies against the exact pmf on both branches (inversion below
/// n p = 10, BTRD above, including shapes far enough from the mode to reach
/// its squeeze and Stirling steps) and through n - Binomial(n, 1 - p) for
/// p > 1/2; 5 standard deviations bound each statistic.
TEST(Rng, BinomialMatchesExactPmf) {
  struct Case {
    std::uint64_t n;
    double p;
  };
  std::uint64_t seed = 60;
  for (const Case c : {Case{3, 0.25}, Case{20, 0.3}, Case{100, 0.0999}, Case{4000, 0.001},
                       Case{21, 0.5}, Case{60, 0.4}, Case{4000, 0.2}, Case{20000, 0.03},
                       Case{50, 0.9}, Case{1000, 0.7}, Case{4000, 0.9999}}) {
    SCOPED_TRACE("n = " + std::to_string(c.n) + ", p = " + std::to_string(c.p));
    EXPECT_LE(std::abs(binomial_chi_square_z(c.n, c.p, 100000, ++seed)), 5.0);
  }
}

TEST(Rng, BinomialEdgeCasesTakeNoDraw) {
  Rng rng(61);
  Rng untouched = rng;
  EXPECT_EQ(rng.binomial(0, 0.3), 0u);
  EXPECT_EQ(rng.binomial(17, 0.0), 0u);
  EXPECT_EQ(rng.binomial(17, 1.0), 17u);
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());

  EXPECT_THROW((void)rng.binomial(5, -0.1), Error);
  EXPECT_THROW((void)rng.binomial(5, 1.5), Error);
  EXPECT_THROW((void)rng.binomial(5, std::numeric_limits<double>::quiet_NaN()), Error);
  EXPECT_THROW((void)rng.binomial((std::uint64_t{1} << 53) + 1, 0.5), Error);
}

/// Trial counts far beyond any shot count keep the mean and variance.
TEST(Rng, BinomialHugeTrialCounts) {
  Rng rng(62);
  for (const std::uint64_t n : {std::uint64_t{1} << 40, std::uint64_t{1} << 53}) {
    const double trials = static_cast<double>(n);
    for (const double p : {0.3, 1e-12}) {
      SCOPED_TRACE(std::to_string(n) + " trials at p = " + std::to_string(p));
      constexpr int kDraws = 4000;
      double sum = 0.0;
      double sum_sq = 0.0;
      for (int i = 0; i < kDraws; ++i) {
        const std::uint64_t k = rng.binomial(n, p);
        ASSERT_LE(k, n);
        const double d = static_cast<double>(k) - trials * p;
        sum += d;
        sum_sq += d * d;
      }
      const double variance = trials * p * (1.0 - p);
      EXPECT_LE(std::abs(sum / kDraws) / std::sqrt(variance / kDraws), 5.0);
      // The mean of D^2 over the draws, relative to the variance, has
      // standard deviation sqrt((E[D^4] / variance^2 - 1) / draws), with
      // E[D^4] / variance^2 = 1 / variance + 3 (n - 2) / n.
      const double excess = 1.0 / variance + 2.0 - 6.0 / trials;
      EXPECT_NEAR(sum_sq / kDraws / variance, 1.0, 5.0 * std::sqrt(excess / kDraws));
    }
  }
}

TEST(DiscreteSampler, RespectsWeights) {
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  DiscreteSampler sampler(weights);
  Rng rng(10);
  const auto histogram = sampler.sample_histogram(40000, rng);
  EXPECT_NEAR(static_cast<double>(histogram[0]) / 40000.0, 0.25, 0.01);
  EXPECT_EQ(histogram[1], 0u);
  EXPECT_NEAR(static_cast<double>(histogram[2]) / 40000.0, 0.75, 0.01);
}

TEST(DiscreteSampler, SingleCategory) {
  const std::vector<double> weights = {2.5};
  DiscreteSampler sampler(weights);
  Rng rng(11);
  EXPECT_EQ(sampler.sample(rng), 0u);
}

TEST(DiscreteSampler, RejectsInvalidWeights) {
  EXPECT_THROW(DiscreteSampler(std::vector<double>{}), Error);
  EXPECT_THROW(DiscreteSampler(std::vector<double>{-0.5, 1.0}), Error);
  EXPECT_THROW(DiscreteSampler(std::vector<double>{0.0, 0.0}), Error);
}

TEST(DiscreteSampler, RejectsNonFiniteTotal) {
  // An infinite weight, and finite weights whose sum overflows: either total
  // would send every draw to the last outcome.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(DiscreteSampler(std::vector<double>{inf, 1.0, 1.0}), Error);
  EXPECT_THROW(DiscreteSampler(std::vector<double>{1e308, 1e308, 0.5}), Error);
}

TEST(Xoshiro, SatisfiesUniformRandomBitGenerator) {
  static_assert(Xoshiro256StarStar::min() == 0);
  static_assert(Xoshiro256StarStar::max() == ~std::uint64_t{0});
  Xoshiro256StarStar engine(3);
  // Consecutive outputs should not be constant.
  EXPECT_NE(engine(), engine());
}

}  // namespace
}  // namespace qcut
