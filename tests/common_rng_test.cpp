#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
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
