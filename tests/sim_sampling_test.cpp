#include "sim/sampling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace qcut::sim {
namespace {

TEST(Sampling, HistogramHasCorrectTotal) {
  const std::vector<double> probs = {0.25, 0.25, 0.5};
  Rng rng(1);
  const auto histogram = sample_histogram(probs, 1000, rng);
  std::uint64_t total = 0;
  for (std::uint64_t c : histogram) total += c;
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(histogram.size(), 3u);
}

TEST(Sampling, FrequenciesConverge) {
  const std::vector<double> probs = {0.1, 0.2, 0.3, 0.4};
  Rng rng(2);
  const std::size_t shots = 100000;
  const auto histogram = sample_histogram(probs, shots, rng);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    const double freq = static_cast<double>(histogram[i]) / static_cast<double>(shots);
    EXPECT_NEAR(freq, probs[i], 5.0 * std::sqrt(probs[i] / static_cast<double>(shots)));
  }
}

TEST(Sampling, ZeroProbabilityNeverSampled) {
  const std::vector<double> probs = {0.5, 0.0, 0.5};
  Rng rng(3);
  const auto histogram = sample_histogram(probs, 10000, rng);
  EXPECT_EQ(histogram[1], 0u);
}

TEST(Sampling, TinyNegativesAreClamped) {
  const std::vector<double> probs = {0.5, -1e-12, 0.5};
  Rng rng(4);
  EXPECT_NO_THROW((void)sample_histogram(probs, 100, rng));
}

TEST(Sampling, LargeNegativeRejected) {
  const std::vector<double> probs = {0.5, -0.1, 0.6};
  Rng rng(5);
  EXPECT_THROW((void)sample_histogram(probs, 100, rng), Error);
}

TEST(Sampling, NonFiniteTotalRejected) {
  // Both totals are +inf: every draw would land on the last outcome.
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(7);
  EXPECT_THROW((void)sample_histogram(std::vector<double>{inf, 1.0, 1.0}, 1000, rng), Error);
  EXPECT_THROW((void)sample_histogram(std::vector<double>{1e308, 1e308, 0.5}, 1000, rng),
               Error);
}

TEST(Sampling, DeterministicForSeed) {
  const std::vector<double> probs = {0.3, 0.7};
  Rng rng1(6), rng2(6);
  EXPECT_EQ(sample_histogram(probs, 500, rng1), sample_histogram(probs, 500, rng2));
}

TEST(Sampling, HistogramToProbabilities) {
  const std::vector<std::uint64_t> histogram = {1, 3, 0, 4};
  const std::vector<double> probs = histogram_to_probabilities(histogram);
  EXPECT_NEAR(probs[0], 0.125, 1e-12);
  EXPECT_NEAR(probs[1], 0.375, 1e-12);
  EXPECT_NEAR(probs[2], 0.0, 1e-12);
  EXPECT_NEAR(probs[3], 0.5, 1e-12);
  EXPECT_THROW((void)histogram_to_probabilities(std::vector<std::uint64_t>{0, 0}), Error);
}

// ---- Bit-exactness of the sampler --------------------------------------------

/// 64-bit FNV-1a over 64-bit words, least significant byte first, so the
/// digest is the same on every host.
struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
};

/// A seeded distribution over `size` outcomes: about a quarter of the bins
/// exact zeros, about one in eight a tiny negative the sampler clamps to
/// zero, and the last `trailing_zeros` bins empty.
std::vector<double> seeded_distribution(std::size_t size, std::size_t trailing_zeros,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(size, 0.0);
  for (std::size_t i = 0; i + trailing_zeros < size; ++i) {
    const std::uint64_t kind = rng.uniform_int(0, 7);
    if (kind < 2) continue;
    weights[i] = kind == 2 ? -1e-12 * rng.uniform() : rng.uniform();
  }
  weights[size - 1 - trailing_zeros] = 0.25;  // at least one positive weight
  return weights;
}

/// All mass on the last outcome.
std::vector<double> last_bin_only(std::size_t size) {
  std::vector<double> weights(size, 0.0);
  weights.back() = 1.0;
  return weights;
}

/// `size` equal weights of 1/size. For a power-of-two size they are dyadic:
/// every cumulative entry is exactly a multiple of 1/size, so each lands on
/// a bucket bound of any guide table with at least `size` buckets.
std::vector<double> equal_weights(std::size_t size) {
  return std::vector<double>(size, 1.0 / static_cast<double>(size));
}

/// One weight 1.0 followed by 4000 weights of 1e-9: 4000 cumulative entries
/// packed into the last 4e-6 of the mass, inside one bucket of any table of
/// up to 2^12 buckets.
std::vector<double> tiny_cluster() {
  std::vector<double> weights(4001, 1e-9);
  weights.front() = 1.0;
  return weights;
}

std::vector<double> scaled(std::vector<double> weights, double factor) {
  for (double& w : weights) w *= factor;
  return weights;
}

/// The guide table, as sim::sample_histogram calls it on its guide side.
std::vector<std::uint64_t> guide_table_histogram(std::span<const double> weights,
                                                 std::size_t shots, Rng& rng) {
  return DiscreteSampler(weights, 1e-9).sample_histogram(shots, rng);
}

struct SamplingCase {
  const char* name;
  std::vector<double> weights;
  std::uint64_t histogram_digest;  // sample_histogram(4000 shots) + the next draw
  std::uint64_t draws_digest;      // 500 single DiscreteSampler::sample draws
};

/// Committed digests of the guide table's sampled outcomes, recorded before
/// its search changed: a change that moves any draw to another outcome, or
/// draws a different number of uniforms, fails here.
std::vector<SamplingCase> sampling_cases() {
  std::vector<SamplingCase> cases;
  cases.push_back({"one_outcome", {1.0}, 0x0402eeb8fad6db24ULL, 0x82fae01a9ad7da49ULL});
  cases.push_back({"two_with_zero", {0.0, 1.0}, 0x1d42fc1d1de0a139ULL, 0x1f53f92b97838293ULL});
  cases.push_back({"three_uneven", {0.5, -1e-12, 0.25}, 0x8456280dfd4c7bf2ULL,
                   0xfff8808348df7ed6ULL});
  cases.push_back({"sixteen", seeded_distribution(16, 0, 61), 0x55355100d76b8eb3ULL,
                   0x44fd0e15ef78b4d3ULL});
  cases.push_back({"sixteen_last_bin", last_bin_only(16), 0xcb9e671431b922faULL,
                   0x9ea86aba9f155846ULL});
  cases.push_back({"hundred_trailing_zeros", seeded_distribution(100, 9, 67),
                   0xc7212ae049ae6a68ULL, 0x685ad6aa3076c33eULL});
  cases.push_back({"two_fifty_six", seeded_distribution(256, 1, 71), 0xb257268248bb882cULL,
                   0x9f171c130ef88d10ULL});
  cases.push_back({"4096_last_bin", last_bin_only(4096), 0xfad5f35432a34f14ULL,
                   0xc080b8ec0ba5dbc6ULL});
  cases.push_back({"4097", seeded_distribution(4097, 0, 73), 0x8fd405d10190b25dULL,
                   0xa9230c6f50ef2983ULL});
  cases.push_back({"65536", seeded_distribution(65536, 0, 79), 0x3e3db01974836fbeULL,
                   0x1cd1efe546130c67ULL});
  cases.push_back({"65536_trailing_zeros", seeded_distribution(65536, 300, 83),
                   0xefe2ff58133c105aULL, 0x73e5a77846042643ULL});
  cases.push_back({"65536_last_bin", last_bin_only(65536), 0x7f78371c1b8ff757ULL,
                   0x2404c54b948062a2ULL});
  cases.push_back({"dyadic_64", equal_weights(64), 0xeea82fffcf223f3fULL, 0x829338ad63d0ed3dULL});
  cases.push_back({"tiny_cluster", tiny_cluster(), 0x65863412ac68b4caULL, 0x53e78f9532ac91e4ULL});
  cases.push_back({"tiny_cluster_times_1e300", scaled(tiny_cluster(), 1e300),
                   0xdf38249d1cb39bb4ULL, 0x89fdfe6897f044d5ULL});
  return cases;
}

TEST(Sampling, SampledOutcomesMatchCommittedDigests) {
  std::uint64_t seed = 100;
  for (const SamplingCase& c : sampling_cases()) {
    SCOPED_TRACE(c.name);
    Rng rng(++seed);
    Fnv1a histogram;
    for (const std::uint64_t count : guide_table_histogram(c.weights, 4000, rng)) {
      histogram.add(count);
    }
    histogram.add(rng.next_u64());
    EXPECT_EQ(histogram.hash, c.histogram_digest) << std::hex << histogram.hash;

    const DiscreteSampler sampler(c.weights, 1e-9);
    Fnv1a draws;
    for (int i = 0; i < 500; ++i) draws.add(sampler.sample(rng));
    draws.add(rng.next_u64());
    EXPECT_EQ(draws.hash, c.draws_digest) << std::hex << draws.hash;
  }
}

/// The tally of `shots` single DiscreteSampler::sample draws.
std::vector<std::uint64_t> single_draw_tally(const std::vector<double>& weights,
                                             std::size_t shots, Rng& rng) {
  const DiscreteSampler sampler(weights, 1e-9);
  std::vector<std::uint64_t> histogram(weights.size(), 0);
  for (std::size_t i = 0; i < shots; ++i) ++histogram[sampler.sample(rng)];
  return histogram;
}

/// The guide table against its oracle, the single-draw search: the same
/// outcome for every draw and the same generator state afterwards, on
/// shapes that put cumulative entries exactly on bucket bounds, pack many
/// inside one bucket, scale the total to the edges of the double range,
/// and take both sides of the crossover to single draws (over 2^16 and
/// 2^18 outcomes, 2047 shots tally single draws and 2048 build a table of
/// 2048 entries, 32 and 128 outcomes per entry).
TEST(Sampling, HistogramEqualsSingleDraws) {
  std::vector<std::pair<std::string, std::vector<double>>> inputs;
  for (const std::size_t size : {1, 2, 3, 16, 100, 4097, 65536, 262144}) {
    const std::string name = std::to_string(size);
    inputs.emplace_back("seeded_" + name, seeded_distribution(size, size / 8, 300 + size));
    inputs.emplace_back("equal_" + name, equal_weights(size));
  }
  inputs.emplace_back("tiny_cluster", tiny_cluster());
  const std::size_t unscaled = inputs.size();
  for (std::size_t i = 0; i < unscaled; ++i) {
    if (inputs[i].first.starts_with("seeded_")) continue;  // its negatives would not clamp
    for (const auto& [label, factor] : {std::pair{"_times_1e-300", 1e-300},
                                        std::pair{"_times_1e300", 1e300},
                                        std::pair{"_times_3.7", 3.7}}) {
      inputs.emplace_back(inputs[i].first + label, scaled(inputs[i].second, factor));
    }
  }

  std::uint64_t seed = 500;
  for (const auto& [name, weights] : inputs) {
    for (const std::size_t shots : {1, 7, 100, 2047, 2048, 4000, 20000}) {
      SCOPED_TRACE(name + " x " + std::to_string(shots) + " shots");
      Rng histogram_rng(++seed);
      Rng draws_rng(seed);
      EXPECT_EQ(guide_table_histogram(weights, shots, histogram_rng),
                single_draw_tally(weights, shots, draws_rng));
      EXPECT_EQ(histogram_rng.next_u64(), draws_rng.next_u64());
    }
  }
}

/// Below kBinomialShotsPerOutcome shots per outcome sim::sample_histogram is
/// the guide table, bit for bit and generator state included: wide
/// fragments (2^16 x 4000, 2^18 x 1000, and the single-draw tally below the
/// table's own crossover) and a few shots over few outcomes.
TEST(Sampling, SampleHistogramIsTheGuideTableBelowItsShotsPerOutcome) {
  struct GuideCase {
    std::string name;
    std::vector<double> weights;
    std::size_t shots;
  };
  std::vector<GuideCase> cases;
  for (const std::size_t shots : {100, 2047, 2048, 4000, 20000}) {
    cases.push_back({"seeded_65536", seeded_distribution(65536, 300, 83), shots});
  }
  cases.push_back({"equal_65536", equal_weights(65536), 4000});
  cases.push_back({"last_bin_65536", last_bin_only(65536), 4000});
  for (const std::size_t shots : {1000, 4000}) {
    cases.push_back({"seeded_262144", seeded_distribution(262144, 7, 89), shots});
  }
  cases.push_back({"seeded_4097", seeded_distribution(4097, 0, 73), 4000});
  cases.push_back({"tiny_cluster", tiny_cluster(), 4000});
  cases.push_back({"seeded_1024", seeded_distribution(1024, 3, 97), 4000});
  cases.push_back({"three_uneven", {0.5, -1e-12, 0.25}, 11});
  cases.push_back({"seeded_16", seeded_distribution(16, 0, 61), 63});

  std::uint64_t seed = 900;
  for (const GuideCase& c : cases) {
    SCOPED_TRACE(c.name + " x " + std::to_string(c.shots) + " shots");
    ASSERT_LT(c.shots / kBinomialShotsPerOutcome, c.weights.size());
    Rng chosen_rng(++seed);
    Rng guide_rng(seed);
    EXPECT_EQ(sample_histogram(c.weights, c.shots, chosen_rng),
              guide_table_histogram(c.weights, c.shots, guide_rng));
    EXPECT_EQ(chosen_rng.next_u64(), guide_rng.next_u64());
  }
}

/// Committed digests of sim::sample_histogram's binomial side (the counts,
/// then the next draw): a change to the binomial, the order outcomes are
/// visited in or the suffix masses fails here.
TEST(Sampling, BinomialCountsMatchCommittedDigests) {
  struct BinomialCase {
    const char* name;
    std::vector<double> weights;
    std::size_t shots;
    std::uint64_t digest;
  };
  const std::vector<BinomialCase> cases = {
      {"one_outcome", {1.0}, 4000, 0x235d047cc86551acULL},
      {"two_with_zero", {0.0, 1.0}, 4000, 0x1ed56fff652a7969ULL},
      {"three_uneven", {0.5, -1e-12, 0.25}, 12, 0xc5379cc2bf766a42ULL},
      {"eight_4000", seeded_distribution(8, 0, 59), 4000, 0xdc7f7aa0bdac5e38ULL},
      {"sixteen_4000", seeded_distribution(16, 0, 61), 4000, 0xec42deaa17e86b2bULL},
      {"sixteen_20000", seeded_distribution(16, 2, 63), 20000, 0xf69a96607a709bcdULL},
      {"sixteen_last_bin", last_bin_only(16), 4000, 0xa3e0f22c54589504ULL},
      {"hundred_trailing_zeros", seeded_distribution(100, 9, 67), 4000, 0x21aaf0df27bd4cc0ULL},
      {"dyadic_64", equal_weights(64), 4000, 0xbcedb173a56e94d0ULL},
      {"two_fifty_six", seeded_distribution(256, 1, 71), 4000, 0xee3241c40d4acc70ULL},
      {"4096_20000", seeded_distribution(4096, 0, 75), 20000, 0xa5ced72ce4852553ULL},
      {"tiny_cluster_times_1e300", scaled(tiny_cluster(), 1e300), 20000, 0x8628240bc70279f7ULL},
  };
  std::uint64_t seed = 700;
  for (const BinomialCase& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_GE(c.shots / kBinomialShotsPerOutcome, c.weights.size());
    Rng rng(++seed);
    Fnv1a digest;
    for (const std::uint64_t count : sample_histogram(c.weights, c.shots, rng)) digest.add(count);
    digest.add(rng.next_u64());
    EXPECT_EQ(digest.hash, c.digest) << std::hex << digest.hash;
  }
}

// ---- Distribution of the counts ----------------------------------------------

using Sampler = std::vector<std::uint64_t> (*)(std::span<const double>, std::size_t, Rng&);

/// Draws the counts of `shots` outcomes from `weights` once per seed over
/// 1000 fixed seeds and compares their moments with the multinomial's:
/// each count's mean n p_i, variance n p_i (1 - p_i) and each pair's
/// covariance -n p_i p_j. Every statistic is the mean over seeds of
/// D_i = X_i - n p_i, D_i^2 or D_i D_j, whose exact expectation and
/// variance under the multinomial follow from n independent one-shot
/// trials; each must lie within 5 of its standard deviations (a correct
/// sampler fails one such bound with probability ~6e-7). A statistic with
/// zero variance (a zero-weight or certain outcome) must hold exactly.
void expect_multinomial_moments(Sampler sampler, const std::vector<double>& weights,
                                std::size_t shots) {
  constexpr std::size_t kSeeds = 1000;
  constexpr double kBound = 5.0;
  const std::size_t size = weights.size();
  std::vector<double> p(size, 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < size; ++i) {
    p[i] = std::max(weights[i], 0.0);
    total += p[i];
  }
  for (double& pi : p) pi /= total;

  const double n = static_cast<double>(shots);
  std::vector<double> sum(size, 0.0);
  std::vector<double> sum_products(size * size, 0.0);  // i <= j
  std::vector<double> d(size);
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng = Rng(2024).child(seed);
    const std::vector<std::uint64_t> counts = sampler(weights, shots, rng);
    ASSERT_EQ(counts.size(), size);
    std::uint64_t drawn = 0;
    for (std::size_t i = 0; i < size; ++i) {
      drawn += counts[i];
      if (p[i] == 0.0) {
        ASSERT_EQ(counts[i], 0u) << "outcome " << i << " has zero weight";
      }
      d[i] = static_cast<double>(counts[i]) - n * p[i];
      sum[i] += d[i];
    }
    ASSERT_EQ(drawn, shots);
    for (std::size_t i = 0; i < size; ++i) {
      for (std::size_t j = i; j < size; ++j) sum_products[i * size + j] += d[i] * d[j];
    }
  }

  const double seeds = static_cast<double>(kSeeds);
  const auto expect_within = [&](double observed_sum, double expected, double variance,
                                 const std::string& what) {
    const double mean = observed_sum / seeds;
    if (variance <= 0.0) {
      EXPECT_EQ(mean, expected) << what;
      return;
    }
    const double z = (mean - expected) / std::sqrt(variance / seeds);
    EXPECT_LE(std::abs(z), kBound) << what << ": mean " << mean << ", expected " << expected;
  };
  for (std::size_t i = 0; i < size; ++i) {
    const double pq = p[i] * (1.0 - p[i]);
    const double sigma2 = n * pq;
    // E[D^4] of a binomial: n pq (1 + 3 (n - 2) pq).
    const double fourth = sigma2 * (1.0 + 3.0 * (n - 2.0) * pq);
    expect_within(sum[i], 0.0, sigma2, "mean of outcome " + std::to_string(i));
    expect_within(sum_products[i * size + i], sigma2, fourth - sigma2 * sigma2,
                  "variance of outcome " + std::to_string(i));
    for (std::size_t j = i + 1; j < size; ++j) {
      // One trial's a = [hit i] - p_i and b = [hit j] - p_j have E[ab] =
      // -p_i p_j, and E[D_i^2 D_j^2] = n E[a^2 b^2] + n (n - 1) (E[a^2]
      // E[b^2] + 2 E[ab]^2).
      const double pi = p[i];
      const double pj = p[j];
      const double covariance = -n * pi * pj;
      const double a2b2 = pi * (1 - pi) * (1 - pi) * pj * pj + pj * pi * pi * (1 - pj) * (1 - pj) +
                          (1 - pi - pj) * pi * pi * pj * pj;
      const double fourth_mixed =
          n * a2b2 + n * (n - 1) * (pi * (1 - pi) * pj * (1 - pj) + 2 * pi * pi * pj * pj);
      expect_within(sum_products[i * size + j], covariance,
                    fourth_mixed - covariance * covariance,
                    "covariance of outcomes " + std::to_string(i) + ", " + std::to_string(j));
    }
  }
}

/// The distribution shapes of the moment test, each drawn at a shot count
/// with few shots per outcome and at 4000 shots.
std::vector<std::pair<std::string, std::vector<double>>> moment_shapes() {
  std::vector<std::pair<std::string, std::vector<double>>> shapes;
  shapes.emplace_back("zero_bins",
                      std::vector<double>{0.2, 0.0, 0.3, -1e-12, 0.1, 0.25, 0.0, 0.15});
  std::vector<double> dominant(16, 0.1 / 15.0);
  dominant[5] = 0.9;
  shapes.emplace_back("dominant", dominant);
  shapes.emplace_back("last_bin", last_bin_only(8));
  shapes.emplace_back("near_one", std::vector<double>{0.0004, 0.999, 0.0006});
  shapes.emplace_back("seeded_trailing_zeros", seeded_distribution(16, 3, 41));
  shapes.emplace_back("sixty_four", seeded_distribution(64, 0, 43));
  return shapes;
}

/// Both samplers draw multinomial counts: the guide table always, and
/// sim::sample_histogram on either side of its choice of method.
TEST(Sampling, CountsHaveMultinomialMoments) {
  const std::pair<const char*, Sampler> samplers[] = {{"guide_table", &guide_table_histogram},
                                                      {"sample_histogram", &sample_histogram}};
  for (const auto& [sampler_name, sampler] : samplers) {
    for (const auto& [shape_name, weights] : moment_shapes()) {
      for (const std::size_t shots : {3 * weights.size(), std::size_t{4000}}) {
        SCOPED_TRACE(std::string(sampler_name) + " " + shape_name + " x " +
                     std::to_string(shots) + " shots");
        expect_multinomial_moments(sampler, weights, shots);
      }
    }
  }
}

}  // namespace
}  // namespace qcut::sim
