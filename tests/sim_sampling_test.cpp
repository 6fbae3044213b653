#include "sim/sampling.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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

struct SamplingCase {
  const char* name;
  std::vector<double> weights;
  std::uint64_t histogram_digest;  // sample_histogram(4000 shots) + the next draw
  std::uint64_t draws_digest;      // 500 single DiscreteSampler::sample draws
};

/// Committed digests of sampled outcomes, recorded before the sampler's
/// search changed: a change that moves any draw to another outcome, or
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
    for (const std::uint64_t count : sample_histogram(c.weights, 4000, rng)) histogram.add(count);
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

/// sample_histogram against its oracle, the single-draw search: the same
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
      EXPECT_EQ(sample_histogram(weights, shots, histogram_rng),
                single_draw_tally(weights, shots, draws_rng));
      EXPECT_EQ(histogram_rng.next_u64(), draws_rng.next_u64());
    }
  }
}

}  // namespace
}  // namespace qcut::sim
