#include "backend/counts.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "common/error.hpp"

namespace qcut::backend {
namespace {

TEST(Counts, AddAndQuery) {
  Counts counts(3);
  counts.add(0b101, 5);
  counts.add(0b000, 2);
  counts.add(0b101);
  EXPECT_EQ(counts.total_shots(), 8u);
  EXPECT_EQ(counts.count(0b101), 6u);
  EXPECT_EQ(counts.count(0b000), 2u);
  EXPECT_EQ(counts.count(0b111), 0u);
  EXPECT_EQ(counts.num_distinct_outcomes(), 2u);
}

TEST(Counts, OutOfRangeRejected) {
  Counts counts(2);
  EXPECT_THROW(counts.add(4), Error);
  EXPECT_THROW(Counts(0), Error);
  EXPECT_THROW(Counts(31), Error);
}

TEST(Counts, ZeroAddIsNoop) {
  Counts counts(2);
  counts.add(1, 0);
  EXPECT_EQ(counts.total_shots(), 0u);
  EXPECT_EQ(counts.num_distinct_outcomes(), 0u);
}

TEST(Counts, ToProbabilities) {
  Counts counts(2);
  counts.add(0b00, 1);
  counts.add(0b11, 3);
  const std::vector<double> probs = counts.to_probabilities();
  ASSERT_EQ(probs.size(), 4u);
  EXPECT_NEAR(probs[0], 0.25, 1e-12);
  EXPECT_NEAR(probs[3], 0.75, 1e-12);
  EXPECT_NEAR(probs[1], 0.0, 1e-12);

  Counts empty(2);
  EXPECT_THROW((void)empty.to_probabilities(), Error);
}

TEST(Counts, Merge) {
  Counts a(2), b(2);
  a.add(0, 2);
  b.add(0, 1);
  b.add(3, 4);
  a.merge(b);
  EXPECT_EQ(a.total_shots(), 7u);
  EXPECT_EQ(a.count(0), 3u);
  EXPECT_EQ(a.count(3), 4u);

  Counts wrong(3);
  EXPECT_THROW(a.merge(wrong), Error);
}

TEST(Counts, FromHistogramRoundTrip) {
  const std::vector<std::uint64_t> histogram = {0, 5, 0, 7};
  const Counts counts = Counts::from_histogram(histogram, 2);
  EXPECT_EQ(counts.total_shots(), 12u);
  EXPECT_EQ(counts.count(1), 5u);
  EXPECT_EQ(counts.count(3), 7u);
  EXPECT_THROW((void)Counts::from_histogram(histogram, 3), Error);
}

TEST(Counts, ProbabilitiesFromHistogramMatchToProbabilitiesBitForBit) {
  // count / shots differs from count * (1 / shots) in the last bit for a
  // count of 5 out of 7 and of 3 out of 10, so a division would fail here.
  for (const std::vector<std::uint64_t>& histogram :
       {std::vector<std::uint64_t>{0, 1, 0, 2}, std::vector<std::uint64_t>{5, 0, 2, 0},
        std::vector<std::uint64_t>{1, 2, 3, 4}}) {
    std::uint64_t shots = 0;
    for (const std::uint64_t n : histogram) shots += n;
    const std::vector<double> dense = probabilities_from_histogram(histogram, shots);
    const std::vector<double> reference = Counts::from_histogram(histogram, 2).to_probabilities();
    ASSERT_EQ(dense.size(), reference.size());
    for (std::size_t i = 0; i < dense.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(dense[i]), std::bit_cast<std::uint64_t>(reference[i]))
          << "outcome " << i << " of " << shots << " shots";
    }
  }
  EXPECT_THROW((void)probabilities_from_histogram(std::vector<std::uint64_t>{0, 0}, 0), Error);
}

TEST(Counts, ToStringShowsMsbFirst) {
  Counts counts(3);
  counts.add(0b110, 2);
  const std::string s = counts.to_string();
  EXPECT_NE(s.find("110: 2"), std::string::npos);
}

}  // namespace
}  // namespace qcut::backend
