#pragma once
// Measurement counts: the result of sampling a circuit.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/bits.hpp"

namespace qcut::backend {

/// Histogram of measured bitstrings over a fixed-width register.
/// Stored sparsely (ordered map) so wide registers with few observed
/// outcomes stay cheap.
class Counts {
 public:
  /// Empty counts over `num_bits` measured bits.
  explicit Counts(int num_bits);

  [[nodiscard]] int num_bits() const noexcept { return num_bits_; }
  [[nodiscard]] std::uint64_t total_shots() const noexcept { return total_; }
  [[nodiscard]] std::size_t num_distinct_outcomes() const noexcept { return counts_.size(); }

  /// Records `n` observations of `outcome`.
  void add(index_t outcome, std::uint64_t n = 1);

  /// Count of one outcome (0 if never observed).
  [[nodiscard]] std::uint64_t count(index_t outcome) const;

  /// Merges another Counts over the same register width.
  void merge(const Counts& other);

  /// Dense empirical distribution over all 2^num_bits outcomes.
  /// Throws if no shots were recorded.
  [[nodiscard]] std::vector<double> to_probabilities() const;

  /// Builds Counts from a dense histogram of length 2^num_bits.
  [[nodiscard]] static Counts from_histogram(const std::vector<std::uint64_t>& histogram,
                                             int num_bits);

  /// Ordered (outcome, count) pairs.
  [[nodiscard]] const std::map<index_t, std::uint64_t>& items() const noexcept { return counts_; }

  /// "0101: 312" lines, most-significant bit first.
  [[nodiscard]] std::string to_string() const;

 private:
  int num_bits_;
  std::uint64_t total_ = 0;
  std::map<index_t, std::uint64_t> counts_;
};

/// Dense empirical distribution of `histogram`, a tally of `shots` draws
/// (shots > 0): count * (1 / shots) per outcome, +0.0 where the count is
/// zero. This is Counts::to_probabilities()' arithmetic, so the result is bit
/// for bit Counts::from_histogram(histogram, ...).to_probabilities() when
/// the histogram sums to `shots`, without building the map.
[[nodiscard]] std::vector<double> probabilities_from_histogram(
    std::span<const std::uint64_t> histogram, std::uint64_t shots);

}  // namespace qcut::backend
