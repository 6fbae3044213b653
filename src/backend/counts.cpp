#include "backend/counts.hpp"

#include <sstream>

#include "common/error.hpp"

namespace qcut::backend {

Counts::Counts(int num_bits) : num_bits_(num_bits) {
  QCUT_CHECK(num_bits >= 1 && num_bits <= 30, "Counts: supported widths are 1..30 bits");
}

void Counts::add(index_t outcome, std::uint64_t n) {
  QCUT_CHECK(outcome < pow2(num_bits_), "Counts::add: outcome out of range");
  if (n == 0) return;
  counts_[outcome] += n;
  total_ += n;
}

std::uint64_t Counts::count(index_t outcome) const {
  const auto it = counts_.find(outcome);
  return it == counts_.end() ? 0 : it->second;
}

void Counts::merge(const Counts& other) {
  QCUT_CHECK(other.num_bits_ == num_bits_, "Counts::merge: register width mismatch");
  for (const auto& [outcome, n] : other.counts_) {
    counts_[outcome] += n;
  }
  total_ += other.total_;
}

std::vector<double> Counts::to_probabilities() const {
  QCUT_CHECK(total_ > 0, "Counts::to_probabilities: no shots recorded");
  std::vector<double> probs(pow2(num_bits_), 0.0);
  const double inv_total = 1.0 / static_cast<double>(total_);
  for (const auto& [outcome, n] : counts_) {
    probs[outcome] = static_cast<double>(n) * inv_total;
  }
  return probs;
}

// Must keep to_probabilities()' arithmetic: Backend::run_batch's sampled
// results are promised bit for bit equal to run(...).to_probabilities().
std::vector<double> probabilities_from_histogram(std::span<const std::uint64_t> histogram,
                                                 std::uint64_t shots) {
  QCUT_CHECK(shots > 0, "probabilities_from_histogram: no shots recorded");
  std::vector<double> probs(histogram.size());
  const double inv_total = 1.0 / static_cast<double>(shots);
  for (std::size_t outcome = 0; outcome < histogram.size(); ++outcome) {
    probs[outcome] = static_cast<double>(histogram[outcome]) * inv_total;
  }
  return probs;
}

Counts Counts::from_histogram(const std::vector<std::uint64_t>& histogram, int num_bits) {
  Counts out(num_bits);
  QCUT_CHECK(histogram.size() == pow2(num_bits),
             "Counts::from_histogram: histogram length must be 2^num_bits");
  for (index_t outcome = 0; outcome < histogram.size(); ++outcome) {
    if (histogram[outcome] > 0) out.add(outcome, histogram[outcome]);
  }
  return out;
}

std::string Counts::to_string() const {
  std::ostringstream oss;
  for (const auto& [outcome, n] : counts_) {
    oss << bits_to_string(outcome, num_bits_) << ": " << n << '\n';
  }
  return oss.str();
}

}  // namespace qcut::backend
