// Known-good: draws through qcut::Rng and qcut::DiscreteSampler, mentions of
// std::binomial_distribution and std::shuffle in comments and strings, and
// project names that merely end in "_distribution".
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace fixture_good_rng_draws {

struct shot_distribution {
  std::vector<double> probabilities;
};

std::uint64_t first_count(qcut::Rng& rng, const shot_distribution& dist, std::uint64_t shots) {
  const std::string note = "drawn in-tree, not by std::binomial_distribution";
  return rng.binomial(shots, dist.probabilities.front()) + note.size() * 0;
}

std::size_t pick(qcut::Rng& rng, const std::vector<double>& weights) {
  const qcut::DiscreteSampler sampler(weights);
  return sampler.sample(rng);
}

double jitter(qcut::Rng& rng) { return rng.normal(0.0, 1.0) + rng.uniform(); }

}  // namespace fixture_good_rng_draws
