// Known-bad: standard-library distributions and shuffles, whose algorithms
// (and so whose draws) differ between standard library implementations.
#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace fixture_bad_std_distributions {

std::uint64_t binomial_count(std::mt19937_64& engine, std::uint64_t n, double p) {
  std::binomial_distribution<std::uint64_t> dist(n, p);  // FIRE(no-std-distributions)
  return dist(engine);
}

double gaussian(std::mt19937_64& engine) {
  return std::normal_distribution<double>(0.0, 1.0)(engine);  // FIRE(no-std-distributions)
}

std::size_t pick(std::mt19937_64& engine, const std::vector<double>& weights) {
  std::discrete_distribution<std::size_t> dist(  // FIRE(no-std-distributions)
      weights.begin(), weights.end());
  return dist(engine);
}

void permute(std::mt19937_64& engine, std::vector<int>& order) {
  std::shuffle(order.begin(), order.end(), engine);  // FIRE(no-std-distributions)
}

using std::uniform_real_distribution;  // FIRE(no-std-distributions)

}  // namespace fixture_bad_std_distributions
