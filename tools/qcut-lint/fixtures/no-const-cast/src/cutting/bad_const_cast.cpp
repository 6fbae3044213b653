// Known-bad: writes through const_cast into distributions that other jobs
// share read-only (a cache entry, a response's data, a bootstrap replica).
#include <memory>
#include <vector>

namespace fixture_bad_const_cast {

void renormalize(const std::shared_ptr<const std::vector<double>>& shared, double total) {
  auto& values = const_cast<std::vector<double>&>(*shared);  // FIRE(no-const-cast)
  for (double& p : values) p /= total;
}

void zero_first(const std::vector<double>& probabilities) {
  double* first = const_cast<double*>(  // FIRE(no-const-cast)
      probabilities.data());
  *first = 0.0;
}

}  // namespace fixture_bad_const_cast
