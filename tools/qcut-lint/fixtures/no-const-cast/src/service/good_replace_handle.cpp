// Known-good: a shared distribution changes by replacing its handle, never
// by editing it; mentions of const_cast in comments and strings, and names
// that merely contain it, stay quiet.
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace fixture_good_replace_handle {

using Shared = std::shared_ptr<const std::vector<double>>;

Shared rescaled(const Shared& shared, double factor) {
  std::vector<double> values = *shared;  // a private copy, edited freely
  for (double& p : values) p *= factor;
  return std::make_shared<const std::vector<double>>(std::move(values));
}

std::size_t const_cast_free(const std::vector<double>& probabilities) {
  const std::string note = "no const_cast here";
  const std::vector<double>& view = static_cast<const std::vector<double>&>(probabilities);
  return view.size() + note.size() * 0;
}

}  // namespace fixture_good_replace_handle
