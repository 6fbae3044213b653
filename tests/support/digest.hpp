#pragma once
// Digest of floating-point results for the committed bit-exactness fixtures.

#include <bit>
#include <cstdint>
#include <vector>

namespace qcut {

/// 64-bit FNV-1a over a stream of 64-bit words, each least significant
/// byte first, so the digest is the same on every host.
class Fnv1a {
 public:
  void add(std::uint64_t word) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The IEEE-754 bit patterns of `values`: equal exactly when the values
/// are bit for bit equal (unlike ==, which equates -0.0 and 0.0).
template <typename Values>
std::vector<std::uint64_t> bit_patterns(const Values& values) {
  std::vector<std::uint64_t> out;
  out.reserve(values.size());
  for (const double value : values) out.push_back(std::bit_cast<std::uint64_t>(value));
  return out;
}

/// FNV-1a over the IEEE-754 bit patterns of `values`.
inline std::uint64_t fnv1a(const std::vector<double>& values) {
  Fnv1a hash;
  for (const double value : values) hash.add(std::bit_cast<std::uint64_t>(value));
  return hash.value();
}

}  // namespace qcut
