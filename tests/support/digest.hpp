#pragma once
// Digest of floating-point results for the committed bit-exactness fixtures.

#include <bit>
#include <cstdint>
#include <vector>

namespace qcut {

/// 64-bit FNV-1a over the IEEE-754 bit patterns of `values`, least
/// significant byte first, so the digest is the same on every host.
inline std::uint64_t fnv1a(const std::vector<double>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double value : values) {
    const auto word = std::bit_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

}  // namespace qcut
