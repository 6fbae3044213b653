// AVX2+FMA tier of the SoA kernels. This translation unit is the only place
// (with its AVX-512 sibling) allowed to emit AVX instructions: CMake adds
// -mavx2 -mfma to exactly this file, and best_isa() never hands out this
// table unless __builtin_cpu_supports confirms the host.

#include "sim/simd_kernels.hpp"

#if defined(QCUT_SIMD_AVX2)

#include <immintrin.h>

#include "sim/simd_kernels_impl.hpp"

namespace qcut::sim::simd {

namespace {

struct Avx2Vec {
  using reg = __m256d;
  using perm = __m256i;
  static constexpr index_t width = 4;
  static reg load(const double* p) noexcept { return _mm256_loadu_pd(p); }
  static void store(double* p, reg v) noexcept { _mm256_storeu_pd(p, v); }
  static reg set1(double x) noexcept { return _mm256_set1_pd(x); }
  static reg zero() noexcept { return _mm256_setzero_pd(); }
  // FMA contraction is the SIMD path's one documented rounding deviation:
  // gated by EngineOptions::simd, validated to 1e-12 per amplitude, and
  // folded into Backend::identity() so cache keys stay sound.
  static void cmul(reg wr, reg wi, reg ar, reg ai, reg& nr, reg& ni) noexcept {
    // qcut-lint: allow(no-fp-reassociation) -- w*a contracted on the identity-bearing SIMD path
    nr = _mm256_fnmadd_pd(wi, ai, _mm256_mul_pd(wr, ar));
    // qcut-lint: allow(no-fp-reassociation) -- w*a contracted on the identity-bearing SIMD path
    ni = _mm256_fmadd_pd(wi, ar, _mm256_mul_pd(wr, ai));
  }
  static void cmac(reg wr, reg wi, reg ar, reg ai, reg& nr, reg& ni) noexcept {
    // qcut-lint: allow(no-fp-reassociation) -- n+w*a contracted on the identity-bearing SIMD path
    nr = _mm256_fnmadd_pd(wi, ai, _mm256_fmadd_pd(wr, ar, nr));
    // qcut-lint: allow(no-fp-reassociation) -- n+w*a contracted on the identity-bearing SIMD path
    ni = _mm256_fmadd_pd(wi, ar, _mm256_fmadd_pd(wr, ai, ni));
  }
  /// vpermd indices moving lane l ^ x to lane l (two 32-bit halves per lane).
  static perm lane_xor(index_t x) noexcept {
    const int s = static_cast<int>(x);
    return _mm256_setr_epi32(2 * (0 ^ s), 2 * (0 ^ s) + 1, 2 * (1 ^ s), 2 * (1 ^ s) + 1,
                             2 * (2 ^ s), 2 * (2 ^ s) + 1, 2 * (3 ^ s), 2 * (3 ^ s) + 1);
  }
  static reg permute(reg v, perm p) noexcept {
    return _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(_mm256_castpd_si256(v), p));
  }
};

}  // namespace

const KernelTable& detail::avx2_table() noexcept {
  static const KernelTable table = SoaKernels<Avx2Vec>::table();
  return table;
}

}  // namespace qcut::sim::simd

#endif  // QCUT_SIMD_AVX2
