// AVX-512 tier of the SoA kernels: identical code shape to the AVX2 tier at
// twice the lane width. Compiled with -mavx512f -mavx512dq for exactly this
// file; dispatched only when __builtin_cpu_supports confirms the host.

#include "sim/simd_kernels.hpp"

#if defined(QCUT_SIMD_AVX512)

#include <immintrin.h>

#include "sim/simd_kernels_impl.hpp"

namespace qcut::sim::simd {

namespace {

struct Avx512Vec {
  using reg = __m512d;
  using perm = __m512i;
  static constexpr index_t width = 8;
  static reg load(const double* p) noexcept { return _mm512_loadu_pd(p); }
  static void store(double* p, reg v) noexcept { _mm512_storeu_pd(p, v); }
  static reg set1(double x) noexcept { return _mm512_set1_pd(x); }
  static reg zero() noexcept { return _mm512_setzero_pd(); }
  // Same FMA rounding contract as the AVX2 tier (see simd_kernels.hpp).
  static void cmul(reg wr, reg wi, reg ar, reg ai, reg& nr, reg& ni) noexcept {
    // qcut-lint: allow(no-fp-reassociation) -- w*a contracted on the identity-bearing SIMD path
    nr = _mm512_fnmadd_pd(wi, ai, _mm512_mul_pd(wr, ar));
    // qcut-lint: allow(no-fp-reassociation) -- w*a contracted on the identity-bearing SIMD path
    ni = _mm512_fmadd_pd(wi, ar, _mm512_mul_pd(wr, ai));
  }
  static void cmac(reg wr, reg wi, reg ar, reg ai, reg& nr, reg& ni) noexcept {
    // qcut-lint: allow(no-fp-reassociation) -- n+w*a contracted on the identity-bearing SIMD path
    nr = _mm512_fnmadd_pd(wi, ai, _mm512_fmadd_pd(wr, ar, nr));
    // qcut-lint: allow(no-fp-reassociation) -- n+w*a contracted on the identity-bearing SIMD path
    ni = _mm512_fmadd_pd(wi, ar, _mm512_fmadd_pd(wr, ai, ni));
  }
  /// vpermpd indices moving lane l ^ x to lane l.
  static perm lane_xor(index_t x) noexcept {
    const auto s = static_cast<long long>(x);
    return _mm512_set_epi64(7 ^ s, 6 ^ s, 5 ^ s, 4 ^ s, 3 ^ s, 2 ^ s, 1 ^ s, 0 ^ s);
  }
  // The masked form with every lane selected: the plain one starts from
  // _mm512_undefined_pd(), which GCC 12 reports as maybe-uninitialized.
  static reg permute(reg v, perm p) noexcept {
    return _mm512_mask_permutexvar_pd(v, 0xFF, p, v);
  }
};

}  // namespace

const KernelTable& detail::avx512_table() noexcept {
  static const KernelTable table = SoaKernels<Avx512Vec>::table();
  return table;
}

}  // namespace qcut::sim::simd

#endif  // QCUT_SIMD_AVX512
