// Scalar SoA tier and runtime ISA dispatch for the SIMD kernel tables.

#include "sim/simd_kernels.hpp"

#include "common/error.hpp"
#include "sim/simd_kernels_impl.hpp"

namespace qcut::sim::simd {

namespace {

/// Width-1 vector policy: the same kernel bodies as the AVX tiers, plain
/// double arithmetic, no FMA contraction. Used for GenericKQ under SIMD,
/// for runs shorter than a vector register, and as the whole table when the
/// build or CPU lacks AVX2.
struct ScalarVec {
  using reg = double;
  static constexpr index_t width = 1;
  static reg load(const double* p) noexcept { return *p; }
  static void store(double* p, reg v) noexcept { *p = v; }
  static reg set1(double x) noexcept { return x; }
  static reg zero() noexcept { return 0.0; }
  static reg add(reg a, reg b) noexcept { return a + b; }
  static reg sub(reg a, reg b) noexcept { return a - b; }
  static reg mul(reg a, reg b) noexcept { return a * b; }
  static reg madd(reg a, reg b, reg c) noexcept { return a * b + c; }
  static reg nmadd(reg a, reg b, reg c) noexcept { return c - a * b; }
};

const KernelTable& scalar_table() noexcept {
  static const KernelTable table = SoaKernels<ScalarVec>::table();
  return table;
}

}  // namespace

index_t group_count(const CompiledOp& op, index_t dim) noexcept {
  switch (op.cls) {
    case KernelClass::Diagonal:
    case KernelClass::Permutation:
    case KernelClass::GenericKQ:
      return dim >> op.qubits.size();
    case KernelClass::Controlled1Q:
    case KernelClass::Generic2Q:
      return dim >> 2;
    case KernelClass::Generic1Q:
      return dim >> 1;
  }
  return 0;
}

IsaLevel best_isa() noexcept {
#if defined(QCUT_SIMD_AVX512)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
    return IsaLevel::Avx512;
  }
#endif
#if defined(QCUT_SIMD_AVX2)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return IsaLevel::Avx2;
  }
#endif
  return IsaLevel::Scalar;
}

const KernelTable& kernel_table(IsaLevel isa) noexcept {
  switch (isa) {
    case IsaLevel::Avx512:
#if defined(QCUT_SIMD_AVX512)
      if (best_isa() == IsaLevel::Avx512) return detail::avx512_table();
#endif
      [[fallthrough]];
    case IsaLevel::Avx2:
#if defined(QCUT_SIMD_AVX2)
      if (best_isa() != IsaLevel::Scalar) return detail::avx2_table();
#endif
      [[fallthrough]];
    case IsaLevel::Scalar:
      break;
  }
  return scalar_table();
}

}  // namespace qcut::sim::simd
