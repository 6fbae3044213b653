// Width-1 tier (the default engine), the shared GenericKQ body and runtime
// ISA dispatch of the kernel tables.

#include "sim/simd_kernels.hpp"

#include "sim/simd_kernels_impl.hpp"

namespace qcut::sim::simd {

namespace {

/// Width-1 vector policy: the kernel bodies of the AVX tiers in plain
/// double arithmetic, each complex product rounded and then added as
/// std::complex<double> does. No ISA flag reaches this translation unit,
/// so nothing here is contracted into an FMA.
struct ScalarVec {
  using reg = double;
  static constexpr index_t width = 1;
  static reg load(const double* p) noexcept { return *p; }
  static void store(double* p, reg v) noexcept { *p = v; }
  static reg set1(double x) noexcept { return x; }
  static reg zero() noexcept { return 0.0; }
  static void cmul(reg wr, reg wi, reg ar, reg ai, reg& nr, reg& ni) noexcept {
    nr = wr * ar - wi * ai;
    ni = wr * ai + wi * ar;
  }
  static void cmac(reg wr, reg wi, reg ar, reg ai, reg& nr, reg& ni) noexcept {
    nr = nr + (wr * ar - wi * ai);
    ni = ni + (wr * ai + wi * ar);
  }
};

const KernelTable& scalar_table() noexcept {
  static const KernelTable table = SoaKernels<ScalarVec>::table();
  return table;
}

}  // namespace

void detail::generic_kq(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
  const index_t block = pow2(static_cast<int>(op.qubits.size()));
  // Inline up to 3 qubits (8 amplitudes): only Custom blocks on more spill.
  circuit::InlineList<double, 8> inr(block);
  circuit::InlineList<double, 8> ini(block);
  circuit::InlineList<double, 8> outr(block);
  circuit::InlineList<double, 8> outi(block);
  for (index_t g = lo; g < hi; ++g) {
    const index_t base = insert_zero_bits(g, op.sorted_qubits);
    for (index_t p = 0; p < block; ++p) {
      inr[p] = s.re[base | op.perm_dst[p]];
      ini[p] = s.im[base | op.perm_dst[p]];
    }
    for (index_t r = 0; r < block; ++r) {
      double accr = 0.0;  // acc = 0; acc += m(r, c) * in[c]
      double acci = 0.0;
      for (index_t c = 0; c < block; ++c) {
        ScalarVec::cmac(op.matrix(r, c).real(), op.matrix(r, c).imag(), inr[c], ini[c], accr,
                        acci);
      }
      outr[r] = accr;
      outi[r] = acci;
    }
    for (index_t p = 0; p < block; ++p) {
      s.re[base | op.perm_dst[p]] = outr[p];
      s.im[base | op.perm_dst[p]] = outi[p];
    }
  }
}

std::size_t detail::local_entries(const CompiledOp& op, std::array<LocalEntry, 16>& out) {
  std::size_t n = 0;
  const auto add = [&](index_t dst, index_t src, cx w) { out[n++] = LocalEntry{dst, src, w}; };
  const cx one{1.0, 0.0};
  const KernelMatrix& m = op.matrix;
  switch (op.cls) {
    case KernelClass::Diagonal:
      for (index_t p = 0; p < pow2(static_cast<int>(op.qubits.size())); ++p) {
        const index_t d = scatter_bits(p, op.qubits);
        cx w = one;
        for (const auto& [offset, factor] : op.diag_factors) {
          if (offset == d) w = factor;
        }
        add(d, d, w);
      }
      break;
    case KernelClass::Permutation:
      for (index_t p = 0; p < pow2(static_cast<int>(op.qubits.size())); ++p) {
        const index_t d = scatter_bits(p, op.qubits);
        std::size_t i = 0;
        while (i < op.perm_dst.size() && op.perm_dst[i] != d) ++i;
        if (i < op.perm_dst.size()) {
          add(d, op.perm_src[i], op.perm_phase[i]);
        } else {
          add(d, d, one);  // a fixed point
        }
      }
      break;
    case KernelClass::Controlled1Q: {
      const index_t c = op.control_mask;
      const index_t ct = op.control_mask | op.target_mask;
      add(0, 0, one);
      add(op.target_mask, op.target_mask, one);
      add(c, c, m(0, 0));
      add(c, ct, m(0, 1));
      add(ct, c, m(1, 0));
      add(ct, ct, m(1, 1));
      break;
    }
    case KernelClass::Generic1Q: {
      const index_t b = pow2(op.qubits[0]);
      add(0, 0, m(0, 0));
      add(0, b, m(0, 1));
      add(b, 0, m(1, 0));
      add(b, b, m(1, 1));
      break;
    }
    case KernelClass::Generic2Q: {
      const index_t off[4] = {0, pow2(op.qubits[0]), pow2(op.qubits[1]),
                              pow2(op.qubits[0]) | pow2(op.qubits[1])};
      for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t c = 0; c < 4; ++c) add(off[r], off[c], m(r, c));
      }
      break;
    }
    case KernelClass::GenericKQ:
      break;
  }
  return n;
}

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
