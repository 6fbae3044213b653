#pragma once
// SoA SIMD kernel tables with runtime ISA dispatch.
//
// Each kernel class of sim/engine.hpp has a split re/im implementation
// operating on SoAState buffers. The kernels are compiled from one
// width-parameterized template (simd_kernels_impl.hpp) into three tiers:
//
//   Scalar — width-1 instantiation, plain double arithmetic, always built;
//   Avx2   — __m256d (4 doubles/lane pair) with FMA, built when the
//            compiler accepts -mavx2 -mfma (CMake QCUT_SIMD);
//   Avx512 — __m512d (8 doubles), built when -mavx512f is accepted.
//
// The AVX tiers live in their own translation units with per-source ISA
// flags, so the rest of the library never emits an instruction the host
// might lack; best_isa() probes the CPU once at runtime
// (__builtin_cpu_supports) and picks the widest table both the build and
// the machine support.
//
// Rounding contract: the vector tiers contract complex multiplies through
// FMA, so their results deviate from the Scalar tier (and from the
// bit-exact AoS kernels in engine.cpp) by floating-point rounding — within
// 1e-12 per amplitude for realistic depths. That is why EngineOptions::simd
// is a result-affecting knob folded into Backend::identity().

#include "sim/engine.hpp"

namespace qcut::sim::simd {

/// A split-amplitude view the kernels write through. For cache-blocked
/// application the pointers address one 2^B-amplitude block and `dim` is
/// the block size.
struct SoaSpan {
  double* re = nullptr;
  double* im = nullptr;
  index_t dim = 0;
};

/// Applies `op` to the amplitude groups [group_lo, group_hi) of `span`.
/// Group semantics match the AoS kernels: group_count(op, dim) enumerates
/// the independent index groups the op touches.
using KernelFn = void (*)(const SoaSpan& span, const CompiledOp& op, index_t group_lo,
                          index_t group_hi);

/// One kernel per KernelClass, indexed by static_cast<size_t>(cls).
struct KernelTable {
  KernelFn fns[6] = {};
};

/// Independent amplitude groups `op` touches on a dim-sized state — the
/// iteration count kernels and the chunking layer agree on.
[[nodiscard]] index_t group_count(const CompiledOp& op, index_t dim) noexcept;

/// Widest ISA both the build and this CPU support; Scalar when the SIMD
/// tiers are compiled out or the CPU lacks AVX2+FMA.
[[nodiscard]] IsaLevel best_isa() noexcept;

/// The kernel table for an ISA level. Requesting a level the build or CPU
/// does not support falls back to Scalar.
[[nodiscard]] const KernelTable& kernel_table(IsaLevel isa) noexcept;

namespace detail {
#if defined(QCUT_SIMD_AVX2)
[[nodiscard]] const KernelTable& avx2_table() noexcept;
#endif
#if defined(QCUT_SIMD_AVX512)
[[nodiscard]] const KernelTable& avx512_table() noexcept;
#endif
}  // namespace detail

}  // namespace qcut::sim::simd
