#pragma once
// SoA kernel tables with runtime ISA dispatch: the engine's one kernel set.
//
// Each kernel class of sim/engine.hpp has one split re/im body, written
// once as a width-parameterized template (simd_kernels_impl.hpp) and
// compiled into three tiers:
//
//   Scalar — width-1 instantiation, plain double arithmetic, always built:
//            the default engine;
//   Avx2   — __m256d (4 doubles) with FMA, built when the compiler accepts
//            -mavx2 -mfma (CMake QCUT_SIMD);
//   Avx512 — __m512d (8 doubles), built when -mavx512f is accepted.
//
// The AVX tiers live in their own translation units with per-source ISA
// flags, so the rest of the library never emits an instruction the host
// might lack; best_isa() probes the CPU once at runtime
// (__builtin_cpu_supports) and picks the widest table both the build and
// the machine support.
//
// Rounding contract: the Scalar tier rounds every complex product and sum
// as std::complex<double> does (StateVector::apply_1q/2q spell it out), so
// it is bit for bit the generic StateVector::apply_matrix arithmetic. The
// vector tiers contract complex multiplies through FMA, so their results
// deviate from the Scalar tier by floating-point rounding — within 1e-12
// per amplitude for realistic depths. That is why EngineOptions::simd is a
// result-affecting knob folded into Backend::identity().

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

/// Applies `op` to the amplitude groups [group_lo, group_hi) of `span`:
/// group_count(op, dim) enumerates the independent index groups the op
/// touches. Both bounds must be multiples of 8 (or group_hi the count), so
/// no register's amplitudes straddle two calls; the engine's chunks are
/// whole multiples of 1024 groups.
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
/// does not support falls back to the widest one below it.
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
