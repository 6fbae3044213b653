#pragma once
// Width-parameterized SoA kernel bodies, instantiated once per ISA tier.
//
// Included ONLY by the simd_kernels*.cpp translation units; each provides a
// vector-ops policy V (register type, width, load/store/FMA wrappers) and
// instantiates SoaKernels<V>::table(). The Scalar tier is the width-1
// instantiation of the same code, so every tier walks identical index
// sequences and differs only in lane width and FMA contraction.
//
// Index scheme — contiguous-run decomposition. Amplitude groups of an op
// whose lowest sorted qubit is q0 decompose as g = (h << q0) | l with
// l < run = 2^q0: all insertion positions are >= q0, so
//   insert_zero_bits(g, sorted_qubits) == insert_zero_bits(h << q0, ...) + l
// and every per-op offset (diag/perm/control/target masks) has bits only at
// gate-qubit positions >= q0. Each group row is therefore a CONTIGUOUS run
// of `run` amplitudes, vectorized with plain unaligned loads; runs shorter
// than the lane width (gates touching qubit 0/1) take the scalar tail loop
// of the same instantiation.

#include <algorithm>
#include <vector>

#include "common/bits.hpp"
#include "sim/simd_kernels.hpp"

namespace qcut::sim::simd {

template <typename V>
struct SoaKernels {
  using reg = typename V::reg;
  static constexpr index_t kW = V::width;

  /// Multiplies the contiguous amplitudes [p, p+count) in place by the
  /// complex constant (fr, fi).
  static void scale_run(double* re, double* im, index_t count, double fr, double fi) {
    const reg vfr = V::set1(fr);
    const reg vfi = V::set1(fi);
    index_t l = 0;
    for (; l + kW <= count; l += kW) {
      const reg ar = V::load(re + l);
      const reg ai = V::load(im + l);
      V::store(re + l, V::nmadd(vfi, ai, V::mul(vfr, ar)));
      V::store(im + l, V::madd(vfi, ar, V::mul(vfr, ai)));
    }
    for (; l < count; ++l) {
      const double ar = re[l];
      const double ai = im[l];
      re[l] = fr * ar - fi * ai;
      im[l] = fr * ai + fi * ar;
    }
  }

  static void diagonal(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    if (op.diag_factors.empty()) return;  // identity
    const auto& qs = op.sorted_qubits;
    const int q0 = qs[0];
    const index_t run = index_t{1} << q0;
    index_t g = lo;
    while (g < hi) {
      const index_t l0 = g & (run - 1);
      const index_t lend = std::min<index_t>(run, l0 + (hi - g));
      const index_t base = insert_zero_bits(g, qs) - l0;
      for (const auto& [offset, factor] : op.diag_factors) {
        scale_run(s.re + base + offset + l0, s.im + base + offset + l0, lend - l0,
                  factor.real(), factor.imag());
      }
      g += lend - l0;
    }
  }

  static void permutation(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    if (op.perm_dst.empty()) return;  // identity
    const auto& qs = op.sorted_qubits;
    const int q0 = qs[0];
    const index_t run = index_t{1} << q0;
    const std::size_t moves = op.perm_dst.size();
    index_t g = lo;
    while (g < hi) {
      const index_t l0 = g & (run - 1);
      const index_t lend = std::min<index_t>(run, l0 + (hi - g));
      const index_t base = insert_zero_bits(g, qs) - l0;
      index_t l = l0;
      for (; l + kW <= lend; l += kW) {
        reg br[8];
        reg bi[8];
        for (std::size_t i = 0; i < moves; ++i) {
          br[i] = V::load(s.re + base + op.perm_src[i] + l);
          bi[i] = V::load(s.im + base + op.perm_src[i] + l);
        }
        for (std::size_t i = 0; i < moves; ++i) {
          double* dr = s.re + base + op.perm_dst[i] + l;
          double* di = s.im + base + op.perm_dst[i] + l;
          if (op.perm_phase_is_one[i] != 0) {
            V::store(dr, br[i]);
            V::store(di, bi[i]);
          } else {
            const reg pr = V::set1(op.perm_phase[i].real());
            const reg pi = V::set1(op.perm_phase[i].imag());
            V::store(dr, V::nmadd(pi, bi[i], V::mul(pr, br[i])));
            V::store(di, V::madd(pi, br[i], V::mul(pr, bi[i])));
          }
        }
      }
      for (; l < lend; ++l) {
        double br[8];
        double bi[8];
        for (std::size_t i = 0; i < moves; ++i) {
          br[i] = s.re[base + op.perm_src[i] + l];
          bi[i] = s.im[base + op.perm_src[i] + l];
        }
        for (std::size_t i = 0; i < moves; ++i) {
          const index_t d = base + op.perm_dst[i] + l;
          if (op.perm_phase_is_one[i] != 0) {
            s.re[d] = br[i];
            s.im[d] = bi[i];
          } else {
            const double pr = op.perm_phase[i].real();
            const double pi = op.perm_phase[i].imag();
            s.re[d] = pr * br[i] - pi * bi[i];
            s.im[d] = pr * bi[i] + pi * br[i];
          }
        }
      }
      g += lend - l0;
    }
  }

  /// Shared 2x2 body: applies [[m00 m01],[m10 m11]] to the amplitude pairs
  /// (base+off0+l, base+off1+l) for l in group runs of [lo, hi).
  static void two_level(const SoaSpan& s, std::span<const int> qs, const KernelMatrix& m,
                        index_t off0, index_t off1, index_t lo, index_t hi) {
    const double m00r = m(0, 0).real(), m00i = m(0, 0).imag();
    const double m01r = m(0, 1).real(), m01i = m(0, 1).imag();
    const double m10r = m(1, 0).real(), m10i = m(1, 0).imag();
    const double m11r = m(1, 1).real(), m11i = m(1, 1).imag();
    const int q0 = qs[0];
    const index_t run = index_t{1} << q0;
    const reg v00r = V::set1(m00r), v00i = V::set1(m00i);
    const reg v01r = V::set1(m01r), v01i = V::set1(m01i);
    const reg v10r = V::set1(m10r), v10i = V::set1(m10i);
    const reg v11r = V::set1(m11r), v11i = V::set1(m11i);
    index_t g = lo;
    while (g < hi) {
      const index_t l0 = g & (run - 1);
      const index_t lend = std::min<index_t>(run, l0 + (hi - g));
      const index_t base = insert_zero_bits(g, qs) - l0;
      double* r0 = s.re + base + off0;
      double* i0 = s.im + base + off0;
      double* r1 = s.re + base + off1;
      double* i1 = s.im + base + off1;
      index_t l = l0;
      for (; l + kW <= lend; l += kW) {
        const reg a0r = V::load(r0 + l), a0i = V::load(i0 + l);
        const reg a1r = V::load(r1 + l), a1i = V::load(i1 + l);
        // n0 = m00*a0 + m01*a1, n1 = m10*a0 + m11*a1 (complex).
        reg nr = V::mul(v00r, a0r);
        nr = V::nmadd(v00i, a0i, nr);
        nr = V::madd(v01r, a1r, nr);
        nr = V::nmadd(v01i, a1i, nr);
        reg ni = V::mul(v00r, a0i);
        ni = V::madd(v00i, a0r, ni);
        ni = V::madd(v01r, a1i, ni);
        ni = V::madd(v01i, a1r, ni);
        V::store(r0 + l, nr);
        V::store(i0 + l, ni);
        nr = V::mul(v10r, a0r);
        nr = V::nmadd(v10i, a0i, nr);
        nr = V::madd(v11r, a1r, nr);
        nr = V::nmadd(v11i, a1i, nr);
        ni = V::mul(v10r, a0i);
        ni = V::madd(v10i, a0r, ni);
        ni = V::madd(v11r, a1i, ni);
        ni = V::madd(v11i, a1r, ni);
        V::store(r1 + l, nr);
        V::store(i1 + l, ni);
      }
      for (; l < lend; ++l) {
        const double a0r = r0[l], a0i = i0[l];
        const double a1r = r1[l], a1i = i1[l];
        r0[l] = m00r * a0r - m00i * a0i + m01r * a1r - m01i * a1i;
        i0[l] = m00r * a0i + m00i * a0r + m01r * a1i + m01i * a1r;
        r1[l] = m10r * a0r - m10i * a0i + m11r * a1r - m11i * a1i;
        i1[l] = m10r * a0i + m10i * a0r + m11r * a1i + m11i * a1r;
      }
      g += lend - l0;
    }
  }

  static void controlled_1q(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    two_level(s, op.sorted_qubits, op.matrix, op.control_mask,
              op.control_mask | op.target_mask, lo, hi);
  }

  static void generic_1q(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    two_level(s, op.sorted_qubits, op.matrix, 0, pow2(op.qubits[0]), lo, hi);
  }

  static void generic_2q(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    const auto& qs = op.sorted_qubits;
    const index_t off[4] = {0, pow2(op.qubits[0]), pow2(op.qubits[1]),
                            pow2(op.qubits[0]) | pow2(op.qubits[1])};
    double mr[4][4];
    double mi[4][4];
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        mr[r][c] = op.matrix(static_cast<std::size_t>(r), static_cast<std::size_t>(c)).real();
        mi[r][c] = op.matrix(static_cast<std::size_t>(r), static_cast<std::size_t>(c)).imag();
      }
    }
    const int q0 = qs[0];
    const index_t run = index_t{1} << q0;
    index_t g = lo;
    while (g < hi) {
      const index_t l0 = g & (run - 1);
      const index_t lend = std::min<index_t>(run, l0 + (hi - g));
      const index_t base = insert_zero_bits(g, qs) - l0;
      index_t l = l0;
      for (; l + kW <= lend; l += kW) {
        reg ar[4];
        reg ai[4];
        for (int c = 0; c < 4; ++c) {
          ar[c] = V::load(s.re + base + off[c] + l);
          ai[c] = V::load(s.im + base + off[c] + l);
        }
        for (int r = 0; r < 4; ++r) {
          reg accr = V::zero();
          reg acci = V::zero();
          for (int c = 0; c < 4; ++c) {
            const reg wr = V::set1(mr[r][c]);
            const reg wi = V::set1(mi[r][c]);
            accr = V::madd(wr, ar[c], accr);
            accr = V::nmadd(wi, ai[c], accr);
            acci = V::madd(wr, ai[c], acci);
            acci = V::madd(wi, ar[c], acci);
          }
          V::store(s.re + base + off[r] + l, accr);
          V::store(s.im + base + off[r] + l, acci);
        }
      }
      for (; l < lend; ++l) {
        double inr[4];
        double ini[4];
        for (int c = 0; c < 4; ++c) {
          inr[c] = s.re[base + off[c] + l];
          ini[c] = s.im[base + off[c] + l];
        }
        for (int r = 0; r < 4; ++r) {
          double accr = 0.0;
          double acci = 0.0;
          for (int c = 0; c < 4; ++c) {
            accr += mr[r][c] * inr[c] - mi[r][c] * ini[c];
            acci += mr[r][c] * ini[c] + mi[r][c] * inr[c];
          }
          s.re[base + off[r] + l] = accr;
          s.im[base + off[r] + l] = acci;
        }
      }
      g += lend - l0;
    }
  }

  /// Dense k-qubit fallback (k >= 3): scalar gather/matvec/scatter over
  /// op.perm_dst's precomputed pattern offsets, mirroring the AoS kernel.
  static void generic_kq(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    const int k = static_cast<int>(op.qubits.size());
    const index_t block = pow2(k);
    std::vector<double> inr(block), ini(block), outr(block), outi(block);
    for (index_t g = lo; g < hi; ++g) {
      const index_t base = insert_zero_bits(g, op.sorted_qubits);
      for (index_t p = 0; p < block; ++p) {
        inr[p] = s.re[base | op.perm_dst[p]];
        ini[p] = s.im[base | op.perm_dst[p]];
      }
      for (index_t r = 0; r < block; ++r) {
        double accr = 0.0;
        double acci = 0.0;
        for (index_t c = 0; c < block; ++c) {
          const double wr = op.matrix(r, c).real();
          const double wi = op.matrix(r, c).imag();
          accr += wr * inr[c] - wi * ini[c];
          acci += wr * ini[c] + wi * inr[c];
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

  [[nodiscard]] static KernelTable table() {
    KernelTable t;
    t.fns[static_cast<std::size_t>(KernelClass::Diagonal)] = &diagonal;
    t.fns[static_cast<std::size_t>(KernelClass::Permutation)] = &permutation;
    t.fns[static_cast<std::size_t>(KernelClass::Controlled1Q)] = &controlled_1q;
    t.fns[static_cast<std::size_t>(KernelClass::Generic1Q)] = &generic_1q;
    t.fns[static_cast<std::size_t>(KernelClass::Generic2Q)] = &generic_2q;
    t.fns[static_cast<std::size_t>(KernelClass::GenericKQ)] = &generic_kq;
    return t;
  }
};

}  // namespace qcut::sim::simd
