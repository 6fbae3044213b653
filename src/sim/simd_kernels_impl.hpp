#pragma once
// Width-parameterized SoA kernel bodies, instantiated once per ISA tier.
//
// Included ONLY by the simd_kernels*.cpp translation units; each provides a
// vector-ops policy V and instantiates SoaKernels<V>::table(). V supplies
// the register type and width, load/store/set1/zero, and the two complex
// primitives every body is written in:
//
//   cmul(w, a, n)  n = w * a
//   cmac(w, a, n)  n = n + w * a
//
// The Scalar tier (width 1) rounds them as std::complex<double> does: the
// product (wr*ar - wi*ai, wr*ai + wi*ar) first, then the sum. So every
// kernel is bit for bit the StateVector::apply_matrix arithmetic, less the
// terms whose coefficient is exactly 0 (or factors exactly 1), which cannot
// change a value. The AVX tiers contract both into FMA chains. Vector tiers
// also supply lane_xor(x) / permute(v, p): the register whose lane l holds
// lane l ^ x of v.
//
// Index scheme — contiguous-run decomposition. Amplitude groups of an op
// whose lowest sorted qubit is q0 decompose as g = (h << q0) | l with
// l < run = 2^q0: all insertion positions are >= q0, so
//   insert_zero_bits(g, sorted_qubits) == insert_zero_bits(h << q0, ...) + l
// and every per-op offset (diag/perm/control/target masks) has bits only at
// gate-qubit positions >= q0. Each group row is therefore a CONTIGUOUS run
// of `run` amplitudes, vectorized with plain unaligned loads.
//
// An op whose runs are shorter than a register (2^q0 < width) takes the
// lane body instead: a register then holds several of the op's patterns,
// the partner of lane l sitting at lane l ^ 2^q0 of the same register, so
// the op becomes per-lane coefficient vectors times lane-permuted registers
// (LaneProgram). Spans narrower than one register, and diagonal ops on more
// than three qubits, run on the width-1 tier.

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>

#include "common/bits.hpp"
#include "sim/simd_kernels.hpp"

namespace qcut::sim::simd {

namespace detail {

/// The dense k-qubit fallback (GenericKQ), one body for every tier: scalar
/// gather / matvec / scatter over op.perm_dst's pattern offsets, rounded as
/// std::complex<double>. Allocates nothing for up to 3 qubits.
void generic_kq(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi);

/// One entry of an op's matrix between two amplitudes of a group, by
/// pattern offset: amplitude `dst` gains w times amplitude `src`.
struct LocalEntry {
  index_t dst = 0;
  index_t src = 0;
  cx w;
};

/// The entries of `op`'s matrix the lane body reads, every destination
/// covered (the exact 1s the diagonal and permutation kernels skip
/// included), written to `out`; returns their count. Defined for every
/// class but GenericKQ, and for Diagonal ops on at most three qubits.
std::size_t local_entries(const CompiledOp& op, std::array<LocalEntry, 16>& out);

}  // namespace detail

template <typename V>
struct SoaKernels {
  using reg = typename V::reg;
  static constexpr index_t kW = V::width;

  /// Calls body(base, l0, lend) for each contiguous run of the groups
  /// [lo, hi): the run's amplitudes at pattern offset o are
  /// base + o + [l0, lend), whole registers long.
  template <typename Body>
  static void for_each_run(std::span<const int> qs, index_t lo, index_t hi, const Body& body) {
    const index_t run = index_t{1} << qs[0];
    index_t gate_bits = 0;
    for (const int q : qs) gate_bits |= pow2(q);
    index_t g = lo;
    index_t base = insert_zero_bits(g, qs) - (g & (run - 1));
    while (g < hi) {
      const index_t l0 = g & (run - 1);
      const index_t lend = std::min<index_t>(run, l0 + (hi - g));
      body(base, l0, lend);
      g += lend - l0;
      // The next run starts at the next index above this one's last whose
      // gate-qubit bits are all 0: carry through them, then clear them.
      base = (((base + run - 1) | gate_bits) + 1) & ~gate_bits;
    }
  }

  static void diagonal(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    if (op.diag_factors.empty()) return;  // identity
    for_each_run(op.sorted_qubits, lo, hi, [&](index_t base, index_t l0, index_t lend) {
      for (const auto& [offset, factor] : op.diag_factors) {
        const reg fr = V::set1(factor.real());
        const reg fi = V::set1(factor.imag());
        double* re = s.re + base + offset;
        double* im = s.im + base + offset;
        for (index_t l = l0; l < lend; l += kW) {
          reg nr;
          reg ni;
          V::cmul(fr, fi, V::load(re + l), V::load(im + l), nr, ni);
          V::store(re + l, nr);
          V::store(im + l, ni);
        }
      }
    });
  }

  /// The permutation body for exactly M moves, unrolled.
  template <std::size_t M>
  static void permute_moves(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    index_t src[M];
    index_t dst[M];
    bool moved_only[M];
    reg pr[M];
    reg pi[M];
    for (std::size_t i = 0; i < M; ++i) {
      src[i] = op.perm_src[i];
      dst[i] = op.perm_dst[i];
      moved_only[i] = op.perm_phase_is_one[i] != 0;
      pr[i] = V::set1(op.perm_phase[i].real());
      pi[i] = V::set1(op.perm_phase[i].imag());
    }
    for_each_run(op.sorted_qubits, lo, hi, [&](index_t base, index_t l0, index_t lend) {
      for (index_t l = base + l0; l < base + lend; l += kW) {
        reg br[M];
        reg bi[M];
        for (std::size_t i = 0; i < M; ++i) {
          br[i] = V::load(s.re + src[i] + l);
          bi[i] = V::load(s.im + src[i] + l);
        }
        for (std::size_t i = 0; i < M; ++i) {
          if (moved_only[i]) {
            V::store(s.re + dst[i] + l, br[i]);
            V::store(s.im + dst[i] + l, bi[i]);
          } else {
            reg nr;
            reg ni;
            V::cmul(pr[i], pi[i], br[i], bi[i], nr, ni);
            V::store(s.re + dst[i] + l, nr);
            V::store(s.im + dst[i] + l, ni);
          }
        }
      }
    });
  }

  static void permutation(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    switch (op.perm_dst.size()) {
      case 0: return;  // identity
      case 1: return permute_moves<1>(s, op, lo, hi);
      case 2: return permute_moves<2>(s, op, lo, hi);
      case 3: return permute_moves<3>(s, op, lo, hi);
      case 4: return permute_moves<4>(s, op, lo, hi);
      case 5: return permute_moves<5>(s, op, lo, hi);
      case 6: return permute_moves<6>(s, op, lo, hi);
      case 7: return permute_moves<7>(s, op, lo, hi);
      default: return permute_moves<8>(s, op, lo, hi);
    }
  }

  /// Shared 2x2 body: applies [[m00 m01],[m10 m11]] to the amplitude pairs
  /// (base+off0+l, base+off1+l) for l in group runs of [lo, hi).
  static void two_level(const SoaSpan& s, std::span<const int> qs, const KernelMatrix& m,
                        index_t off0, index_t off1, index_t lo, index_t hi) {
    const reg w00r = V::set1(m(0, 0).real()), w00i = V::set1(m(0, 0).imag());
    const reg w01r = V::set1(m(0, 1).real()), w01i = V::set1(m(0, 1).imag());
    const reg w10r = V::set1(m(1, 0).real()), w10i = V::set1(m(1, 0).imag());
    const reg w11r = V::set1(m(1, 1).real()), w11i = V::set1(m(1, 1).imag());
    for_each_run(qs, lo, hi, [&](index_t base, index_t l0, index_t lend) {
      double* r0 = s.re + base + off0;
      double* i0 = s.im + base + off0;
      double* r1 = s.re + base + off1;
      double* i1 = s.im + base + off1;
      for (index_t l = l0; l < lend; l += kW) {
        const reg a0r = V::load(r0 + l), a0i = V::load(i0 + l);
        const reg a1r = V::load(r1 + l), a1i = V::load(i1 + l);
        reg nr;
        reg ni;
        V::cmul(w00r, w00i, a0r, a0i, nr, ni);  // m00 * a0 + m01 * a1
        V::cmac(w01r, w01i, a1r, a1i, nr, ni);
        V::store(r0 + l, nr);
        V::store(i0 + l, ni);
        V::cmul(w10r, w10i, a0r, a0i, nr, ni);  // m10 * a0 + m11 * a1
        V::cmac(w11r, w11i, a1r, a1i, nr, ni);
        V::store(r1 + l, nr);
        V::store(i1 + l, ni);
      }
    });
  }

  static void controlled_1q(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    two_level(s, op.sorted_qubits, op.matrix, op.control_mask,
              op.control_mask | op.target_mask, lo, hi);
  }

  static void generic_1q(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    two_level(s, op.sorted_qubits, op.matrix, 0, pow2(op.qubits[0]), lo, hi);
  }

  static void generic_2q(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    const index_t off[4] = {0, pow2(op.qubits[0]), pow2(op.qubits[1]),
                            pow2(op.qubits[0]) | pow2(op.qubits[1])};
    double mr[4][4];
    double mi[4][4];
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        mr[r][c] = op.matrix(r, c).real();
        mi[r][c] = op.matrix(r, c).imag();
      }
    }
    for_each_run(op.sorted_qubits, lo, hi, [&](index_t base, index_t l0, index_t lend) {
      for (index_t l = l0; l < lend; l += kW) {
        reg ar[4];
        reg ai[4];
        for (std::size_t c = 0; c < 4; ++c) {
          ar[c] = V::load(s.re + base + off[c] + l);
          ai[c] = V::load(s.im + base + off[c] + l);
        }
        for (std::size_t r = 0; r < 4; ++r) {
          reg nr = V::zero();  // acc = 0; acc += m(r, c) * a[c]
          reg ni = V::zero();
          for (std::size_t c = 0; c < 4; ++c) {
            V::cmac(V::set1(mr[r][c]), V::set1(mi[r][c]), ar[c], ai[c], nr, ni);
          }
          V::store(s.re + base + off[r] + l, nr);
          V::store(s.im + base + off[r] + l, ni);
        }
      }
    });
  }

  /// An op on the lanes of whole registers. A register set is the
  /// registers at base + out_offset[o] for every output o, base aligned to
  /// a register; output o is the sum over slots j with used[o][j] of a
  /// per-lane coefficient vector w[o][j] times slot j, the register at
  /// base + slot_offset[j] with lane l holding its lane l ^ slot_x[j]. A
  /// register every one of whose lanes the op leaves unchanged is no output.
  struct LaneProgram {
    static constexpr std::size_t kMaxOutputs = 4;  // k <= 3 with a qubit inside the register
    static constexpr std::size_t kMaxSlots = 8;    // (source register, lane xor) pairs

    alignas(64) double wr[kMaxOutputs][kMaxSlots][kW];
    alignas(64) double wi[kMaxOutputs][kMaxSlots][kW];
    bool used[kMaxOutputs][kMaxSlots] = {};
    index_t out_offset[kMaxOutputs] = {};
    std::size_t num_outputs = 0;
    index_t slot_offset[kMaxSlots] = {};
    index_t slot_x[kMaxSlots] = {};
    std::size_t num_slots = 0;
    int low_qubits = 0;  // op qubits inside a register

    explicit LaneProgram(const CompiledOp& op) {
      std::array<detail::LocalEntry, 16> entries;
      const std::size_t count = detail::local_entries(op, entries);
      constexpr index_t kLanes = kW - 1;
      index_t low = 0;
      for (const int q : op.sorted_qubits) {
        if (pow2(q) < kW) low |= pow2(q);
      }
      low_qubits = std::popcount(low);
      for (std::size_t first = 0; first < count; ++first) {
        const index_t dh = entries[first].dst & ~kLanes;
        bool seen = false;
        bool untouched = true;
        for (std::size_t e = 0; e < count; ++e) {
          if ((entries[e].dst & ~kLanes) != dh) continue;
          seen = seen || e < first;
          untouched = untouched && entries[e].src == entries[e].dst && entries[e].w == cx{1.0, 0.0};
        }
        if (seen || untouched) continue;  // done already, or the register stays as it is
        const std::size_t o = num_outputs++;
        out_offset[o] = dh;
        for (std::size_t e = 0; e < count; ++e) {
          const detail::LocalEntry& entry = entries[e];
          if ((entry.dst & ~kLanes) != dh) continue;
          const index_t src = entry.src & ~kLanes;
          const index_t x = (entry.dst ^ entry.src) & kLanes;
          std::size_t j = 0;
          while (j < num_slots && (slot_offset[j] != src || slot_x[j] != x)) ++j;
          if (j == num_slots) {
            ++num_slots;
            slot_offset[j] = src;
            slot_x[j] = x;
          }
          if (!used[o][j]) {
            used[o][j] = true;
            std::fill(wr[o][j], wr[o][j] + kW, 0.0);
            std::fill(wi[o][j], wi[o][j] + kW, 0.0);
          }
          for (index_t l = 0; l < kW; ++l) {
            if ((l & low) != (entry.dst & kLanes)) continue;
            wr[o][j][l] = entry.w.real();
            wi[o][j][l] = entry.w.imag();
          }
        }
      }
    }
  };

  /// The lane body for at most O outputs and S slots, its loops unrolled
  /// so the slots and coefficients stay in registers.
  template <std::size_t O, std::size_t S>
  static void lane_sets(const SoaSpan& s, const LaneProgram& p, const CompiledOp& op,
                        index_t lo, index_t hi) {
    reg wr[O][S];
    reg wi[O][S];
    for (std::size_t o = 0; o < O; ++o) {
      for (std::size_t j = 0; j < S; ++j) {
        wr[o][j] = p.used[o][j] ? V::load(p.wr[o][j]) : V::zero();
        wi[o][j] = p.used[o][j] ? V::load(p.wi[o][j]) : V::zero();
      }
    }
    typename V::perm perm[S];
    for (std::size_t j = 0; j < S; ++j) perm[j] = V::lane_xor(p.slot_x[j]);
    // A register set holds 2^shift consecutive groups: the lane bits that
    // are no op qubit.
    const int shift = std::countr_zero(kW) - p.low_qubits;
    index_t gate_bits = 0;
    for (const int q : op.sorted_qubits) gate_bits |= pow2(q);
    index_t base = insert_zero_bits(lo, op.sorted_qubits);
    for (index_t set = lo >> shift; set < hi >> shift; ++set) {
      reg inr[S];
      reg ini[S];
      for (std::size_t j = 0; j < S; ++j) {
        inr[j] = j < p.num_slots ? V::load(s.re + base + p.slot_offset[j]) : V::zero();
        ini[j] = j < p.num_slots ? V::load(s.im + base + p.slot_offset[j]) : V::zero();
        if (p.slot_x[j] != 0) {
          inr[j] = V::permute(inr[j], perm[j]);
          ini[j] = V::permute(ini[j], perm[j]);
        }
      }
      for (std::size_t o = 0; o < O && o < p.num_outputs; ++o) {
        reg nr = V::zero();
        reg ni = V::zero();
        for (std::size_t j = 0; j < S; ++j) {
          if (p.used[o][j]) V::cmac(wr[o][j], wi[o][j], inr[j], ini[j], nr, ni);
        }
        V::store(s.re + base + p.out_offset[o], nr);
        V::store(s.im + base + p.out_offset[o], ni);
      }
      // The next set's base: carry past this set's last index and the
      // gate-qubit bits, as for_each_run steps its runs.
      base = (((base + kW - 1) | gate_bits) + 1) & ~gate_bits;
    }
  }

  static void lanes(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    const LaneProgram p(op);
    if (p.num_outputs == 0) return;
    using Body = void (*)(const SoaSpan&, const LaneProgram&, const CompiledOp&, index_t, index_t);
    static constexpr Body kBodies[3][3] = {
        {&lane_sets<1, 2>, &lane_sets<1, 4>, &lane_sets<1, 8>},
        {&lane_sets<2, 2>, &lane_sets<2, 4>, &lane_sets<2, 8>},
        {&lane_sets<4, 2>, &lane_sets<4, 4>, &lane_sets<4, 8>},
    };
    const auto bound = [](std::size_t n, std::size_t small) {
      return n <= small ? 0 : n <= 2 * small ? 1 : 2;
    };
    kBodies[bound(p.num_outputs, 1)][bound(p.num_slots, 2)](s, p, op, lo, hi);
  }

  /// The table entry of a run body: ops whose runs fill whole registers
  /// run it; the rest take the lane body, or the width-1 tier where the
  /// span is narrower than a register or a diagonal op spans more than
  /// three qubits.
  template <void (*Body)(const SoaSpan&, const CompiledOp&, index_t, index_t)>
  static void dispatch(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    if constexpr (kW > 1) {
      if (pow2(op.sorted_qubits[0]) < kW) {
        if (s.dim >= kW && op.qubits.size() <= 3) {
          lanes(s, op, lo, hi);
        } else {
          kernel_table(IsaLevel::Scalar).fns[static_cast<std::size_t>(op.cls)](s, op, lo, hi);
        }
        return;
      }
    }
    Body(s, op, lo, hi);
  }

  [[nodiscard]] static KernelTable table() {
    KernelTable t;
    t.fns[static_cast<std::size_t>(KernelClass::Diagonal)] = &dispatch<&diagonal>;
    t.fns[static_cast<std::size_t>(KernelClass::Permutation)] = &dispatch<&permutation>;
    t.fns[static_cast<std::size_t>(KernelClass::Controlled1Q)] = &dispatch<&controlled_1q>;
    t.fns[static_cast<std::size_t>(KernelClass::Generic1Q)] = &dispatch<&generic_1q>;
    t.fns[static_cast<std::size_t>(KernelClass::Generic2Q)] = &dispatch<&generic_2q>;
    t.fns[static_cast<std::size_t>(KernelClass::GenericKQ)] = &detail::generic_kq;
    return t;
  }
};

}  // namespace qcut::sim::simd
