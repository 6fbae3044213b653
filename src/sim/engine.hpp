#pragma once
// Gate-kernel engine: specialized, fused, threaded statevector simulation.
//
// Every fragment variant a cut produces (6^Kin * 3^Kout per fragment)
// funnels into the statevector simulator, so the innermost gate loop
// decides end-to-end cutting runtime. The engine classifies each operation
// ONCE into a kernel class and dispatches to loops that skip the zero-heavy
// dense arithmetic of the generic apply_matrix path:
//
//   * Diagonal     — Z/S/T/P/RZ/CZ/CP/CRZ/RZZ and diagonal Customs: one
//                    complex multiply per affected amplitude, and entries
//                    exactly equal to 1 are skipped entirely (a CZ touches a
//                    quarter of the state, a T gate half);
//   * Permutation  — X/Y/CX/CY/SWAP/ISwap/CCX/CSWAP and permutation-shaped
//                    Customs: an index shuffle (optionally phased), no
//                    matrix arithmetic at all;
//   * Controlled1Q — CH/CRX/CRY and controlled-shaped Customs that are
//                    neither diagonal nor permutations: a 2x2 applied to the
//                    half of the state where the control bit is set;
//   * Generic1Q/2Q/KQ — dense fallback, arithmetic identical to
//                    StateVector::apply_matrix.
//
// One kernel set, one state layout: a compiled circuit applies to a split
// real/imag SoAState (sim/soa_state.hpp) through one kernel table of
// sim/simd_kernels.hpp. By default that is the width-1 tier, which rounds
// each complex product and sum as std::complex<double> does, so the
// specialized kernels are BIT-FOR-BIT identical to the generic path: they
// perform the same multiplications the dense loop performs after dropping
// terms whose coefficient is exactly 0 (and factors exactly 1), which
// cannot change the VALUE of any double under IEEE arithmetic — only the
// sign of a zero can differ (x + 0*a can turn -0.0 into +0.0), which ==
// comparisons, probabilities (the squares drop the sign), counts, and cache
// keys cannot observe (tests/sim_kernel_test.cpp gates this). Gate fusion
// (circuit::GateFusion) is the one knob allowed to deviate — fused matrices
// are floating-point products, deviation well under 1e-12 — so it is a
// result-affecting option that backends fold into their cache identity
// (see backend::Backend::identity()).
//
// Threading: for states with at least `threading_threshold_qubits` qubits,
// kernels split their amplitude loops into chunks on a parallel::ThreadPool.
// Every kernel loop is element-wise independent (no cross-chunk reductions),
// so results are bit-for-bit identical at ANY thread count, including 1.
// Threading disengages automatically on pool worker threads (a nested
// parallel wait could deadlock a saturated pool), and below a per-segment
// work threshold (`min_parallel_work`) where pool dispatch would cost more
// than the kernel itself.
//
// SIMD: with EngineOptions::simd the same kernel bodies run at the AVX2 or
// AVX-512 width, dispatched at runtime. FMA contraction changes roundings,
// so the SIMD tiers are NOT bit-for-bit with the width-1 tier — they match
// within 1e-12 per amplitude and are a result-affecting knob that backends
// fold into their cache identity, exactly like fusion. When the build or
// the CPU lacks AVX2 the flag quietly keeps the width-1 tier (isa() ==
// IsaLevel::Scalar), preserving default-off semantics.
//
// Cache blocking: runs of at least two consecutive ops whose qubits all lie
// below `cache_block_qubits` are applied block-by-block — every 2^B-sized
// amplitude block is walked through the whole run while L2-resident instead
// of one full-state sweep per op. Each op's amplitude groups fall entirely
// inside one block, so the per-amplitude arithmetic sequence is unchanged:
// blocking is bit-for-bit neutral by construction (and therefore NOT part
// of the cache identity).

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/optimize.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/statevector.hpp"

namespace qcut::sim {

class SoAState;

/// Instruction-set level a compiled circuit's kernels execute at. Scalar is
/// the bit-exact width-1 tier; Avx2/Avx512 are the FMA-contracted SIMD tiers.
enum class IsaLevel {
  Scalar,
  Avx2,
  Avx512,
};

/// Lower-case ISA mnemonic ("scalar", "avx2", "avx512").
[[nodiscard]] std::string isa_level_name(IsaLevel isa);

struct EngineOptions {
  /// Classify operations and dispatch to specialized kernels. Bit-for-bit
  /// identical to the generic path; disable only to time or test it.
  bool specialize = true;

  /// Run circuit::GateFusion before classification. Results may deviate
  /// from the unfused circuit by floating-point rounding (well under
  /// 1e-12); backends expose this knob in their cache identity.
  bool fuse = true;

  /// Execute the kernels at vector width (AVX2, or AVX-512 where the CPU
  /// has it). FMA contraction makes this deviate from the width-1 tier by
  /// floating-point rounding (within 1e-12 per amplitude); backends fold
  /// the dispatched ISA into their cache identity. Keeps the bit-exact
  /// width-1 tier when the build (CMake QCUT_SIMD) or the CPU lacks AVX2.
  bool simd = false;

  /// Thread kernel loops over amplitude chunks for states with at least
  /// this many qubits. 27 (above the 26-qubit width cap) disables
  /// threading. Bit-for-bit identical at any thread count.
  int threading_threshold_qubits = 14;

  /// Skip the pool entirely for segments whose work estimate
  /// (ops x amplitudes) falls below this: small-state/many-gate circuits
  /// would otherwise pay pool dispatch latency per op for kernels that
  /// finish faster than the submit. Bit-for-bit neutral by construction
  /// (threading never affects results at any grain).
  std::uint64_t min_parallel_work = 16384;

  /// Apply runs of >= 2 consecutive ops whose qubits all lie below this
  /// many qubits block-by-block (one 2^B-amplitude block walked through the
  /// whole run while cache-resident). 0 disables blocking. Bit-for-bit
  /// neutral by construction.
  int cache_block_qubits = 14;

  /// Pool for kernel-level threading; nullptr selects the global pool.
  parallel::ThreadPool* pool = nullptr;

  /// The reference configuration: dense generic kernels for every gate, no
  /// fusion, no threading, no blocking. The engine gate's baseline
  /// (bench/micro_simulator).
  [[nodiscard]] static EngineOptions generic() {
    EngineOptions options;
    options.specialize = false;
    options.fuse = false;
    options.threading_threshold_qubits = 27;
    options.cache_block_qubits = 0;
    return options;
  }
};

enum class KernelClass {
  Diagonal,
  Permutation,
  Controlled1Q,
  Generic1Q,
  Generic2Q,
  GenericKQ,
};

/// Lower-case kernel-class mnemonic ("diagonal", "permutation", ...).
[[nodiscard]] std::string kernel_class_name(KernelClass cls);

/// A kernel's square matrix, row-major: inline up to 4x4 (every one- and
/// two-qubit kernel), on the heap beyond (GenericKQ).
class KernelMatrix {
 public:
  KernelMatrix() = default;
  explicit KernelMatrix(linalg::SquareView m)
      : entries_(std::span<const cx>(m.entries, m.dim * m.dim)), dim_(m.dim) {}

  [[nodiscard]] std::size_t rows() const noexcept { return dim_; }
  [[nodiscard]] std::size_t cols() const noexcept { return dim_; }
  [[nodiscard]] const cx& operator()(std::size_t r, std::size_t c) const noexcept {
    return entries_[r * dim_ + c];
  }

 private:
  circuit::InlineList<cx, 16> entries_;
  std::size_t dim_ = 0;
};

/// A diagonal kernel's (scattered qubit offset, factor) pair.
struct DiagFactor {
  index_t offset = 0;
  cx factor;
};

/// One classified operation with its precomputed kernel data. Its lists
/// hold up to 8 entries inline and its matrix up to 4x4, so every named gate
/// and every Custom block on one or two qubits compiles without the heap;
/// only Custom blocks on three or more qubits may spill (GenericKQ's matrix
/// and pattern offsets, a wide diagonal's factors).
struct CompiledOp {
  KernelClass cls = KernelClass::GenericKQ;
  circuit::QubitList qubits;         // as listed on the source operation
  circuit::QubitList sorted_qubits;  // ascending, for group enumeration

  // Generic classes: the dense matrix. Controlled1Q: the 2x2 target matrix.
  KernelMatrix matrix;

  // Diagonal: (scattered qubit offset, factor) for every diagonal entry
  // with factor != 1 exactly; entries equal to 1 are skipped.
  circuit::InlineList<DiagFactor, 8> diag_factors;

  // Permutation: destination/source scattered offsets and phases for every
  // local pattern that moves or picks up a phase; fixed points with phase
  // exactly 1 are skipped. phase_is_one[m] marks pure moves (no multiply).
  // GenericKQ reuses perm_dst as the scatter offsets of all 2^k patterns.
  circuit::InlineList<index_t, 8> perm_dst;
  circuit::InlineList<index_t, 8> perm_src;
  circuit::InlineList<cx, 8> perm_phase;
  circuit::InlineList<char, 8> perm_phase_is_one;

  // Controlled1Q masks.
  index_t control_mask = 0;
  index_t target_mask = 0;
};

/// A circuit compiled for the engine: operations classified once, ready to
/// apply to any SoAState of the same width. Immutable after compilation
/// and safe to apply concurrently to distinct states.
class CompiledCircuit {
 public:
  /// A contiguous run of compiled ops with one application strategy. A
  /// blocked segment (>= 2 ops, all qubits below cache_block_qubits) walks
  /// each 2^B-amplitude block through the whole run while cache-resident;
  /// an unblocked segment is a single op swept over the full state.
  struct Segment {
    std::size_t begin = 0;
    std::size_t end = 0;
    bool blocked = false;
  };

  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] std::size_t num_ops() const noexcept { return ops_.size(); }
  [[nodiscard]] KernelClass kernel_class(std::size_t i) const { return ops_.at(i).cls; }
  [[nodiscard]] std::span<const CompiledOp> compiled_ops() const noexcept { return ops_; }
  [[nodiscard]] std::span<const Segment> segments() const noexcept { return segments_; }

  /// The kernel tier dispatched at compile time: Scalar (width 1) unless
  /// options.simd is set, the build has QCUT_SIMD, and the CPU supports at
  /// least AVX2.
  [[nodiscard]] IsaLevel isa() const noexcept { return isa_; }

  /// Gates absorbed by the fusion pass over the whole circuit (zero when
  /// compiled without fusion, and for a stream cut at a fusion frontier).
  [[nodiscard]] const circuit::FusionStats& fusion_stats() const noexcept {
    return fusion_stats_;
  }

  /// Applies every compiled operation in order through the kernel table of
  /// isa().
  void apply(SoAState& state) const;

 private:
  friend CompiledCircuit compile_ops(std::span<const circuit::Operation>, int,
                                     const EngineOptions&);
  friend CompiledCircuit compile_fused(std::span<const circuit::FusedOp>,
                                       std::span<const circuit::Operation>, int,
                                       const EngineOptions&, const circuit::FusionStats*);

  /// `count` ops, op i filled in place by classify(i, op), then the apply plan.
  template <typename Classify>
  static CompiledCircuit build(std::size_t count, int num_qubits, const EngineOptions& options,
                               const Classify& classify);

  int num_qubits_ = 0;
  EngineOptions options_{};
  IsaLevel isa_ = IsaLevel::Scalar;
  std::vector<CompiledOp> ops_;
  std::vector<Segment> segments_;
  circuit::FusionStats fusion_stats_{};
};

/// Classifies an operation list as-is (no fusion — callers that fuse run
/// circuit::GateFusion first and compile its stream with compile_fused).
[[nodiscard]] CompiledCircuit compile_ops(std::span<const circuit::Operation> ops,
                                          int num_qubits, const EngineOptions& options = {});

/// Classifies a fused stream: the entries circuit::GateFusion emitted while
/// `source` (the ops pushed, in order) went through it. Entries on one or
/// two wires compile from their inline unitaries, wider ones from their
/// source op. `fusion` is the scan's stats after a whole circuit of
/// source.size() ops — the program records them, and the process-wide
/// fusion counters move as for compile_circuit — or nullptr for a stream
/// cut at a fusion frontier (the statevector backend's shared prefix), which
/// records no fusion. The backend forks a suffix off that frontier so that
/// settled prefix + member tail is exactly the stream a standalone
/// full-circuit compile classifies.
[[nodiscard]] CompiledCircuit compile_fused(std::span<const circuit::FusedOp> stream,
                                            std::span<const circuit::Operation> source,
                                            int num_qubits, const EngineOptions& options,
                                            const circuit::FusionStats* fusion);

/// Fuses (when options.fuse) and classifies a whole circuit.
[[nodiscard]] CompiledCircuit compile_circuit(const circuit::Circuit& circuit,
                                              const EngineOptions& options = {});

}  // namespace qcut::sim
