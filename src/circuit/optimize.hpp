#pragma once
// Peephole circuit optimization.
//
// Fragment variants re-execute the same fragment thousands of times, so
// shaving gates off once pays for itself immediately. The passes are
// strictly unitary-preserving (exactly, including global phase):
//   * drop identity gates;
//   * cancel adjacent self-inverse pairs on identical qubit lists;
//   * merge adjacent same-axis rotations on the same qubits
//     (RX/RY/RZ/P/CRX/CRY/CRZ/CP/RXX/RYY/RZZ), dropping the result when the
//     merged angle is 0 mod 4*pi (rotations are 4*pi-periodic as matrices).

#include <array>
#include <cstddef>
#include <vector>

#include "circuit/circuit.hpp"
#include "linalg/matrix.hpp"

namespace qcut::circuit {

struct OptimizeStats {
  std::size_t removed_identities = 0;
  std::size_t cancelled_pairs = 0;
  std::size_t merged_rotations = 0;

  [[nodiscard]] std::size_t total_removed() const noexcept {
    return removed_identities + 2 * cancelled_pairs + merged_rotations;
  }
};

/// Applies the peephole passes to a fixed point. The returned circuit
/// implements exactly the same unitary (including global phase).
[[nodiscard]] Circuit optimize(const Circuit& circuit, OptimizeStats* stats = nullptr);

// ---- Gate fusion ------------------------------------------------------------
//
// Fusion merges runs of adjacent single-qubit gates into one 2x2 matrix,
// folds pending single-qubit gates into the next dense two-qubit gate
// touching the same wire, and chains dense two-qubit gates on the same wire
// pair into one 4x4, shrinking the op stream the simulator walks. Gates
// whose matrix is a (phased) permutation or diagonal - CX/CZ/CY/SWAP/ISwap/
// CP/CRZ/RZZ - never absorb anything: the simulator runs those as index
// shuffles or per-amplitude multiplies (sim/engine.hpp), and a dense fused
// 4x4 would forfeit far more arithmetic than the saved memory pass regains;
// such a gate in the middle of a chain flushes it and is emitted verbatim.
// Chains never grow past two wires: a dense gate sharing one wire with a
// pending chain flushes it.
//
// Unlike the peephole passes above fusion is only *numerically*
// unitary-preserving: the fused matrices are floating-point products of the
// originals, so a fused circuit may deviate from the original by rounding
// (well under 1e-12 for realistic depths). Consumers that promise
// bit-for-bit results must treat fusion as a result-affecting knob (see
// sim::EngineOptions and the fragment-cache identity).

struct FusionStats {
  std::size_t merged_1q_gates = 0;   // 1q gates absorbed into a fused 2x2
  std::size_t folded_1q_gates = 0;   // 1q gates folded into a 2q matrix
  std::size_t merged_2q_gates = 0;   // 2q gates absorbed into a pending chain

  /// Source gates absorbed into fused products.
  [[nodiscard]] std::size_t absorbed() const noexcept {
    return merged_1q_gates + folded_1q_gates + merged_2q_gates;
  }
};

/// One operation of the fused stream GateFusion emits. An op that absorbed
/// nothing is passed through by its position in the pushed stream, so a
/// caller holding the source ops can emit it verbatim; a fused product has
/// no source. Every entry on one or two wires also carries its unitary
/// inline (the product, or the passed-through op's own matrix), which is
/// all the simulator needs to classify it; a wider op is always passed
/// through, and its matrix is read from the source op.
struct FusedOp {
  static constexpr std::size_t kProduct = static_cast<std::size_t>(-1);

  std::size_t source = kProduct;  // push index of the op passed through
  QubitList qubits;               // first listed = LSB of the matrix index
  std::array<cx, 16> entries{};   // row-major, 2^wires square (1-2 wires)

  /// The unitary of an entry on one or two wires.
  [[nodiscard]] linalg::SquareView unitary() const noexcept {
    return {entries.data(), std::size_t{1} << qubits.size()};
  }
};

/// Streaming gate-fusion scan. Its pending runs, chains and their products
/// live inline, so a scan and its copies never touch the heap.
///
/// push() consumes one operation and appends the entries whose fusion is
/// *settled* — no operation pushed later could merge into them — to `out`;
/// flush() emits the still-pending tail. The class is copyable, and the
/// stream property holds by construction: for any split A|B of an op list,
///   push(A) -> settled(A);  copy;  push(B); flush() -> tail
/// emits exactly the sequence push(A+B); flush() would. The statevector
/// backend's shared-prefix batch path relies on this to fuse a forked
/// suffix bit-for-bit identically to a standalone full-circuit fusion.
class GateFusion {
 public:
  explicit GateFusion(int num_qubits);

  /// Consumes `op`, the next op of the stream; appends settled entries to `out`.
  void push(const Operation& op, std::vector<FusedOp>& out);

  /// Emits the pending tail (ascending minimum-wire order) and resets the scan.
  void flush(std::vector<FusedOp>& out);

  [[nodiscard]] const FusionStats& stats() const noexcept { return stats_; }

 private:
  struct Pending {
    linalg::Mat2 matrix;    // accumulated 2x2 product (later gates on the left)
    std::size_t first = 0;  // push index of the run's first op, passed through for runs of 1
    std::size_t length = 0;
  };

  /// A pending two-qubit chain. Matrix bit j (LSB = bit 0 of the row and
  /// column index) corresponds to wire qubits[j]. Invariant: no wire in
  /// `qubits` has a nonempty Pending slot — 1q gates on a chained wire fold
  /// into the block.
  struct PendingBlock {
    linalg::Mat4 matrix;    // 4x4 product (later gates on the left)
    std::array<int, 2> qubits{};
    std::size_t first = 0;  // push index of the opening gate, passed through alone
    std::size_t ops = 0;    // source 2q gates absorbed
    bool dirty = false;     // true once the matrix differs from the opening gate's
  };

  void flush_qubit(int q, std::vector<FusedOp>& out);
  void flush_block(std::size_t index, std::vector<FusedOp>& out);
  void flush_wire(int q, std::vector<FusedOp>& out);
  void push_1q(const Operation& op, std::size_t index);
  void push_2q(const Operation& op, std::size_t index, std::vector<FusedOp>& out);
  [[nodiscard]] int block_on(int q) const noexcept;

  int num_qubits_;
  std::size_t pushed_ = 0;  // ops pushed so far
  std::array<Pending, Circuit::kMaxQubits> pending_{};  // per wire; length == 0 means empty
  std::array<PendingBlock, Circuit::kMaxQubits / 2> blocks_{};  // pairwise wire-disjoint
  std::size_t num_blocks_ = 0;
  FusionStats stats_;
};

/// Applies gate fusion to a whole circuit (push every op, then flush).
[[nodiscard]] Circuit fuse_gates(const Circuit& circuit, FusionStats* stats = nullptr);

}  // namespace qcut::circuit
