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

#include "circuit/circuit.hpp"

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
};

/// Streaming gate-fusion scan.
///
/// push() consumes one operation and appends any operations whose fusion is
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

  /// Consumes `op`; appends settled operations to `out`.
  void push(const Operation& op, std::vector<Operation>& out);

  /// Emits the pending tail (ascending minimum-wire order) and resets the scan.
  void flush(std::vector<Operation>& out);

  [[nodiscard]] const FusionStats& stats() const noexcept { return stats_; }

 private:
  struct Pending {
    CMat matrix;          // accumulated 2x2 product (later gates on the left)
    Operation first;      // the run's first op, emitted verbatim for runs of 1
    std::size_t length = 0;
  };

  /// A pending two-qubit chain. Matrix bit j (LSB = bit 0 of the row and
  /// column index) corresponds to wire qubits[j]. Invariant: no wire in
  /// `qubits` has a nonempty Pending slot — 1q gates on a chained wire fold
  /// into the block.
  struct PendingBlock {
    CMat matrix;          // 4x4 product (later gates on the left)
    std::vector<int> qubits;
    Operation first;      // emitted verbatim when the block absorbed nothing
    std::size_t ops = 0;  // source 2q gates absorbed
    bool dirty = false;   // true once the matrix differs from first.matrix()
  };

  void flush_qubit(int q, std::vector<Operation>& out);
  void flush_block(std::size_t index, std::vector<Operation>& out);
  void flush_wire(int q, std::vector<Operation>& out);
  void push_1q(const Operation& op);
  void push_2q(const Operation& op, std::vector<Operation>& out);
  [[nodiscard]] int block_on(int q) const noexcept;

  std::vector<Pending> pending_;  // one slot per qubit; length == 0 means empty
  std::vector<PendingBlock> blocks_;  // pairwise wire-disjoint
  FusionStats stats_;
};

/// Applies gate fusion to a whole circuit (push every op, then flush).
[[nodiscard]] Circuit fuse_gates(const Circuit& circuit, FusionStats* stats = nullptr);

}  // namespace qcut::circuit
