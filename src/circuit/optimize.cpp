#include "circuit/optimize.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <span>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "linalg/ops.hpp"

namespace qcut::circuit {

namespace {

constexpr double kFourPi = 4.0 * std::numbers::pi;
constexpr double kAngleTol = 1e-12;

bool is_rotation(GateKind kind) {
  switch (kind) {
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::P:
    case GateKind::CRX:
    case GateKind::CRY:
    case GateKind::CRZ:
    case GateKind::CP:
    case GateKind::RXX:
    case GateKind::RYY:
    case GateKind::RZZ:
      return true;
    default:
      return false;
  }
}

/// Period of the rotation as a matrix: phase gates (P, CP) repeat at 2*pi,
/// half-angle rotations at 4*pi.
double rotation_period(GateKind kind) {
  return (kind == GateKind::P || kind == GateKind::CP) ? 2.0 * std::numbers::pi : kFourPi;
}

bool is_self_inverse(GateKind kind) {
  switch (kind) {
    case GateKind::X:
    case GateKind::Y:
    case GateKind::Z:
    case GateKind::H:
    case GateKind::CX:
    case GateKind::CY:
    case GateKind::CZ:
    case GateKind::CH:
    case GateKind::SWAP:
    case GateKind::CCX:
    case GateKind::CSWAP:
      return true;
    default:
      return false;
  }
}

/// Inverse-pair table for non-self-inverse named gates.
bool are_inverse_kinds(GateKind a, GateKind b) {
  const auto matches = [&](GateKind x, GateKind y) {
    return (a == x && b == y) || (a == y && b == x);
  };
  return matches(GateKind::S, GateKind::Sdg) || matches(GateKind::T, GateKind::Tdg) ||
         matches(GateKind::SX, GateKind::SXdg);
}

/// True if two ops act on identical qubit lists (same order).
bool same_qubits(const Operation& a, const Operation& b) { return a.qubits == b.qubits; }

/// For symmetric two-qubit gates the qubit order does not matter.
bool is_symmetric_gate(GateKind kind) {
  switch (kind) {
    case GateKind::CZ:
    case GateKind::CP:
    case GateKind::SWAP:
    case GateKind::RXX:
    case GateKind::RYY:
    case GateKind::RZZ:
      return true;
    default:
      return false;
  }
}

bool same_qubit_set(const Operation& a, const Operation& b) {
  if (same_qubits(a, b)) return true;
  if (a.qubits.size() != 2 || b.qubits.size() != 2) return false;
  return is_symmetric_gate(a.kind) && a.qubits[0] == b.qubits[1] && a.qubits[1] == b.qubits[0];
}

/// A single fixed-point-free pass; returns true if anything changed.
bool pass_once(std::vector<Operation>& ops, OptimizeStats& stats) {
  bool changed = false;
  std::vector<Operation> out;
  out.reserve(ops.size());

  for (Operation& op : ops) {
    // Drop identity gates.
    if (op.kind == GateKind::I) {
      ++stats.removed_identities;
      changed = true;
      continue;
    }
    // Drop zero-angle rotations.
    if (is_rotation(op.kind)) {
      const double period = rotation_period(op.kind);
      const double reduced = std::remainder(op.params[0], period);
      if (std::abs(reduced) < kAngleTol) {
        ++stats.merged_rotations;
        changed = true;
        continue;
      }
    }

    if (!out.empty()) {
      const Operation& prev = out.back();
      // Cancel adjacent inverse pairs. (Rotation merging happens in the
      // caller's dedicated loop, which has access to both angles.)
      const bool self_inverse_pair =
          is_self_inverse(op.kind) && prev.kind == op.kind && same_qubit_set(prev, op);
      const bool named_inverse_pair =
          are_inverse_kinds(prev.kind, op.kind) && same_qubits(prev, op);
      if (self_inverse_pair || named_inverse_pair) {
        out.pop_back();
        ++stats.cancelled_pairs;
        changed = true;
        continue;
      }
    }
    out.push_back(std::move(op));
  }
  ops = std::move(out);
  return changed;
}

}  // namespace

Circuit optimize(const Circuit& circuit, OptimizeStats* stats) {
  OptimizeStats local;
  std::vector<Operation> ops(circuit.ops().begin(), circuit.ops().end());

  // Rotation merging needs the previous op's angle; handle it here with a
  // dedicated loop (pass_once handles drops and cancellations).
  bool changed = true;
  while (changed) {
    changed = false;

    // Merge same-axis rotation runs.
    std::vector<Operation> merged;
    merged.reserve(ops.size());
    for (Operation& op : ops) {
      if (!merged.empty() && is_rotation(op.kind) && merged.back().kind == op.kind &&
          same_qubit_set(merged.back(), op)) {
        const double period = rotation_period(op.kind);
        const double angle =
            std::remainder(merged.back().params[0] + op.params[0], period);
        Operation combined;
        combined.kind = op.kind;
        combined.qubits = merged.back().qubits;
        combined.params = {angle};
        merged.back() = std::move(combined);
        ++local.merged_rotations;
        changed = true;
        continue;
      }
      merged.push_back(std::move(op));
    }
    ops = std::move(merged);

    if (pass_once(ops, local)) changed = true;
  }

  Circuit out(circuit.num_qubits());
  for (Operation& op : ops) {
    if (op.kind == GateKind::Custom) {
      out.append_custom(op.custom, op.qubits, op.label);
    } else {
      out.append(op.kind, op.qubits, op.params);
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

// ---- Gate fusion ------------------------------------------------------------

namespace {

using linalg::Mat2;
using linalg::Mat4;

/// A one-qubit op's unitary (`op.custom` for a Custom block).
Mat2 matrix_1q(const Operation& op) {
  return op.kind == GateKind::Custom ? Mat2(op.custom.view())
                                     : gate_matrix_1q(op.kind, op.params);
}

/// A two-qubit op's unitary (`op.custom` for a Custom block).
Mat4 matrix_2q(const Operation& op) {
  return op.kind == GateKind::Custom ? Mat4(op.custom.view())
                                     : gate_matrix_2q(op.kind, op.params);
}

/// 4x4 matrix applying the 2x2 `p` to local bit `pos` (tensored with the
/// identity on the other bit). kron's second factor is the low bit.
Mat4 expand_1q_to_2q(const Mat2& p, int pos) {
  return pos == 0 ? linalg::kron(Mat2::identity(), p) : linalg::kron(p, Mat2::identity());
}

/// Embeds the N x N `m` (acting on `op_qubits`, bit j of its index =
/// op_qubits[j]) into the index space of the two wires `block_qubits` (a
/// superset), tensoring with the identity on the remaining wire.
template <std::size_t N>
Mat4 embed_in_block(const linalg::FixedMat<N>& m, std::span<const int> op_qubits,
                    std::span<const int> block_qubits) {
  std::array<int, 2> pos{};
  index_t inner_mask = 0;
  for (std::size_t j = 0; j < op_qubits.size(); ++j) {
    const auto it = std::find(block_qubits.begin(), block_qubits.end(), op_qubits[j]);
    pos[j] = static_cast<int>(it - block_qubits.begin());
    inner_mask |= pow2(pos[j]);
  }
  const std::span<const int> op_pos(pos.data(), op_qubits.size());
  Mat4 out;
  for (index_t r = 0; r < 4; ++r) {
    const index_t outer = r & ~inner_mask;
    const index_t mr = gather_bits(r, op_pos);
    for (index_t mc = 0; mc < N; ++mc) out(r, outer | scatter_bits(mc, op_pos)) = m(mr, mc);
  }
  return out;
}

/// A fused-stream entry on one or two wires, its unitary inline.
template <std::size_t N>
FusedOp fused_op(std::size_t source, std::span<const int> qubits,
                 const linalg::FixedMat<N>& matrix) {
  static_assert(N <= 4, "fused entries hold at most a 4x4");
  FusedOp f;
  f.source = source;
  f.qubits = QubitList(qubits);
  std::copy(matrix.entries.begin(), matrix.entries.end(), f.entries.begin());
  return f;
}

}  // namespace

GateFusion::GateFusion(int num_qubits) : num_qubits_(num_qubits) {
  QCUT_CHECK(num_qubits >= 1 && num_qubits <= Circuit::kMaxQubits,
             "GateFusion: register width out of range");
}

void GateFusion::flush_qubit(int q, std::vector<FusedOp>& out) {
  Pending& p = pending_[static_cast<std::size_t>(q)];
  if (p.length == 0) return;
  const std::array<int, 1> wire = {q};
  if (p.length == 1) {
    // A run of one is passed through so it keeps its specialized kernel
    // class (an RZ stays a diagonal gate instead of becoming a dense 2x2).
    out.push_back(fused_op(p.first, wire, p.matrix));
  } else {
    stats_.merged_1q_gates += p.length;
    out.push_back(fused_op(FusedOp::kProduct, wire, p.matrix));
  }
  p = Pending{};
}

void GateFusion::flush_block(std::size_t index, std::vector<FusedOp>& out) {
  const PendingBlock blk = blocks_[index];
  // Block order never matters: every lookup goes by wire.
  blocks_[index] = blocks_[--num_blocks_];
  // A block that absorbed nothing passes its op through, kind and params kept.
  const bool alone = !blk.dirty && blk.ops == 1;
  out.push_back(fused_op(alone ? blk.first : FusedOp::kProduct, blk.qubits, blk.matrix));
}

void GateFusion::flush_wire(int q, std::vector<FusedOp>& out) {
  flush_qubit(q, out);
  if (const int bi = block_on(q); bi >= 0) flush_block(static_cast<std::size_t>(bi), out);
}

int GateFusion::block_on(int q) const noexcept {
  for (std::size_t i = 0; i < num_blocks_; ++i) {
    if (blocks_[i].qubits[0] == q || blocks_[i].qubits[1] == q) return static_cast<int>(i);
  }
  return -1;
}

void GateFusion::push_1q(const Operation& op, std::size_t index) {
  const int q = op.qubits[0];
  const Mat2 m = matrix_1q(op);
  if (const int bi = block_on(q); bi >= 0) {
    PendingBlock& blk = blocks_[static_cast<std::size_t>(bi)];
    blk.matrix = embed_in_block(m, op.qubits, blk.qubits) * blk.matrix;
    blk.dirty = true;
    ++stats_.folded_1q_gates;
    return;
  }
  Pending& p = pending_[static_cast<std::size_t>(q)];
  if (p.length == 0) {
    p.matrix = m;
    p.first = index;
    p.length = 1;
  } else {
    p.matrix = m * p.matrix;  // later gate applies on the left
    ++p.length;
  }
}

void GateFusion::push_2q(const Operation& op, std::size_t index, std::vector<FusedOp>& out) {
  const Mat4 m = matrix_2q(op);
  // Never densify a (phased) permutation or diagonal 2q gate: the
  // simulator runs those as index shuffles / per-amplitude multiplies
  // (sim/engine.hpp classifies with the same linalg predicate).
  if (linalg::is_phased_permutation(m.view())) {
    for (int q : op.qubits) {
      if (const int bi = block_on(q); bi >= 0) flush_block(static_cast<std::size_t>(bi), out);
    }
    for (int q : op.qubits) flush_qubit(q, out);
    out.push_back(fused_op(index, op.qubits, m));
    return;
  }

  // A dense gate on both wires of one chain folds in. Otherwise every chain
  // it touches is retired (the one on its second wire first); their gates
  // all precede `op` in the source stream, so order is preserved.
  const int a = op.qubits[0];
  const int b = op.qubits[1];
  if (const int bi = block_on(a); bi >= 0 && bi == block_on(b)) {
    PendingBlock& blk = blocks_[static_cast<std::size_t>(bi)];
    blk.matrix = embed_in_block(m, op.qubits, blk.qubits) * blk.matrix;
    ++blk.ops;
    blk.dirty = true;
    ++stats_.merged_2q_gates;
    return;
  }
  if (const int bi = block_on(b); bi >= 0) flush_block(static_cast<std::size_t>(bi), out);
  if (const int bi = block_on(a); bi >= 0) flush_block(static_cast<std::size_t>(bi), out);

  // Open a chain, with any pending 1q runs on its wires folded in.
  PendingBlock& blk = blocks_[num_blocks_++];
  blk = PendingBlock{};
  blk.matrix = m;
  for (int pos = 0; pos < 2; ++pos) {
    Pending& p = pending_[static_cast<std::size_t>(op.qubits[static_cast<std::size_t>(pos)])];
    if (p.length == 0) continue;
    blk.matrix = blk.matrix * expand_1q_to_2q(p.matrix, pos);
    stats_.folded_1q_gates += p.length;
    p = Pending{};
    blk.dirty = true;
  }
  blk.qubits = {a, b};
  blk.first = index;
  blk.ops = 1;
}

void GateFusion::push(const Operation& op, std::vector<FusedOp>& out) {
  const std::size_t index = pushed_++;
  if (op.num_qubits() == 1) {
    push_1q(op, index);
    return;
  }
  if (op.num_qubits() == 2) {
    push_2q(op, index, out);
    return;
  }
  for (int q : op.qubits) flush_wire(q, out);
  FusedOp f;
  f.source = index;
  f.qubits = op.qubits;
  out.push_back(std::move(f));
}

void GateFusion::flush(std::vector<FusedOp>& out) {
  // Deterministic tail order: pending runs and blocks interleaved by their
  // minimum wire. Runs and blocks never share a wire, so the order is total.
  for (int q = 0; q < num_qubits_; ++q) {
    flush_qubit(q, out);
    for (std::size_t i = 0; i < num_blocks_; ++i) {
      if (std::min(blocks_[i].qubits[0], blocks_[i].qubits[1]) == q) {
        flush_block(i, out);
        break;
      }
    }
  }
  pushed_ = 0;
}

Circuit fuse_gates(const Circuit& circuit, FusionStats* stats) {
  GateFusion scan(circuit.num_qubits());
  std::vector<FusedOp> stream;
  stream.reserve(circuit.num_ops());
  for (const Operation& op : circuit.ops()) scan.push(op, stream);
  scan.flush(stream);

  Circuit out(circuit.num_qubits());
  out.reserve(stream.size());
  for (const FusedOp& f : stream) {
    if (f.source == FusedOp::kProduct) {
      out.append_custom(CMat(f.unitary()), f.qubits, "fused");
      continue;
    }
    const Operation& op = circuit.op(f.source);
    if (op.kind == GateKind::Custom) {
      out.append_custom(op.custom, op.qubits, op.label);
    } else {
      out.append(op.kind, op.qubits, op.params);
    }
  }
  if (stats != nullptr) *stats = scan.stats();
  return out;
}

}  // namespace qcut::circuit
