#include "circuit/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <span>

#include "common/bits.hpp"
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

/// 4x4 matrix applying the 2x2 `p` to local bit `pos` (tensored with the
/// identity on the other bit). kron's second factor is the low bit.
CMat expand_1q_to_2q(const CMat& p, int pos) {
  return pos == 0 ? linalg::kron(CMat::identity(2), p) : linalg::kron(p, CMat::identity(2));
}

/// Embeds `m` (acting on `op_qubits`, bit j of its index = op_qubits[j]) into
/// the index space of `block_qubits` (a superset), tensoring with the
/// identity on the remaining wires.
CMat embed_in_block(const CMat& m, std::span<const int> op_qubits,
                    std::span<const int> block_qubits) {
  std::vector<int> pos(op_qubits.size());
  index_t inner_mask = 0;
  for (std::size_t j = 0; j < op_qubits.size(); ++j) {
    const auto it = std::find(block_qubits.begin(), block_qubits.end(), op_qubits[j]);
    pos[j] = static_cast<int>(it - block_qubits.begin());
    inner_mask |= pow2(pos[j]);
  }
  const index_t dim = pow2(static_cast<int>(block_qubits.size()));
  CMat out(dim, dim);
  for (index_t r = 0; r < dim; ++r) {
    const index_t outer = r & ~inner_mask;
    const index_t mr = gather_bits(r, pos);
    for (index_t mc = 0; mc < m.cols(); ++mc) {
      out(r, outer | scatter_bits(mc, pos)) = m(mr, mc);
    }
  }
  return out;
}

}  // namespace

GateFusion::GateFusion(int num_qubits) : pending_(static_cast<std::size_t>(num_qubits)) {}

void GateFusion::flush_qubit(int q, std::vector<Operation>& out) {
  Pending& p = pending_[static_cast<std::size_t>(q)];
  if (p.length == 0) return;
  if (p.length == 1) {
    // A run of one is emitted verbatim so it keeps its specialized kernel
    // class (an RZ stays a diagonal gate instead of becoming a dense 2x2).
    out.push_back(std::move(p.first));
  } else {
    Operation fused;
    fused.kind = GateKind::Custom;
    fused.qubits = {q};
    fused.custom = std::move(p.matrix);
    fused.label = "fused";
    stats_.merged_1q_gates += p.length;
    out.push_back(std::move(fused));
  }
  p = Pending{};
}

void GateFusion::flush_block(std::size_t index, std::vector<Operation>& out) {
  PendingBlock blk = std::move(blocks_[index]);
  blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(index));
  if (!blk.dirty && blk.ops == 1) {
    // Nothing merged in: emit the original op so it keeps its kind/params.
    out.push_back(std::move(blk.first));
    return;
  }
  Operation fused;
  fused.kind = GateKind::Custom;
  fused.qubits = blk.qubits;
  fused.custom = std::move(blk.matrix);
  fused.label = "fused";
  out.push_back(std::move(fused));
}

void GateFusion::flush_wire(int q, std::vector<Operation>& out) {
  flush_qubit(q, out);
  if (const int bi = block_on(q); bi >= 0) flush_block(static_cast<std::size_t>(bi), out);
}

int GateFusion::block_on(int q) const noexcept {
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (std::find(blocks_[i].qubits.begin(), blocks_[i].qubits.end(), q) !=
        blocks_[i].qubits.end()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void GateFusion::push_1q(const Operation& op) {
  const int q = op.qubits[0];
  if (const int bi = block_on(q); bi >= 0) {
    PendingBlock& blk = blocks_[static_cast<std::size_t>(bi)];
    blk.matrix = embed_in_block(op.matrix(), op.qubits, blk.qubits) * blk.matrix;
    blk.dirty = true;
    ++stats_.folded_1q_gates;
    return;
  }
  Pending& p = pending_[static_cast<std::size_t>(q)];
  if (p.length == 0) {
    p.matrix = op.matrix();
    p.first = op;
    p.length = 1;
  } else {
    p.matrix = op.matrix() * p.matrix;  // later gate applies on the left
    ++p.length;
  }
}

void GateFusion::push_2q(const Operation& op, std::vector<Operation>& out) {
  // Never densify a (phased) permutation or diagonal 2q gate: the
  // simulator runs those as index shuffles / per-amplitude multiplies
  // (sim/engine.hpp classifies with the same linalg predicate).
  if (linalg::is_phased_permutation(op.matrix())) {
    for (int q : op.qubits) {
      if (const int bi = block_on(q); bi >= 0) flush_block(static_cast<std::size_t>(bi), out);
    }
    for (int q : op.qubits) flush_qubit(q, out);
    out.push_back(op);
    return;
  }

  // A dense gate on both wires of one chain folds in. Otherwise every chain
  // it touches is retired (the one on its second wire first); their gates
  // all precede `op` in the source stream, so order is preserved.
  const int a = op.qubits[0];
  const int b = op.qubits[1];
  if (const int bi = block_on(a); bi >= 0 && bi == block_on(b)) {
    PendingBlock& blk = blocks_[static_cast<std::size_t>(bi)];
    blk.matrix = embed_in_block(op.matrix(), op.qubits, blk.qubits) * blk.matrix;
    ++blk.ops;
    blk.dirty = true;
    ++stats_.merged_2q_gates;
    return;
  }
  if (const int bi = block_on(b); bi >= 0) flush_block(static_cast<std::size_t>(bi), out);
  if (const int bi = block_on(a); bi >= 0) flush_block(static_cast<std::size_t>(bi), out);

  // Open a chain, with any pending 1q runs on its wires folded in.
  PendingBlock blk;
  blk.matrix = op.matrix();
  for (int pos = 0; pos < 2; ++pos) {
    Pending& p = pending_[static_cast<std::size_t>(op.qubits[pos])];
    if (p.length == 0) continue;
    blk.matrix = blk.matrix * expand_1q_to_2q(p.matrix, pos);
    stats_.folded_1q_gates += p.length;
    p = Pending{};
    blk.dirty = true;
  }
  blk.qubits.assign(op.qubits.begin(), op.qubits.end());
  blk.first = op;
  blk.ops = 1;
  blocks_.push_back(std::move(blk));
}

void GateFusion::push(const Operation& op, std::vector<Operation>& out) {
  if (op.num_qubits() == 1) {
    push_1q(op);
    return;
  }
  if (op.num_qubits() == 2) {
    push_2q(op, out);
    return;
  }
  for (int q : op.qubits) flush_wire(q, out);
  out.push_back(op);
}

void GateFusion::flush(std::vector<Operation>& out) {
  // Deterministic tail order: pending runs and blocks interleaved by their
  // minimum wire. Runs and blocks never share a wire, so the order is total.
  for (int q = 0; q < static_cast<int>(pending_.size()); ++q) {
    flush_qubit(q, out);
    while (true) {
      int found = -1;
      for (std::size_t i = 0; i < blocks_.size(); ++i) {
        if (*std::min_element(blocks_[i].qubits.begin(), blocks_[i].qubits.end()) == q) {
          found = static_cast<int>(i);
          break;
        }
      }
      if (found < 0) break;
      flush_block(static_cast<std::size_t>(found), out);
    }
  }
}

Circuit fuse_gates(const Circuit& circuit, FusionStats* stats) {
  GateFusion scan(circuit.num_qubits());
  std::vector<Operation> ops;
  ops.reserve(circuit.num_ops());
  for (const Operation& op : circuit.ops()) scan.push(op, ops);
  scan.flush(ops);

  Circuit out(circuit.num_qubits());
  for (Operation& op : ops) {
    if (op.kind == GateKind::Custom) {
      out.append_custom(std::move(op.custom), op.qubits, op.label);
    } else {
      out.append(op.kind, op.qubits, op.params);
    }
  }
  if (stats != nullptr) *stats = scan.stats();
  return out;
}

}  // namespace qcut::circuit
