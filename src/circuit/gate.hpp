#pragma once
// Standard gate library.
//
// Matrix convention: for a gate applied to qubits {q0, q1, ...}, the first
// listed qubit is the LEAST significant bit of the matrix index (the same
// little-endian convention Qiskit uses). For controlled gates the control
// is listed first.

#include <initializer_list>
#include <span>
#include <string>

#include "circuit/inline_list.hpp"
#include "linalg/matrix.hpp"

namespace qcut::circuit {

using linalg::CMat;
using linalg::cx;
using linalg::Mat2;
using linalg::Mat4;
using linalg::Mat8;

/// Identifier of every supported gate.
enum class GateKind : int {
  // 1-qubit, no parameters
  I, X, Y, Z, H, S, Sdg, T, Tdg, SX, SXdg,
  // 1-qubit, parameterized
  RX, RY, RZ, P, U,
  // 2-qubit, no parameters
  CX, CY, CZ, CH, SWAP, ISwap,
  // 2-qubit, parameterized
  CRX, CRY, CRZ, CP, RXX, RYY, RZZ,
  // 3-qubit
  CCX, CSWAP,
  // Arbitrary unitary supplied by the caller
  Custom,
};

/// An op's qubits and parameters. Every named gate acts on at most 3 qubits
/// and takes at most 3 parameters, so those lists never touch the heap; only
/// Custom blocks on more than 3 qubits do (Custom ops take no parameters).
using QubitList = InlineList<int, 3>;
using ParamList = InlineList<double, 3>;

/// Lower-case mnemonic, e.g. "cx", "rz".
[[nodiscard]] std::string gate_name(GateKind kind);

/// Number of qubits the gate acts on. Custom gates are excluded (their
/// arity comes from the supplied matrix); calling this with Custom throws.
[[nodiscard]] int gate_num_qubits(GateKind kind);

/// Number of real parameters the gate takes (0 for most).
[[nodiscard]] int gate_num_params(GateKind kind);

/// The unitary matrix of the gate. `params` must have exactly
/// gate_num_params(kind) entries. Custom is excluded.
[[nodiscard]] CMat gate_matrix(GateKind kind, std::span<const double> params);
[[nodiscard]] inline CMat gate_matrix(GateKind kind, std::initializer_list<double> params) {
  return gate_matrix(kind, std::span<const double>(params.begin(), params.size()));
}

/// The same unitaries in inline storage, entry for entry, for the gates of
/// each arity: what the compile path fuses and classifies without the heap.
/// A kind of another arity throws, as gate_matrix's checks do.
[[nodiscard]] Mat2 gate_matrix_1q(GateKind kind, std::span<const double> params);
[[nodiscard]] Mat4 gate_matrix_2q(GateKind kind, std::span<const double> params);
[[nodiscard]] Mat8 gate_matrix_3q(GateKind kind);

/// Gate kind and params implementing the inverse. Returns false if the
/// inverse is not expressible in the named gate set (caller should fall
/// back to a Custom gate with the dagger matrix).
struct GateInverse {
  GateKind kind;
  ParamList params;
};
[[nodiscard]] bool gate_inverse(GateKind kind, std::span<const double> params, GateInverse& out);

}  // namespace qcut::circuit
