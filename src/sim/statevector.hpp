#pragma once
// Statevector simulator.
//
// Qubit k of an n-qubit register is bit k (LSB = qubit 0) of the
// basis-state index. Supports arbitrary k-qubit matrix application, exact
// probabilities, Pauli expectations, and reduced density matrices — all the
// primitives circuit cutting needs.

#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/pauli_string.hpp"
#include "common/bits.hpp"
#include "linalg/matrix.hpp"

namespace qcut::sim {

using circuit::Circuit;
using circuit::Operation;
using circuit::PauliString;
using linalg::CMat;
using linalg::CVec;
using linalg::cx;

class StateVector {
 public:
  /// |0...0> on n qubits.
  explicit StateVector(int num_qubits);

  /// Takes ownership of raw amplitudes; length must be a power of two.
  /// When `check_normalization` is set, the norm must be 1 within 1e-8.
  [[nodiscard]] static StateVector from_amplitudes(CVec amplitudes,
                                                   bool check_normalization = true);

  /// Product state with qubit q initialized to single_qubit_states[q]
  /// (each a length-2 unit vector).
  [[nodiscard]] static StateVector product_state(const std::vector<CVec>& single_qubit_states);

  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] index_t dim() const noexcept { return amps_.size(); }
  [[nodiscard]] const CVec& amplitudes() const noexcept { return amps_; }
  [[nodiscard]] cx amplitude(index_t basis_state) const;

  /// Applies a (2^k x 2^k) matrix to the listed qubits; qubits[j] is bit j
  /// of the matrix index. The matrix need not be unitary (projectors and
  /// Kraus operators are applied the same way).
  void apply_matrix(const CMat& m, std::span<const int> qubits);

  /// The same for a matrix in any square storage (a CMat's or a
  /// FixedMat's entries), with the same arithmetic; allocates nothing for
  /// up to 3 qubits.
  void apply_matrix(linalg::SquareView m, std::span<const int> qubits);

  /// Applies one circuit operation: a named gate from its inline matrix
  /// (circuit::gate_matrix_1q/2q/3q), a Custom op from its stored one.
  void apply_operation(const Operation& op);

  /// Resets to |0...0> on `num_qubits` qubits (1..26), reusing the
  /// amplitude buffer: no allocation when it already held as many
  /// amplitudes.
  void reset(int num_qubits);

  /// Applies every operation of the circuit in order.
  void apply_circuit(const Circuit& circuit);

  /// Measurement probabilities of all qubits in the computational basis.
  [[nodiscard]] std::vector<double> probabilities() const;

  /// Writes the probabilities into `out` (resized to dim()), reusing its
  /// capacity — the allocation-free variant for hot sampled paths.
  void probabilities_into(std::vector<double>& out) const;

  /// Probability of one basis outcome.
  [[nodiscard]] double probability_of(index_t basis_state) const;

  /// <psi| P |psi> for a Pauli string (always real).
  [[nodiscard]] double expectation_pauli(const PauliString& pauli) const;

  /// <psi| O |psi> for an operator on the listed qubits.
  [[nodiscard]] cx expectation(const CMat& op, std::span<const int> qubits) const;

  /// Full density matrix |psi><psi| (small n only).
  [[nodiscard]] CMat density_matrix() const;

  /// Reduced density matrix on `keep_qubits` (ascending order not required;
  /// row index bit j corresponds to keep_qubits[j]).
  [[nodiscard]] CMat reduced_density_matrix(std::span<const int> keep_qubits) const;

  /// Euclidean norm of the state.
  [[nodiscard]] double norm() const;

  /// Rescales to unit norm. Throws if the norm is (near) zero.
  void normalize();

 private:
  void apply_1q(linalg::SquareView m, int qubit);
  void apply_2q(linalg::SquareView m, int q0, int q1);
  void apply_kq(linalg::SquareView m, std::span<const int> qubits);

  int num_qubits_;
  CVec amps_;
};

/// The full 2^n x 2^n unitary implemented by a circuit (small n only;
/// built column-by-column through the simulator).
[[nodiscard]] CMat circuit_unitary(const Circuit& circuit);

}  // namespace qcut::sim
