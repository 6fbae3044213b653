#pragma once
// Free-standing linear-algebra operations on CMat / CVec.

#include "linalg/matrix.hpp"

namespace qcut::linalg {

/// Conjugate transpose.
[[nodiscard]] CMat dagger(const CMat& m);

/// Element-wise complex conjugate.
[[nodiscard]] CMat conjugate(const CMat& m);

/// Transpose (no conjugation).
[[nodiscard]] CMat transpose(const CMat& m);

/// Trace of a square matrix.
[[nodiscard]] cx trace(const CMat& m);

/// Kronecker product a (x) b. Index convention: row (i_a * rows_b + i_b).
[[nodiscard]] CMat kron(const CMat& a, const CMat& b);

/// kron of two 2x2s in inline storage, in the CMat kron's loop order with
/// its skips of exact-zero entries of `a`, so the entries are bit-identical.
[[nodiscard]] Mat4 kron(const Mat2& a, const Mat2& b) noexcept;

/// Kronecker product of a list, left to right: kron(kron(m0, m1), m2)...
[[nodiscard]] CMat kron_all(const std::vector<CMat>& factors);

/// Exactly one entry per row and per column differs from EXACT 0: a
/// phased permutation matrix (diagonals included). Exact comparison by
/// design — gate matrices build their zeros exactly, and the consumers
/// (the simulator's permutation kernel, the fusion pass's don't-densify
/// rule) promise bit-for-bit behavior only for exactly-placed zeros.
[[nodiscard]] bool is_phased_permutation(SquareView m) noexcept;

/// Matrix-vector product.
[[nodiscard]] CVec matvec(const CMat& m, const CVec& v);

/// <a|b> = sum_i conj(a_i) b_i.
[[nodiscard]] cx inner(const CVec& a, const CVec& b);

/// Euclidean norm of a vector.
[[nodiscard]] double norm(const CVec& v);

/// Frobenius norm of a matrix.
[[nodiscard]] double frobenius_norm(const CMat& m);

/// Outer product |a><b|.
[[nodiscard]] CMat outer(const CVec& a, const CVec& b);

/// True if m is unitary within tolerance (m * m^dagger == I).
[[nodiscard]] bool is_unitary(const CMat& m, double tol = 1e-10);

/// True if m is Hermitian within tolerance.
[[nodiscard]] bool is_hermitian(const CMat& m, double tol = 1e-10);

/// True if every entry of m has |imag| <= tol.
[[nodiscard]] bool is_real(const CMat& m, double tol = 1e-10);

/// tr(a * b) computed without forming the product.
[[nodiscard]] cx trace_of_product(const CMat& a, const CMat& b);

/// Expectation <psi| O |psi>.
[[nodiscard]] cx expectation(const CMat& op, const CVec& psi);

/// Matrix power by repeated squaring (non-negative exponent).
[[nodiscard]] CMat matrix_power(const CMat& m, unsigned exponent);

}  // namespace qcut::linalg
