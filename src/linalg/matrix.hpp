#pragma once
// Dense complex matrix and vector types.
//
// qcut works with small dense operators (gate matrices up to a few qubits,
// fragment density matrices up to ~10 qubits). CMat is a row-major dense
// matrix of std::complex<double>; CVec is a plain std::vector of amplitudes.
// FixedMat<N> holds the N x N matrices of gates (2x2, 4x4, 8x8) inline, so
// the circuit compiler builds and multiplies them without the heap.

#include <array>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace qcut::linalg {

using cx = std::complex<double>;
using CVec = std::vector<cx>;

/// Read-only view of a square row-major matrix's entries (a CMat's or a
/// FixedMat's): what the structural classifiers read.
struct SquareView {
  const cx* entries = nullptr;
  std::size_t dim = 0;

  [[nodiscard]] const cx& operator()(std::size_t r, std::size_t c) const noexcept {
    return entries[r * dim + c];
  }
};

/// Row-major dense complex matrix.
class CMat {
 public:
  /// Empty 0x0 matrix.
  CMat() = default;

  /// Zero-initialized rows x cols matrix.
  CMat(std::size_t rows, std::size_t cols);

  /// Builds from nested initializer lists; all rows must have equal length.
  CMat(std::initializer_list<std::initializer_list<cx>> rows);

  /// Copies a square matrix's entries.
  explicit CMat(SquareView m);

  /// n x n identity.
  [[nodiscard]] static CMat identity(std::size_t n);

  /// rows x cols zero matrix.
  [[nodiscard]] static CMat zero(std::size_t rows, std::size_t cols);

  /// Diagonal matrix from the given entries.
  [[nodiscard]] static CMat diagonal(const CVec& entries);

  /// Column vector (n x 1) from entries.
  [[nodiscard]] static CMat column(const CVec& entries);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] bool is_square() const noexcept { return rows_ == cols_; }

  [[nodiscard]] cx& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const cx& operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access.
  [[nodiscard]] cx& at(std::size_t r, std::size_t c);
  [[nodiscard]] const cx& at(std::size_t r, std::size_t c) const;

  [[nodiscard]] cx* data() noexcept { return data_.data(); }
  [[nodiscard]] const cx* data() const noexcept { return data_.data(); }

  /// View of a square matrix's entries.
  [[nodiscard]] SquareView view() const noexcept { return {data_.data(), rows_}; }

  CMat& operator+=(const CMat& other);
  CMat& operator-=(const CMat& other);
  CMat& operator*=(cx scalar);

  friend CMat operator+(CMat lhs, const CMat& rhs) { return lhs += rhs; }
  friend CMat operator-(CMat lhs, const CMat& rhs) { return lhs -= rhs; }
  friend CMat operator*(CMat lhs, cx scalar) { return lhs *= scalar; }
  friend CMat operator*(cx scalar, CMat rhs) { return rhs *= scalar; }

  /// Matrix product (inner dimensions must agree).
  friend CMat operator*(const CMat& lhs, const CMat& rhs);

  /// Element-wise equality within absolute tolerance.
  [[nodiscard]] bool approx_equal(const CMat& other, double tol = 1e-12) const noexcept;

  /// Multi-line human-readable rendering (for diagnostics and tests).
  [[nodiscard]] std::string to_string(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  CVec data_;
};

/// N x N complex matrix in inline storage, row-major and zero-initialized.
template <std::size_t N>
struct FixedMat {
  std::array<cx, N * N> entries{};

  FixedMat() = default;

  /// Copies an N x N matrix's entries.
  explicit FixedMat(SquareView m) noexcept {
    for (std::size_t i = 0; i < N * N; ++i) entries[i] = m.entries[i];
  }

  [[nodiscard]] static FixedMat identity() noexcept {
    FixedMat m;
    for (std::size_t i = 0; i < N; ++i) m(i, i) = cx{1.0, 0.0};
    return m;
  }

  [[nodiscard]] cx& operator()(std::size_t r, std::size_t c) noexcept {
    return entries[r * N + c];
  }
  [[nodiscard]] const cx& operator()(std::size_t r, std::size_t c) const noexcept {
    return entries[r * N + c];
  }

  [[nodiscard]] SquareView view() const noexcept { return {entries.data(), N}; }
};

using Mat2 = FixedMat<2>;
using Mat4 = FixedMat<4>;
using Mat8 = FixedMat<8>;

/// Matrix product in CMat's loop order, with its skips of exact-zero left
/// factors, so equal operands give bit-identical entries.
template <std::size_t N>
[[nodiscard]] FixedMat<N> operator*(const FixedMat<N>& lhs, const FixedMat<N>& rhs) noexcept {
  FixedMat<N> out;
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t k = 0; k < N; ++k) {
      const cx a = lhs(i, k);
      if (a == cx{0.0, 0.0}) continue;
      for (std::size_t j = 0; j < N; ++j) out(i, j) += a * rhs(k, j);
    }
  }
  return out;
}

}  // namespace qcut::linalg
