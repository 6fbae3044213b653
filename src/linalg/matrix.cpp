#include "linalg/matrix.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"

namespace qcut::linalg {

CMat::CMat(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, cx{0.0, 0.0}) {}

CMat::CMat(std::initializer_list<std::initializer_list<cx>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    QCUT_CHECK(row.size() == cols_, "CMat: all initializer rows must have equal length");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

CMat::CMat(SquareView m)
    : rows_(m.dim), cols_(m.dim), data_(m.entries, m.entries + m.dim * m.dim) {}

CMat CMat::identity(std::size_t n) {
  CMat m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = cx{1.0, 0.0};
  return m;
}

CMat CMat::zero(std::size_t rows, std::size_t cols) { return CMat(rows, cols); }

CMat CMat::diagonal(const CVec& entries) {
  CMat m(entries.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) m(i, i) = entries[i];
  return m;
}

CMat CMat::column(const CVec& entries) {
  CMat m(entries.size(), 1);
  for (std::size_t i = 0; i < entries.size(); ++i) m(i, 0) = entries[i];
  return m;
}

cx& CMat::at(std::size_t r, std::size_t c) {
  QCUT_CHECK(r < rows_ && c < cols_, "CMat::at: index out of range");
  return (*this)(r, c);
}

const cx& CMat::at(std::size_t r, std::size_t c) const {
  QCUT_CHECK(r < rows_ && c < cols_, "CMat::at: index out of range");
  return (*this)(r, c);
}

CMat& CMat::operator+=(const CMat& other) {
  QCUT_CHECK(rows_ == other.rows_ && cols_ == other.cols_, "CMat::operator+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

CMat& CMat::operator-=(const CMat& other) {
  QCUT_CHECK(rows_ == other.rows_ && cols_ == other.cols_, "CMat::operator-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

CMat& CMat::operator*=(cx scalar) {
  for (auto& v : data_) v *= scalar;
  return *this;
}

CMat operator*(const CMat& lhs, const CMat& rhs) {
  QCUT_CHECK(lhs.cols() == rhs.rows(), "CMat::operator*: inner dimensions must agree");
  CMat out(lhs.rows(), rhs.cols());
  for (std::size_t i = 0; i < lhs.rows(); ++i) {
    for (std::size_t k = 0; k < lhs.cols(); ++k) {
      const cx a = lhs(i, k);
      if (a == cx{0.0, 0.0}) continue;
      for (std::size_t j = 0; j < rhs.cols(); ++j) {
        out(i, j) += a * rhs(k, j);
      }
    }
  }
  return out;
}

bool CMat::approx_equal(const CMat& other, double tol) const noexcept {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::string CMat::to_string(int precision) const {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    oss << "[ ";
    for (std::size_t c = 0; c < cols_; ++c) {
      const cx v = (*this)(r, c);
      oss << v.real() << (v.imag() < 0 ? "-" : "+") << std::abs(v.imag()) << "i ";
    }
    oss << "]\n";
  }
  return oss.str();
}

}  // namespace qcut::linalg
