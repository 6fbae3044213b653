#include "linalg/ops.hpp"

#include <cmath>

#include "common/error.hpp"

namespace qcut::linalg {

CMat dagger(const CMat& m) {
  CMat out(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      out(c, r) = std::conj(m(r, c));
    }
  }
  return out;
}

CMat conjugate(const CMat& m) {
  CMat out(m.rows(), m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      out(r, c) = std::conj(m(r, c));
    }
  }
  return out;
}

CMat transpose(const CMat& m) {
  CMat out(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      out(c, r) = m(r, c);
    }
  }
  return out;
}

cx trace(const CMat& m) {
  QCUT_CHECK(m.is_square(), "trace: matrix must be square");
  cx t{0.0, 0.0};
  for (std::size_t i = 0; i < m.rows(); ++i) t += m(i, i);
  return t;
}

CMat kron(const CMat& a, const CMat& b) {
  CMat out(a.rows() * b.rows(), a.cols() * b.cols());
  for (std::size_t ra = 0; ra < a.rows(); ++ra) {
    for (std::size_t ca = 0; ca < a.cols(); ++ca) {
      const cx v = a(ra, ca);
      if (v == cx{0.0, 0.0}) continue;
      for (std::size_t rb = 0; rb < b.rows(); ++rb) {
        for (std::size_t cb = 0; cb < b.cols(); ++cb) {
          out(ra * b.rows() + rb, ca * b.cols() + cb) = v * b(rb, cb);
        }
      }
    }
  }
  return out;
}

Mat4 kron(const Mat2& a, const Mat2& b) noexcept {
  Mat4 out;
  for (std::size_t ra = 0; ra < 2; ++ra) {
    for (std::size_t ca = 0; ca < 2; ++ca) {
      const cx v = a(ra, ca);
      if (v == cx{0.0, 0.0}) continue;
      for (std::size_t rb = 0; rb < 2; ++rb) {
        for (std::size_t cb = 0; cb < 2; ++cb) out(ra * 2 + rb, ca * 2 + cb) = v * b(rb, cb);
      }
    }
  }
  return out;
}

CMat kron_all(const std::vector<CMat>& factors) {
  QCUT_CHECK(!factors.empty(), "kron_all: need at least one factor");
  CMat out = factors.front();
  for (std::size_t i = 1; i < factors.size(); ++i) {
    out = kron(out, factors[i]);
  }
  return out;
}

bool is_phased_permutation(SquareView m) noexcept {
  if (m.dim == 0) return false;
  // Exactly one nonzero in every row, so n in all; then no column may
  // hold two of them.
  for (std::size_t r = 0; r < m.dim; ++r) {
    int nonzeros = 0;
    for (std::size_t c = 0; c < m.dim; ++c) {
      if (m(r, c) != cx{0.0, 0.0} && ++nonzeros > 1) return false;
    }
    if (nonzeros == 0) return false;
  }
  for (std::size_t c = 0; c < m.dim; ++c) {
    int nonzeros = 0;
    for (std::size_t r = 0; r < m.dim; ++r) {
      if (m(r, c) != cx{0.0, 0.0} && ++nonzeros > 1) return false;
    }
  }
  return true;
}

CVec matvec(const CMat& m, const CVec& v) {
  QCUT_CHECK(m.cols() == v.size(), "matvec: dimension mismatch");
  CVec out(m.rows(), cx{0.0, 0.0});
  for (std::size_t r = 0; r < m.rows(); ++r) {
    cx acc{0.0, 0.0};
    for (std::size_t c = 0; c < m.cols(); ++c) {
      acc += m(r, c) * v[c];
    }
    out[r] = acc;
  }
  return out;
}

cx inner(const CVec& a, const CVec& b) {
  QCUT_CHECK(a.size() == b.size(), "inner: dimension mismatch");
  cx acc{0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::conj(a[i]) * b[i];
  return acc;
}

double norm(const CVec& v) {
  double acc = 0.0;
  for (const cx& x : v) acc += std::norm(x);
  return std::sqrt(acc);
}

double frobenius_norm(const CMat& m) {
  double acc = 0.0;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) acc += std::norm(m(r, c));
  }
  return std::sqrt(acc);
}

CMat outer(const CVec& a, const CVec& b) {
  CMat out(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    for (std::size_t c = 0; c < b.size(); ++c) {
      out(r, c) = a[r] * std::conj(b[c]);
    }
  }
  return out;
}

bool is_unitary(const CMat& m, double tol) {
  if (!m.is_square()) return false;
  const CMat product = m * dagger(m);
  return product.approx_equal(CMat::identity(m.rows()), tol);
}

bool is_hermitian(const CMat& m, double tol) {
  if (!m.is_square()) return false;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = r; c < m.cols(); ++c) {
      if (std::abs(m(r, c) - std::conj(m(c, r))) > tol) return false;
    }
  }
  return true;
}

bool is_real(const CMat& m, double tol) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (std::abs(m(r, c).imag()) > tol) return false;
    }
  }
  return true;
}

cx trace_of_product(const CMat& a, const CMat& b) {
  QCUT_CHECK(a.cols() == b.rows() && a.rows() == b.cols(),
             "trace_of_product: shapes must be compatible with tr(a*b)");
  cx acc{0.0, 0.0};
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      acc += a(i, k) * b(k, i);
    }
  }
  return acc;
}

cx expectation(const CMat& op, const CVec& psi) {
  return inner(psi, matvec(op, psi));
}

CMat matrix_power(const CMat& m, unsigned exponent) {
  QCUT_CHECK(m.is_square(), "matrix_power: matrix must be square");
  CMat result = CMat::identity(m.rows());
  CMat base = m;
  unsigned e = exponent;
  while (e > 0) {
    if ((e & 1u) != 0) result = result * base;
    base = base * base;
    e >>= 1;
  }
  return result;
}

}  // namespace qcut::linalg
