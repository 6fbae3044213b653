#include "sim/statevector.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "linalg/ops.hpp"
#include "linalg/pauli_matrices.hpp"

namespace qcut::sim {

StateVector::StateVector(int num_qubits) : num_qubits_(num_qubits) { reset(num_qubits); }

void StateVector::reset(int num_qubits) {
  QCUT_CHECK(num_qubits >= 1 && num_qubits <= 26,
             "StateVector: supported widths are 1..26 qubits");
  num_qubits_ = num_qubits;
  amps_.assign(pow2(num_qubits), cx{0.0, 0.0});
  amps_[0] = cx{1.0, 0.0};
}

StateVector StateVector::from_amplitudes(CVec amplitudes, bool check_normalization) {
  QCUT_CHECK(is_pow2(amplitudes.size()), "StateVector: amplitude count must be a power of two");
  const int n = log2_exact(amplitudes.size());
  StateVector sv(n == 0 ? 1 : n);
  QCUT_CHECK(n >= 1, "StateVector: need at least 2 amplitudes");
  if (check_normalization) {
    double norm2 = 0.0;
    for (const cx& a : amplitudes) norm2 += std::norm(a);
    QCUT_CHECK(std::abs(norm2 - 1.0) < 1e-8, "StateVector: amplitudes are not normalized");
  }
  sv.amps_ = std::move(amplitudes);
  return sv;
}

StateVector StateVector::product_state(const std::vector<CVec>& single_qubit_states) {
  QCUT_CHECK(!single_qubit_states.empty(), "StateVector::product_state: empty state list");
  const int n = static_cast<int>(single_qubit_states.size());
  StateVector sv(n);
  // Iterative tensor growth: after processing qubit q the leading 2^(q+1)
  // amplitudes hold the product state of qubits 0..q — O(2^n) multiplies
  // total instead of O(n * 2^n) per-amplitude bit-walking. The high-to-low
  // sweep lets the doubling happen in place, and the multiplication order
  // per amplitude (qubit 0 first) matches the old per-amplitude product
  // exactly, so the amplitudes are bit-for-bit unchanged.
  sv.amps_[0] = cx{1.0, 0.0};
  index_t grown = 1;
  for (int q = 0; q < n; ++q) {
    const CVec& s = single_qubit_states[static_cast<std::size_t>(q)];
    QCUT_CHECK(s.size() == 2, "StateVector::product_state: each state must have length 2");
    for (index_t i = grown; i-- > 0;) {
      const cx low = sv.amps_[i];
      sv.amps_[i + grown] = low * s[1];
      sv.amps_[i] = low * s[0];
    }
    grown <<= 1;
  }
  return sv;
}

cx StateVector::amplitude(index_t basis_state) const {
  QCUT_CHECK(basis_state < dim(), "StateVector::amplitude: index out of range");
  return amps_[basis_state];
}

void StateVector::apply_matrix(const CMat& m, std::span<const int> qubits) {
  QCUT_CHECK(m.is_square(),
             "StateVector::apply_matrix: matrix dimension must be 2^(number of qubits)");
  apply_matrix(m.view(), qubits);
}

void StateVector::apply_matrix(linalg::SquareView m, std::span<const int> qubits) {
  QCUT_CHECK(!qubits.empty(), "StateVector::apply_matrix: need at least one qubit");
  for (int q : qubits) {
    QCUT_CHECK(q >= 0 && q < num_qubits_, "StateVector::apply_matrix: qubit out of range");
  }
  QCUT_CHECK(m.dim == pow2(static_cast<int>(qubits.size())),
             "StateVector::apply_matrix: matrix dimension must be 2^(number of qubits)");

  if (qubits.size() == 1) {
    apply_1q(m, qubits[0]);
  } else if (qubits.size() == 2) {
    apply_2q(m, qubits[0], qubits[1]);
  } else {
    apply_kq(m, qubits);
  }
}

// apply_1q and apply_2q spell out GCC's std::complex product of finite
// values, (a*c - b*d, a*d + b*c), in real arithmetic, and sum in the
// complex expressions' order: bit for bit those expressions for finite
// amplitudes, without the NaN-recovery branch that keeps their loops scalar.
// Amplitudes are read as interleaved (re, im) doubles, the layout
// std::complex guarantees.

void StateVector::apply_1q(linalg::SquareView m, int qubit) {
  const index_t stride = pow2(qubit);
  const double m00r = m(0, 0).real(), m00i = m(0, 0).imag();
  const double m01r = m(0, 1).real(), m01i = m(0, 1).imag();
  const double m10r = m(1, 0).real(), m10i = m(1, 0).imag();
  const double m11r = m(1, 1).real(), m11i = m(1, 1).imag();
  double* amps = reinterpret_cast<double*>(amps_.data());
  for (index_t base = 0; base < dim(); base += 2 * stride) {
    for (index_t offset = 0; offset < stride; ++offset) {
      double* p0 = amps + 2 * (base + offset);
      double* p1 = p0 + 2 * stride;
      const double a0r = p0[0], a0i = p0[1];
      const double a1r = p1[0], a1i = p1[1];
      // m00 * a0 + m01 * a1 and m10 * a0 + m11 * a1
      p0[0] = (m00r * a0r - m00i * a0i) + (m01r * a1r - m01i * a1i);
      p0[1] = (m00r * a0i + m00i * a0r) + (m01r * a1i + m01i * a1r);
      p1[0] = (m10r * a0r - m10i * a0i) + (m11r * a1r - m11i * a1i);
      p1[1] = (m10r * a0i + m10i * a0r) + (m11r * a1i + m11i * a1r);
    }
  }
}

void StateVector::apply_2q(linalg::SquareView m, int q0, int q1) {
  // Bit j of the matrix index corresponds to qubit qj.
  const int lo = std::min(q0, q1);
  const int hi = std::max(q0, q1);
  const index_t mask0 = pow2(q0);
  const index_t mask1 = pow2(q1);
  const std::array<int, 2> positions = {lo, hi};
  std::array<double, 16> mr{};
  std::array<double, 16> mi{};
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      mr[4 * r + c] = m(r, c).real();
      mi[4 * r + c] = m(r, c).imag();
    }
  }
  double* amps = reinterpret_cast<double*>(amps_.data());
  const index_t groups = dim() >> 2;
  for (index_t g = 0; g < groups; ++g) {
    const index_t base = insert_zero_bits(g, positions);
    const std::array<index_t, 4> idx = {base, base | mask0, base | mask1, base | mask0 | mask1};
    std::array<double, 4> in_r{};
    std::array<double, 4> in_i{};
    for (std::size_t j = 0; j < 4; ++j) {
      in_r[j] = amps[2 * idx[j]];
      in_i[j] = amps[2 * idx[j] + 1];
    }
    for (std::size_t r = 0; r < 4; ++r) {
      // acc = 0; acc += m(r, c) * in[c] for c = 0..3
      double acc_r = 0.0;
      double acc_i = 0.0;
      for (std::size_t c = 0; c < 4; ++c) {
        acc_r += mr[4 * r + c] * in_r[c] - mi[4 * r + c] * in_i[c];
        acc_i += mr[4 * r + c] * in_i[c] + mi[4 * r + c] * in_r[c];
      }
      amps[2 * idx[r]] = acc_r;
      amps[2 * idx[r] + 1] = acc_i;
    }
  }
}

void StateVector::apply_kq(linalg::SquareView m, std::span<const int> qubits) {
  const int k = static_cast<int>(qubits.size());
  const index_t block = pow2(k);

  // Inline up to 3 qubits (8 amplitudes): only Custom blocks on more spill.
  circuit::InlineList<int, 3> sorted(qubits);
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i + 1 < k; ++i) {
    QCUT_CHECK(sorted[static_cast<std::size_t>(i)] != sorted[static_cast<std::size_t>(i + 1)],
               "StateVector::apply_matrix: qubits must be distinct");
  }

  // Pattern p (matrix index) scatters onto the state index via the original
  // qubit order: bit j of p -> bit qubits[j].
  circuit::InlineList<index_t, 8> offsets(block);
  for (index_t p = 0; p < block; ++p) {
    offsets[p] = scatter_bits(p, qubits);
  }

  circuit::InlineList<cx, 8> in(block);
  circuit::InlineList<cx, 8> out(block);
  const index_t groups = dim() >> k;
  for (index_t g = 0; g < groups; ++g) {
    const index_t base = insert_zero_bits(g, sorted);
    for (index_t p = 0; p < block; ++p) in[p] = amps_[base | offsets[p]];
    for (index_t r = 0; r < block; ++r) {
      cx acc{0.0, 0.0};
      for (index_t c = 0; c < block; ++c) acc += m(r, c) * in[c];
      out[r] = acc;
    }
    for (index_t p = 0; p < block; ++p) amps_[base | offsets[p]] = out[p];
  }
}

void StateVector::apply_operation(const Operation& op) {
  if (op.kind == circuit::GateKind::Custom) {
    apply_matrix(op.custom.view(), op.qubits);
  } else if (op.num_qubits() == 1) {
    apply_matrix(circuit::gate_matrix_1q(op.kind, op.params).view(), op.qubits);
  } else if (op.num_qubits() == 2) {
    apply_matrix(circuit::gate_matrix_2q(op.kind, op.params).view(), op.qubits);
  } else {
    apply_matrix(circuit::gate_matrix_3q(op.kind).view(), op.qubits);
  }
}

void StateVector::apply_circuit(const Circuit& circuit) {
  QCUT_CHECK(circuit.num_qubits() == num_qubits_,
             "StateVector::apply_circuit: circuit width must match the register");
  for (const Operation& op : circuit.ops()) {
    apply_operation(op);
  }
}

std::vector<double> StateVector::probabilities() const {
  std::vector<double> probs;
  probabilities_into(probs);
  return probs;
}

void StateVector::probabilities_into(std::vector<double>& out) const {
  out.resize(dim());
  for (index_t i = 0; i < dim(); ++i) out[i] = std::norm(amps_[i]);
}

double StateVector::probability_of(index_t basis_state) const {
  QCUT_CHECK(basis_state < dim(), "StateVector::probability_of: index out of range");
  return std::norm(amps_[basis_state]);
}

double StateVector::expectation_pauli(const PauliString& pauli) const {
  QCUT_CHECK(pauli.num_qubits() == num_qubits_,
             "StateVector::expectation_pauli: width mismatch");
  const std::vector<int> support = pauli.support();
  if (support.empty()) return 1.0;

  // Single zero-copy pass. A Pauli string maps each basis state to exactly
  // one other: P|j> = i^{nY} * (-1)^{popcount(j & (ymask|zmask))} |j ^ flip>
  // with flip = xmask|ymask, so <psi|P|psi> accumulates one product per
  // amplitude instead of copying the state and applying matrices.
  index_t flip_mask = 0;
  index_t sign_mask = 0;
  int num_y = 0;
  for (int q : support) {
    switch (pauli.label(q)) {
      case linalg::Pauli::X:
        flip_mask |= pow2(q);
        break;
      case linalg::Pauli::Y:
        flip_mask |= pow2(q);
        sign_mask |= pow2(q);
        ++num_y;
        break;
      case linalg::Pauli::Z:
        sign_mask |= pow2(q);
        break;
      case linalg::Pauli::I:
        break;
    }
  }
  static constexpr std::array<cx, 4> kIPowers = {cx{1.0, 0.0}, cx{0.0, 1.0}, cx{-1.0, 0.0},
                                                 cx{0.0, -1.0}};
  cx acc{0.0, 0.0};
  for (index_t j = 0; j < dim(); ++j) {
    const cx term = std::conj(amps_[j ^ flip_mask]) * amps_[j];
    acc += parity(j & sign_mask) != 0 ? -term : term;
  }
  return (kIPowers[static_cast<std::size_t>(num_y & 3)] * acc).real();
}

cx StateVector::expectation(const CMat& op, std::span<const int> qubits) const {
  if (qubits.size() == 1) {
    // Single zero-copy pass over the amplitude pairs of the target qubit.
    QCUT_CHECK(op.rows() == 2 && op.cols() == 2,
               "StateVector::expectation: matrix dimension must be 2^(number of qubits)");
    const int q = qubits[0];
    QCUT_CHECK(q >= 0 && q < num_qubits_, "StateVector::expectation: qubit out of range");
    const index_t qmask = pow2(q);
    const cx o00 = op(0, 0), o01 = op(0, 1), o10 = op(1, 0), o11 = op(1, 1);
    cx acc{0.0, 0.0};
    for (index_t j = 0; j < dim() >> 1; ++j) {
      const index_t i0 = insert_zero_bit(j, q);
      const index_t i1 = i0 | qmask;
      const cx a0 = amps_[i0];
      const cx a1 = amps_[i1];
      acc += std::conj(a0) * (o00 * a0 + o01 * a1) + std::conj(a1) * (o10 * a0 + o11 * a1);
    }
    return acc;
  }
  StateVector transformed = *this;
  transformed.apply_matrix(op, qubits);
  return linalg::inner(amps_, transformed.amps_);
}

CMat StateVector::density_matrix() const {
  QCUT_CHECK(num_qubits_ <= 12, "StateVector::density_matrix: too many qubits");
  return linalg::outer(amps_, amps_);
}

CMat StateVector::reduced_density_matrix(std::span<const int> keep_qubits) const {
  const int k = static_cast<int>(keep_qubits.size());
  QCUT_CHECK(k >= 1 && k <= num_qubits_,
             "StateVector::reduced_density_matrix: invalid qubit count");
  QCUT_CHECK(k <= 12, "StateVector::reduced_density_matrix: too many kept qubits");
  for (int q : keep_qubits) {
    QCUT_CHECK(q >= 0 && q < num_qubits_,
               "StateVector::reduced_density_matrix: qubit out of range");
  }

  std::vector<int> env;
  for (int q = 0; q < num_qubits_; ++q) {
    if (std::find(keep_qubits.begin(), keep_qubits.end(), q) == keep_qubits.end()) {
      env.push_back(q);
    }
  }
  QCUT_CHECK(static_cast<int>(env.size()) + k == num_qubits_,
             "StateVector::reduced_density_matrix: kept qubits must be distinct");

  const index_t keep_dim = pow2(k);
  const index_t env_dim = pow2(num_qubits_ - k);
  // Precompute the scattered-bit tables once: the inner loop previously
  // recomputed scatter_bits(e, env) for every (i, j) pair — O(keep_dim^2 *
  // env_dim * n) bit work for what is a fixed env_dim-entry table.
  std::vector<index_t> keep_bits(keep_dim);
  for (index_t i = 0; i < keep_dim; ++i) keep_bits[i] = scatter_bits(i, keep_qubits);
  std::vector<index_t> env_bits(env_dim);
  for (index_t e = 0; e < env_dim; ++e) env_bits[e] = scatter_bits(e, env);

  CMat rho(keep_dim, keep_dim);
  for (index_t i = 0; i < keep_dim; ++i) {
    for (index_t j = 0; j < keep_dim; ++j) {
      cx acc{0.0, 0.0};
      for (index_t e = 0; e < env_dim; ++e) {
        acc += amps_[keep_bits[i] | env_bits[e]] * std::conj(amps_[keep_bits[j] | env_bits[e]]);
      }
      rho(i, j) = acc;
    }
  }
  return rho;
}

double StateVector::norm() const { return linalg::norm(amps_); }

void StateVector::normalize() {
  const double n = norm();
  QCUT_CHECK(n > 1e-300, "StateVector::normalize: zero state");
  const double inv = 1.0 / n;
  for (cx& a : amps_) a *= inv;
}

CMat circuit_unitary(const Circuit& circuit) {
  QCUT_CHECK(circuit.num_qubits() <= 10, "circuit_unitary: too many qubits");
  const index_t dim = pow2(circuit.num_qubits());
  CMat u(dim, dim);
  for (index_t col = 0; col < dim; ++col) {
    CVec basis(dim, cx{0.0, 0.0});
    basis[col] = cx{1.0, 0.0};
    StateVector sv = StateVector::from_amplitudes(std::move(basis));
    sv.apply_circuit(circuit);
    for (index_t row = 0; row < dim; ++row) {
      u(row, col) = sv.amplitude(row);
    }
  }
  return u;
}

}  // namespace qcut::sim
