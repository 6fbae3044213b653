#pragma once
// Split real/imaginary (structure-of-arrays) statevector storage: the one
// state layout of the gate-kernel engine (sim/engine.hpp) and CpuDevice.
//
// StateVector stores interleaved std::complex<double>, which forces every
// vector lane to carry a re/im pair and every SIMD complex multiply to
// shuffle in-register. Splitting the amplitudes into two plain double
// arrays lets the kernels (sim/simd_kernels.hpp) load W real parts and W
// imaginary parts with two contiguous loads and keep the complex
// arithmetic as independent multiply-add chains, at width 1 as at AVX
// width. The layout is only storage: the width-1 tier's results are bit for
// bit StateVector::apply_matrix's.

#include <vector>

#include "common/bits.hpp"
#include "sim/statevector.hpp"

namespace qcut::sim {

class SoAState {
 public:
  /// |0...0> on n qubits.
  explicit SoAState(int num_qubits);

  /// An exact copy of `sv`'s amplitudes (tests load random states this way).
  [[nodiscard]] static SoAState from_statevector(const StateVector& sv);

  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] index_t dim() const noexcept { return static_cast<index_t>(re_.size()); }

  [[nodiscard]] double* re() noexcept { return re_.data(); }
  [[nodiscard]] double* im() noexcept { return im_.data(); }
  [[nodiscard]] const double* re() const noexcept { return re_.data(); }
  [[nodiscard]] const double* im() const noexcept { return im_.data(); }

  [[nodiscard]] cx amplitude(index_t basis_state) const;

  /// Measurement probabilities, re^2 + im^2 per amplitude — the same
  /// expression StateVector::probabilities_into evaluates via std::norm.
  void probabilities_into(std::vector<double>& out) const;

 private:
  int num_qubits_ = 0;
  std::vector<double> re_;
  std::vector<double> im_;
};

}  // namespace qcut::sim
