#include "sim/soa_state.hpp"

#include "common/error.hpp"

namespace qcut::sim {

SoAState::SoAState(int num_qubits) : num_qubits_(num_qubits) {
  QCUT_CHECK(num_qubits >= 1 && num_qubits <= 26,
             "SoAState: qubit count must be between 1 and 26");
  const index_t dim = pow2(num_qubits);
  re_.assign(dim, 0.0);
  im_.assign(dim, 0.0);
  re_[0] = 1.0;
}

SoAState SoAState::from_statevector(const StateVector& sv) {
  SoAState out(sv.num_qubits());
  const CVec& amps = sv.amplitudes();
  for (index_t i = 0; i < out.dim(); ++i) {
    out.re_[i] = amps[i].real();
    out.im_[i] = amps[i].imag();
  }
  return out;
}

cx SoAState::amplitude(index_t basis_state) const {
  QCUT_CHECK(basis_state < dim(), "SoAState::amplitude: basis state out of range");
  return cx{re_[basis_state], im_[basis_state]};
}

void SoAState::probabilities_into(std::vector<double>& out) const {
  out.resize(dim());
  for (index_t i = 0; i < dim(); ++i) out[i] = re_[i] * re_[i] + im_[i] * im_[i];
}

}  // namespace qcut::sim
