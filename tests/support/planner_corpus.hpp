#pragma once
// The cut planner's seeded circuit corpus, shared by the planner's
// bit-exactness fixtures and the service's planned-admission test.

#include <vector>

#include "circuit/random.hpp"

namespace qcut::cutting {

/// The paper's Fig. 2 circuits at 3-8 qubits with golden Y and golden X
/// upstream blocks, and random General / RealAmplitude circuits at 2-8
/// qubits, six seeded repetitions.
inline std::vector<circuit::Circuit> planner_corpus() {
  std::vector<circuit::Circuit> corpus;
  Rng rng(2023);
  for (int rep = 0; rep < 6; ++rep) {
    for (int n = 3; n <= 8; ++n) {
      for (const linalg::Pauli basis : {linalg::Pauli::Y, linalg::Pauli::X}) {
        circuit::GoldenAnsatzOptions options;
        options.num_qubits = n;
        options.golden_basis = basis;
        options.upstream_depth = 1 + rep % 3;
        corpus.push_back(circuit::make_golden_ansatz(options, rng).circuit);
      }
    }
    for (int n = 2; n <= 8; ++n) {
      for (const circuit::GateSet set :
           {circuit::GateSet::General, circuit::GateSet::RealAmplitude}) {
        circuit::RandomCircuitOptions options;
        options.num_qubits = n;
        options.depth = 2 + rep % 3;
        options.gate_set = set;
        corpus.push_back(circuit::random_circuit(options, rng));
      }
    }
  }
  return corpus;
}

}  // namespace qcut::cutting
