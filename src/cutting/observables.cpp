#include "cutting/observables.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "cutting/fragment_graph.hpp"
#include "linalg/ops.hpp"
#include "sim/statevector.hpp"

namespace qcut::cutting {

DiagonalObservable::DiagonalObservable(std::vector<double> diagonal)
    : diagonal_(std::move(diagonal)) {
  QCUT_CHECK(is_pow2(diagonal_.size()) && diagonal_.size() >= 2,
             "DiagonalObservable: diagonal length must be 2^n with n >= 1");
  num_qubits_ = log2_exact(diagonal_.size());
}

DiagonalObservable DiagonalObservable::projector(int num_qubits, index_t bitstring) {
  QCUT_CHECK(num_qubits >= 1 && num_qubits <= 30, "DiagonalObservable: invalid width");
  QCUT_CHECK(bitstring < pow2(num_qubits), "DiagonalObservable: bitstring out of range");
  std::vector<double> diag(pow2(num_qubits), 0.0);
  diag[bitstring] = 1.0;
  return DiagonalObservable(std::move(diag));
}

DiagonalObservable DiagonalObservable::from_pauli(const circuit::PauliString& pauli) {
  index_t z_mask = 0;
  for (int q = 0; q < pauli.num_qubits(); ++q) {
    const Pauli label = pauli.label(q);
    QCUT_CHECK(label == Pauli::I || label == Pauli::Z,
               "DiagonalObservable::from_pauli: observable must be diagonal (I/Z only)");
    if (label == Pauli::Z) z_mask = set_bit(z_mask, q);
  }
  std::vector<double> diag(pow2(pauli.num_qubits()));
  for (index_t x = 0; x < diag.size(); ++x) {
    diag[x] = ::qcut::parity(x & z_mask) == 0 ? 1.0 : -1.0;
  }
  return DiagonalObservable(std::move(diag));
}

DiagonalObservable DiagonalObservable::parity(int num_qubits) {
  circuit::PauliString all_z(num_qubits);
  for (int q = 0; q < num_qubits; ++q) all_z.set_label(q, Pauli::Z);
  return from_pauli(all_z);
}

double DiagonalObservable::value(index_t basis_state) const {
  QCUT_CHECK(basis_state < diagonal_.size(), "DiagonalObservable::value: index out of range");
  return diagonal_[basis_state];
}

double DiagonalObservable::expectation(std::span<const double> probabilities) const {
  QCUT_CHECK(probabilities.size() == diagonal_.size(),
             "DiagonalObservable::expectation: distribution size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < diagonal_.size(); ++i) acc += diagonal_[i] * probabilities[i];
  return acc;
}

DiagonalObservable DiagonalObservable::linear_combination(double a,
                                                          const DiagonalObservable& other,
                                                          double b) const {
  QCUT_CHECK(other.num_qubits_ == num_qubits_,
             "DiagonalObservable::linear_combination: width mismatch");
  std::vector<double> diag(diagonal_.size());
  for (std::size_t i = 0; i < diag.size(); ++i) {
    diag[i] = a * diagonal_[i] + b * other.diagonal_[i];
  }
  return DiagonalObservable(std::move(diag));
}

bool DiagonalObservable::try_restrict(std::span<const int> qubits,
                                      std::vector<double>& restricted) const {
  // O must equal O_qubits (x) I_rest: value(x) depends only on bits at
  // `qubits`.
  const index_t sub_dim = pow2(static_cast<int>(qubits.size()));
  restricted.assign(sub_dim, 0.0);
  for (index_t s = 0; s < sub_dim; ++s) {
    restricted[s] = diagonal_[scatter_bits(s, qubits)];
  }
  for (index_t x = 0; x < diagonal_.size(); ++x) {
    if (std::abs(diagonal_[x] - restricted[gather_bits(x, qubits)]) > 1e-12) {
      return false;
    }
  }
  return true;
}

namespace {

/// Factorizes value(x) = a(x_A) * b(x_B) over the qubit partition (A, B).
/// Returns false if the diagonal does not factorize.
bool try_factorize(const std::vector<double>& diagonal, std::span<const int> a_qubits,
                   std::span<const int> b_qubits, std::vector<double>& a_out,
                   std::vector<double>& b_out) {
  const index_t a_dim = pow2(static_cast<int>(a_qubits.size()));
  const index_t b_dim = pow2(static_cast<int>(b_qubits.size()));
  QCUT_ASSERT(a_dim * b_dim == diagonal.size(), "try_factorize: partition width mismatch");

  // Find a nonzero reference entry.
  index_t ref = diagonal.size();
  for (index_t x = 0; x < diagonal.size(); ++x) {
    if (diagonal[x] != 0.0) {
      ref = x;
      break;
    }
  }
  a_out.assign(a_dim, 0.0);
  b_out.assign(b_dim, 0.0);
  if (ref == diagonal.size()) {
    return true;  // identically zero factorizes trivially
  }

  const index_t ref_a_bits = ref & scatter_bits(a_dim - 1, a_qubits);
  const index_t ref_b_bits = ref & scatter_bits(b_dim - 1, b_qubits);
  const double ref_value = diagonal[ref];
  for (index_t a = 0; a < a_dim; ++a) {
    a_out[a] = diagonal[scatter_bits(a, a_qubits) | ref_b_bits];
  }
  for (index_t b = 0; b < b_dim; ++b) {
    b_out[b] = diagonal[ref_a_bits | scatter_bits(b, b_qubits)] / ref_value;
  }
  for (index_t a = 0; a < a_dim; ++a) {
    for (index_t b = 0; b < b_dim; ++b) {
      const double expected = a_out[a] * b_out[b];
      const double actual = diagonal[scatter_bits(a, a_qubits) | scatter_bits(b, b_qubits)];
      if (std::abs(expected - actual) > 1e-10) return false;
    }
  }
  return true;
}

}  // namespace

GoldenDetectionReport detect_golden_for_observable(const Bipartition& bp,
                                                   const DiagonalObservable& observable,
                                                   double tol) {
  std::optional<GoldenDetectionReport> report =
      try_detect_golden_for_observable(bp, observable, tol);
  QCUT_CHECK(report.has_value(),
             "detect_golden_for_observable: observable does not factorize across the "
             "bipartition (O = O_f1 x O_f2 required, as in Eq. 14)");
  return *std::move(report);
}

std::optional<GoldenDetectionReport> try_detect_golden_for_observable(
    const Bipartition& bp, const DiagonalObservable& observable, double tol) {
  const ChainFragment& upstream = upstream_fragment(bp);
  sim::StateVector psi(upstream.width());
  psi.apply_circuit(upstream.circuit);
  return try_detect_golden_for_observable_core(fragment_layout(upstream), psi.amplitudes(),
                                               observable, upstream.output_original,
                                               bp.fragments[1].to_original, tol);
}

std::optional<GoldenDetectionReport> try_detect_golden_for_observable_core(
    const FragmentLayout& layout, std::span<const linalg::cx> amps,
    const DiagonalObservable& observable, std::span<const int> output_original,
    std::span<const int> downstream_original, double tol) {
  // The upstream outputs and the downstream fragment partition the
  // original qubits.
  QCUT_CHECK(observable.num_qubits() ==
                 static_cast<int>(output_original.size() + downstream_original.size()),
             "detect_golden_for_observable: observable width must match the circuit");
  QCUT_CHECK(amps.size() == pow2(layout.width),
             "detect_golden_for_observable: amplitude count must be 2^(fragment width)");

  // Factorize the observable across the bipartition: A = f1 output qubits
  // (original indices), B = f2 qubits.
  std::vector<double> o_f1, o_f2;
  if (!try_factorize(observable.diagonal(), output_original, downstream_original, o_f1, o_f2)) {
    return std::nullopt;
  }

  const int num_cuts = layout.num_cuts;
  const std::vector<int>& cut_qubits = layout.cut_qubits;
  const std::vector<int>& out_qubits = layout.out_qubits;

  // Observable-weighted conditional cut matrix:
  //   W = sum_{b1} O_f1(b1) * rho_cut(b1)
  // so that tr(W * (ctx x P)) = sum_r r tr(O_f1 rho_f1(...)) once the
  // eigenvalue sum is folded into the Pauli matrix P.
  const index_t out_dim = pow2(static_cast<int>(out_qubits.size()));
  const index_t cut_dim = pow2(num_cuts);
  linalg::CMat weighted(cut_dim, cut_dim);
  for (index_t b1 = 0; b1 < out_dim; ++b1) {
    const double weight = o_f1[b1];
    if (weight == 0.0) continue;
    const index_t base = scatter_bits(b1, out_qubits);
    for (index_t c = 0; c < cut_dim; ++c) {
      const index_t ic = base | scatter_bits(c, cut_qubits);
      for (index_t cp = 0; cp < cut_dim; ++cp) {
        const index_t icp = base | scatter_bits(cp, cut_qubits);
        weighted(c, cp) += linalg::cx{weight, 0.0} * amps[ic] * std::conj(amps[icp]);
      }
    }
  }

  GoldenDetectionReport report;
  report.violation.assign(static_cast<std::size_t>(num_cuts), {0.0, 0.0, 0.0, 0.0});
  report.golden.assign(static_cast<std::size_t>(num_cuts), {false, false, false, false});

  std::uint64_t num_contexts = 1;
  for (int j = 0; j + 1 < num_cuts; ++j) num_contexts *= kNumPrepStates;

  std::vector<linalg::CMat> slot(static_cast<std::size_t>(num_cuts));
  for (int k = 0; k < num_cuts; ++k) {
    for (Pauli p : linalg::kAllPaulis) {
      double violation = 0.0;
      for (std::uint64_t ctx = 0; ctx < num_contexts; ++ctx) {
        std::uint64_t rest = ctx;
        for (int j = 0; j < num_cuts; ++j) {
          if (j == k) {
            slot[static_cast<std::size_t>(j)] = linalg::pauli_matrix(p);
          } else {
            slot[static_cast<std::size_t>(j)] =
                context_projectors()[static_cast<std::size_t>(rest % kNumPrepStates)];
            rest /= kNumPrepStates;
          }
        }
        linalg::CMat op = slot[static_cast<std::size_t>(num_cuts - 1)];
        for (int j = num_cuts - 2; j >= 0; --j) {
          op = linalg::kron(op, slot[static_cast<std::size_t>(j)]);
        }
        violation = std::max(violation, std::abs(linalg::trace_of_product(weighted, op)));
      }
      report.violation[static_cast<std::size_t>(k)][static_cast<std::size_t>(p)] = violation;
      report.golden[static_cast<std::size_t>(k)][static_cast<std::size_t>(p)] =
          p != Pauli::I && violation <= tol;
    }
  }
  return report;
}

PauliEstimationPlan prepare_pauli_estimation(const Circuit& circuit,
                                             const circuit::PauliString& pauli) {
  QCUT_CHECK(pauli.num_qubits() == circuit.num_qubits(),
             "prepare_pauli_estimation: observable width must match the circuit");
  Circuit rotated = circuit;
  circuit::PauliString z_form(pauli.num_qubits());
  for (int q = 0; q < pauli.num_qubits(); ++q) {
    switch (pauli.label(q)) {
      case Pauli::I:
        break;
      case Pauli::Z:
        z_form.set_label(q, Pauli::Z);
        break;
      case Pauli::X:
        rotated.h(q);
        z_form.set_label(q, Pauli::Z);
        break;
      case Pauli::Y:
        rotated.sdg(q);
        rotated.h(q);
        z_form.set_label(q, Pauli::Z);
        break;
    }
  }
  return PauliEstimationPlan{std::move(rotated), DiagonalObservable::from_pauli(z_form)};
}

}  // namespace qcut::cutting
