#include "cutting/golden.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "cutting/fragment_graph.hpp"
#include "linalg/ops.hpp"
#include "metrics/stats.hpp"
#include "sim/statevector.hpp"

namespace qcut::cutting {

NeglectSpec::NeglectSpec(int num_cuts) {
  QCUT_CHECK(num_cuts >= 1 && num_cuts <= 12, "NeglectSpec: supported cut counts are 1..12");
  neglected_.assign(static_cast<std::size_t>(num_cuts), {false, false, false, false});
}

NeglectSpec& NeglectSpec::neglect(int cut, Pauli basis) {
  QCUT_CHECK(cut >= 0 && cut < num_cuts(), "NeglectSpec::neglect: cut index out of range");
  QCUT_CHECK(basis != Pauli::I, "NeglectSpec::neglect: the identity element cannot be neglected");
  neglected_[static_cast<std::size_t>(cut)][static_cast<std::size_t>(basis)] = true;
  return *this;
}

NeglectSpec& NeglectSpec::neglect_string(std::vector<Pauli> basis_string) {
  QCUT_CHECK(static_cast<int>(basis_string.size()) == num_cuts(),
             "NeglectSpec::neglect_string: string length must equal the cut count");
  neglected_strings_.insert(std::move(basis_string));
  return *this;
}

bool NeglectSpec::is_neglected(int cut, Pauli basis) const {
  QCUT_CHECK(cut >= 0 && cut < num_cuts(), "NeglectSpec::is_neglected: cut index out of range");
  return neglected_[static_cast<std::size_t>(cut)][static_cast<std::size_t>(basis)];
}

std::vector<Pauli> NeglectSpec::active_paulis(int cut) const {
  QCUT_CHECK(cut >= 0 && cut < num_cuts(), "NeglectSpec::active_paulis: cut index out of range");
  std::vector<Pauli> out;
  for (Pauli p : linalg::kAllPaulis) {
    if (!neglected_[static_cast<std::size_t>(cut)][static_cast<std::size_t>(p)]) {
      out.push_back(p);
    }
  }
  return out;
}

bool NeglectSpec::is_string_active(std::span<const Pauli> basis_string) const {
  QCUT_CHECK(static_cast<int>(basis_string.size()) == num_cuts(),
             "NeglectSpec::is_string_active: string length must equal the cut count");
  for (int k = 0; k < num_cuts(); ++k) {
    if (is_neglected(k, basis_string[static_cast<std::size_t>(k)])) return false;
  }
  if (!neglected_strings_.empty()) {
    std::vector<Pauli> key(basis_string.begin(), basis_string.end());
    if (neglected_strings_.count(key) > 0) return false;
  }
  return true;
}

std::vector<std::vector<Pauli>> NeglectSpec::active_strings() const {
  const int k = num_cuts();
  std::uint64_t total = 1;
  for (int i = 0; i < k; ++i) total *= 4;

  std::vector<std::vector<Pauli>> out;
  std::vector<Pauli> current(static_cast<std::size_t>(k));
  for (std::uint64_t code = 0; code < total; ++code) {
    std::uint64_t rest = code;
    for (int i = 0; i < k; ++i) {
      current[static_cast<std::size_t>(i)] = static_cast<Pauli>(rest % 4);
      rest /= 4;
    }
    if (is_string_active(current)) out.push_back(current);
  }
  return out;
}

std::uint64_t NeglectSpec::num_active_strings() const {
  return static_cast<std::uint64_t>(active_strings().size());
}

int NeglectSpec::num_golden_cuts() const {
  int golden = 0;
  for (int k = 0; k < num_cuts(); ++k) {
    const auto& flags = neglected_[static_cast<std::size_t>(k)];
    if (std::any_of(flags.begin(), flags.end(), [](bool b) { return b; })) ++golden;
  }
  return golden;
}

std::uint64_t NeglectSpec::per_cut_term_count() const {
  std::uint64_t total = 1;
  for (int k = 0; k < num_cuts(); ++k) {
    total *= static_cast<std::uint64_t>(active_paulis(k).size());
  }
  return total;
}

NeglectSpec GoldenDetectionReport::to_spec() const {
  NeglectSpec spec(static_cast<int>(golden.size()));
  for (int k = 0; k < static_cast<int>(golden.size()); ++k) {
    for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
      if (golden[static_cast<std::size_t>(k)][static_cast<std::size_t>(p)]) {
        spec.neglect(k, p);
      }
    }
  }
  return spec;
}

const std::vector<linalg::CMat>& context_projectors() {
  static const std::vector<linalg::CMat> projectors = [] {
    std::vector<linalg::CMat> out;
    for (linalg::PrepState s : linalg::kAllPrepStates) {
      const linalg::CVec& v = linalg::prep_state_vector(s);
      out.push_back(linalg::outer(v, v));
    }
    return out;
  }();
  return projectors;
}

const ChainFragment& upstream_fragment(const Bipartition& bp) {
  QCUT_CHECK(bp.num_fragments() == 2,
             "golden detection needs a 2-fragment bipartition, got " +
                 std::to_string(bp.num_fragments()) + " fragments");
  return bp.fragments.front();
}

FragmentLayout fragment_layout(const ChainFragment& fragment) {
  FragmentLayout layout;
  layout.num_cuts = fragment.num_out();
  layout.width = fragment.width();
  layout.cut_qubits = fragment.out_cut_qubits;
  layout.out_qubits = fragment.output_qubits;
  return layout;
}

GoldenDetectionReport detect_golden_exact(const Bipartition& bp, double tol) {
  const ChainFragment& upstream = upstream_fragment(bp);
  sim::StateVector psi(upstream.width());
  psi.apply_circuit(upstream.circuit);
  return detect_golden_exact_core(fragment_layout(upstream), psi.amplitudes(), tol);
}

std::array<double, 4> single_cut_violations(std::span<const linalg::cx> amps, int cut_qubit,
                                            std::span<const int> out_qubits) {
  // One cut, no context: per output bitstring, the traces of its 2x2
  // conditional matrix rho[c][c'] = a_c * conj(a_c') against I, X, Y and
  // Z, written out. They are the dense sum of the multi-cut test without
  // its products with the Paulis' zero entries, which add only signed
  // zeros, and its products with 1, -1, i and -i, which are exact: each
  // trace has the dense sum's value, so |trace| has its bits.
  const index_t cut_bit = pow2(cut_qubit);
  const index_t out_dim = pow2(static_cast<int>(out_qubits.size()));
  std::array<double, 4> violation = {0.0, 0.0, 0.0, 0.0};
  for (index_t b1 = 0; b1 < out_dim; ++b1) {
    const index_t base = scatter_bits(b1, out_qubits);
    const linalg::cx a0 = amps[base];
    const linalg::cx a1 = amps[base | cut_bit];
    const linalg::cx r00 = a0 * std::conj(a0);
    const linalg::cx r01 = a0 * std::conj(a1);
    const linalg::cx r10 = a1 * std::conj(a0);
    const linalg::cx r11 = a1 * std::conj(a1);
    const std::array<double, 4> traces = {
        std::abs(r00 + r11),                                                     // I
        std::abs(r01 + r10),                                                     // X
        std::abs(linalg::cx{r10.imag() - r01.imag(), r01.real() - r10.real()}),  // Y
        std::abs(r00 - r11)};                                                    // Z
    for (std::size_t p = 0; p < traces.size(); ++p) {
      violation[p] = std::max(violation[p], traces[p]);
    }
  }
  return violation;
}

GoldenDetectionReport detect_golden_exact_core(const FragmentLayout& layout,
                                               std::span<const linalg::cx> amps, double tol) {
  QCUT_CHECK(amps.size() == pow2(layout.width),
             "detect_golden_exact: amplitude count must be 2^(fragment width)");
  const int num_cuts = layout.num_cuts;
  const std::vector<int>& cut_qubits = layout.cut_qubits;
  const std::vector<int>& out_qubits = layout.out_qubits;
  const index_t out_dim = pow2(static_cast<int>(out_qubits.size()));

  GoldenDetectionReport report;
  report.violation.assign(static_cast<std::size_t>(num_cuts), {0.0, 0.0, 0.0, 0.0});
  report.golden.assign(static_cast<std::size_t>(num_cuts), {false, false, false, false});

  if (num_cuts == 1) {
    std::array<double, 4>& violation = report.violation.front();
    violation = single_cut_violations(amps, cut_qubits.front(), out_qubits);
    for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
      report.golden.front()[static_cast<std::size_t>(p)] =
          violation[static_cast<std::size_t>(p)] <= tol;
    }
    return report;
  }

  // Conditional (unnormalized) cut-qubit density matrices per upstream
  // output bitstring b1, back to back: entry (c, cp) of b1's matrix lives at
  // (b1 * cut_dim + c) * cut_dim + cp.
  const index_t cut_dim = pow2(num_cuts);
  const index_t block = cut_dim * cut_dim;
  std::vector<index_t> cut_offset(cut_dim);
  for (index_t c = 0; c < cut_dim; ++c) cut_offset[c] = scatter_bits(c, cut_qubits);
  std::vector<linalg::cx> conditional(out_dim * block);
  for (index_t b1 = 0; b1 < out_dim; ++b1) {
    const index_t base = scatter_bits(b1, out_qubits);
    for (index_t c = 0; c < cut_dim; ++c) {
      const index_t ic = base | cut_offset[c];
      for (index_t cp = 0; cp < cut_dim; ++cp) {
        const index_t icp = base | cut_offset[cp];
        conditional[b1 * block + c * cut_dim + cp] = amps[ic] * std::conj(amps[icp]);
      }
    }
  }

  // Context combinations: each other cut takes one of the six projectors.
  std::uint64_t num_contexts = 1;
  for (int j = 0; j + 1 < num_cuts; ++j) num_contexts *= kNumPrepStates;

  std::vector<const linalg::CMat*> slot(static_cast<std::size_t>(num_cuts));
  linalg::CMat product;
  for (int k = 0; k < num_cuts; ++k) {
    for (Pauli p : linalg::kAllPaulis) {
      double violation = 0.0;
      for (std::uint64_t ctx = 0; ctx < num_contexts; ++ctx) {
        // Fill the slots: cut k carries the Pauli, the others projectors.
        std::uint64_t rest = ctx;
        for (int j = 0; j < num_cuts; ++j) {
          if (j == k) {
            slot[static_cast<std::size_t>(j)] = &linalg::pauli_matrix(p);
          } else {
            slot[static_cast<std::size_t>(j)] =
                &context_projectors()[static_cast<std::size_t>(rest % kNumPrepStates)];
            rest /= kNumPrepStates;
          }
        }
        // kron with slot 0 as the least significant index bit.
        const linalg::CMat* op = slot[static_cast<std::size_t>(num_cuts - 1)];
        for (int j = num_cuts - 2; j >= 0; --j) {
          product = linalg::kron(*op, *slot[static_cast<std::size_t>(j)]);
          op = &product;
        }
        for (index_t b1 = 0; b1 < out_dim; ++b1) {
          // tr(rho_b1 * op), summed in linalg::trace_of_product's order.
          const linalg::cx* rho = conditional.data() + b1 * block;
          linalg::cx trace{0.0, 0.0};
          for (index_t i = 0; i < cut_dim; ++i) {
            for (index_t j = 0; j < cut_dim; ++j) trace += rho[i * cut_dim + j] * (*op)(j, i);
          }
          violation = std::max(violation, std::abs(trace));
        }
      }
      report.violation[static_cast<std::size_t>(k)][static_cast<std::size_t>(p)] = violation;
      report.golden[static_cast<std::size_t>(k)][static_cast<std::size_t>(p)] =
          p != Pauli::I && violation <= tol;
    }
  }
  return report;
}

GoldenDetectionReport detect_golden_from_counts_core(const FragmentLayout& layout,
                                                     std::size_t num_contexts,
                                                     const SettingDistributionFn& distribution,
                                                     std::size_t shots,
                                                     const OnlineDetectionOptions& options) {
  const int num_cuts = layout.num_cuts;
  QCUT_CHECK(shots > 0, "detect_golden_from_counts: shots must be positive");
  QCUT_CHECK(options.alpha > 0.0 && options.alpha < 1.0,
             "detect_golden_from_counts: alpha must be in (0, 1)");
  QCUT_CHECK(num_contexts > 0, "detect_golden_from_counts: need at least one prep context");

  std::uint64_t num_settings = 1;
  for (int k = 0; k < num_cuts; ++k) num_settings *= kNumMeasSettings;
  const index_t dim = pow2(layout.width);

  const std::vector<int>& cut_qubits = layout.cut_qubits;
  const std::vector<int>& out_qubits = layout.out_qubits;
  const index_t out_dim = pow2(static_cast<int>(out_qubits.size()));
  const index_t cut_dim = pow2(num_cuts);

  // Total number of tested cells for the union bound: for each cut and each
  // of the 3 Paulis, 3^(K-1) settings x out_dim x 2^(K-1) same-boundary
  // contexts, times the incoming prep contexts.
  std::uint64_t settings_per_test = 1;
  for (int j = 0; j + 1 < num_cuts; ++j) settings_per_test *= kNumMeasSettings;
  const std::uint64_t contexts = cut_dim / 2;
  const std::uint64_t total_cells = static_cast<std::uint64_t>(num_cuts) * 3 *
                                    settings_per_test * out_dim * contexts *
                                    static_cast<std::uint64_t>(num_contexts);
  const double z = metrics::normal_quantile(
      1.0 - options.alpha / (2.0 * static_cast<double>(std::max<std::uint64_t>(1, total_cells))));

  GoldenDetectionReport report;
  report.violation.assign(static_cast<std::size_t>(num_cuts), {0.0, 0.0, 0.0, 0.0});
  report.golden.assign(static_cast<std::size_t>(num_cuts), {false, false, false, false});

  for (int k = 0; k < num_cuts; ++k) {
    for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
      const MeasSetting needed = setting_for(p);
      bool all_pass = true;
      double max_violation = 0.0;

      for (std::size_t ctx = 0; ctx < num_contexts; ++ctx) {
        for (std::uint32_t s = 0; s < num_settings; ++s) {
          const std::vector<MeasSetting> settings = decode_settings(s, num_cuts);
          if (settings[static_cast<std::size_t>(k)] != needed) continue;
          const std::vector<double>& probs = distribution(ctx, s);
          QCUT_CHECK(probs.size() == dim,
                     "detect_golden_from_counts: distribution size mismatch");

          // Accumulate g_hat and the cell mass per (b1, other-cut bits).
          // Cell key: b1 * 2^(K-1) + compressed other bits.
          std::vector<double> g_hat(out_dim * contexts, 0.0);
          std::vector<double> mass(out_dim * contexts, 0.0);
          for (index_t o = 0; o < dim; ++o) {
            const double pr = probs[o];
            if (pr == 0.0) continue;
            const index_t b1 = gather_bits(o, out_qubits);
            const index_t cut_bits = gather_bits(o, cut_qubits);
            const int a_k = bit(cut_bits, k);
            // Remove bit k from the cut bits to form the context key.
            const index_t low = cut_bits & (pow2(k) - 1);
            const index_t high = (cut_bits >> (k + 1)) << k;
            const index_t cell = b1 * contexts + (low | high);
            g_hat[cell] += eigenvalue_weight(p, a_k) * pr;
            mass[cell] += pr;
          }
          for (std::size_t cell = 0; cell < g_hat.size(); ++cell) {
            const double violation = std::abs(g_hat[cell]);
            max_violation = std::max(max_violation, violation);
            const double sigma = std::sqrt(mass[cell] / static_cast<double>(shots));
            if (violation > z * sigma + options.min_threshold) {
              all_pass = false;
            }
          }
        }
      }
      report.violation[static_cast<std::size_t>(k)][static_cast<std::size_t>(p)] = max_violation;
      report.golden[static_cast<std::size_t>(k)][static_cast<std::size_t>(p)] = all_pass;
    }
    // Identity: report the largest conditional mass for context, never golden.
    double identity_mass = 0.0;
    for (std::size_t ctx = 0; ctx < num_contexts; ++ctx) {
      for (std::uint32_t s = 0; s < num_settings; ++s) {
        for (double pr : distribution(ctx, s)) identity_mass = std::max(identity_mass, pr);
      }
    }
    report.violation[static_cast<std::size_t>(k)][static_cast<std::size_t>(Pauli::I)] =
        identity_mass;
  }
  return report;
}

GoldenDetectionReport detect_golden_from_counts(
    const Bipartition& bp, const std::vector<std::vector<double>>& upstream_probabilities,
    std::size_t shots, const OnlineDetectionOptions& options) {
  const ChainFragment& upstream = upstream_fragment(bp);
  std::uint64_t num_settings = 1;
  for (int k = 0; k < upstream.num_out(); ++k) num_settings *= kNumMeasSettings;
  QCUT_CHECK(upstream_probabilities.size() == num_settings,
             "detect_golden_from_counts: need all 3^K upstream settings");

  return detect_golden_from_counts_core(
      fragment_layout(upstream), 1,
      [&](std::size_t, std::uint32_t s) -> const std::vector<double>& {
        return upstream_probabilities[s];
      },
      shots, options);
}

std::vector<GoldenDetectionReport> detect_chain_golden_exact(
    const Circuit& circuit, std::span<const std::vector<WirePoint>> boundaries, double tol) {
  std::vector<GoldenDetectionReport> reports;
  reports.reserve(boundaries.size());
  for (const std::vector<WirePoint>& boundary : boundaries) {
    reports.push_back(detect_golden_exact(make_bipartition(circuit, boundary), tol));
  }
  return reports;
}

std::vector<NeglectSpec> detect_chain_golden_specs(
    const Circuit& circuit, std::span<const std::vector<WirePoint>> boundaries, double tol) {
  std::vector<NeglectSpec> specs;
  specs.reserve(boundaries.size());
  for (const GoldenDetectionReport& report :
       detect_chain_golden_exact(circuit, boundaries, tol)) {
    specs.push_back(report.to_spec());
  }
  return specs;
}

NeglectSpec neglect_odd_y_strings(int num_cuts) {
  NeglectSpec spec(num_cuts);
  if (num_cuts == 1) {
    spec.neglect(0, Pauli::Y);
    return spec;
  }
  std::uint64_t total = 1;
  for (int i = 0; i < num_cuts; ++i) total *= 4;
  std::vector<Pauli> current(static_cast<std::size_t>(num_cuts));
  for (std::uint64_t code = 0; code < total; ++code) {
    std::uint64_t rest = code;
    int y_count = 0;
    for (int i = 0; i < num_cuts; ++i) {
      current[static_cast<std::size_t>(i)] = static_cast<Pauli>(rest % 4);
      if (current[static_cast<std::size_t>(i)] == Pauli::Y) ++y_count;
      rest /= 4;
    }
    if (y_count % 2 == 1) {
      spec.neglect_string(current);
    }
  }
  return spec;
}

}  // namespace qcut::cutting
