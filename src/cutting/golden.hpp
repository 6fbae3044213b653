#pragma once
// Golden cutting points: neglected basis elements (the paper's contribution).
//
// NeglectSpec records which Pauli basis elements are neglected at each cut
// (Definition 1). Reconstruction skips every basis string containing a
// neglected element, and fragment execution skips the measurement settings
// and preparation states those strings would have needed: per-cut costs drop
// from 4 basis elements to 3, and downstream preparations from 6 to 4
// (O(4^Kr 3^Kg) terms, O(6^Kr 4^Kg) circuit evaluations).
//
// Beyond the paper's per-cut formalism, NeglectSpec also supports
// string-level neglect: for multi-cut real-amplitude circuits the terms
// that vanish are exactly the basis strings with an odd number of Y
// components (see DESIGN.md), which is not a per-cut product set.
//
// Two detectors are provided:
//  * detect_golden_exact: from the upstream fragment's statevector -
//    checks Definition 1 for every output bitstring and every context of
//    the other cuts. This is the "known a priori" mode of the paper's
//    experiments (our circuits are designed to be golden).
//  * detect_golden_from_counts: the paper's Section IV "online" proposal -
//    a statistical test on the measured upstream data with a union-bound
//    normal threshold.

#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/dag.hpp"
#include "cutting/basis.hpp"
#include "linalg/matrix.hpp"

namespace qcut::cutting {

using circuit::Circuit;
using circuit::WirePoint;

struct ChainFragment;
struct FragmentGraph;

/// The two-fragment split of Section II-B of the paper is the N=2 chain
/// (fragment_graph.hpp, which includes this header): fragments[0] is the
/// upstream fragment f1, fragments[1] the downstream f2, and boundaries[0]
/// holds the cut wires. make_bipartition builds one.
using Bipartition = FragmentGraph;

/// Fragment 0 of a two-fragment graph: the upstream side the
/// per-bipartition detectors below read. Throws qcut::Error for any other
/// fragment count, because boundary b of a longer chain is a property of
/// its whole prefix (detect_chain_golden_exact), never of fragment b alone.
[[nodiscard]] const ChainFragment& upstream_fragment(const Bipartition& bp);

class NeglectSpec {
 public:
  /// No neglected elements on `num_cuts` cuts (standard reconstruction).
  explicit NeglectSpec(int num_cuts);

  [[nodiscard]] static NeglectSpec none(int num_cuts) { return NeglectSpec(num_cuts); }

  [[nodiscard]] int num_cuts() const noexcept { return static_cast<int>(neglected_.size()); }

  /// Marks `basis` neglected at `cut`. Pauli I cannot be neglected (its
  /// weighted sum is a probability mass, never identically zero).
  NeglectSpec& neglect(int cut, Pauli basis);

  /// Marks one whole basis string (length num_cuts) neglected.
  NeglectSpec& neglect_string(std::vector<Pauli> basis_string);

  [[nodiscard]] bool is_neglected(int cut, Pauli basis) const;

  /// Active Pauli elements at one cut (those not neglected per-cut).
  [[nodiscard]] std::vector<Pauli> active_paulis(int cut) const;

  /// True if the basis string survives both per-cut and string-level
  /// neglect.
  [[nodiscard]] bool is_string_active(std::span<const Pauli> basis_string) const;

  /// All active basis strings, in mixed-radix order (cut 0 fastest).
  [[nodiscard]] std::vector<std::vector<Pauli>> active_strings() const;

  /// Number of active strings (== active_strings().size()).
  [[nodiscard]] std::uint64_t num_active_strings() const;

  /// Number of golden cuts (cuts with at least one neglected element).
  [[nodiscard]] int num_golden_cuts() const;

  /// The paper's per-cut product count 4^Kr * 3^Kg... in general
  /// prod_k |active_paulis(k)| (ignores string-level neglect).
  [[nodiscard]] std::uint64_t per_cut_term_count() const;

 private:
  std::vector<std::array<bool, 4>> neglected_;         // [cut][pauli]
  std::set<std::vector<Pauli>> neglected_strings_;
};

/// Detector output: worst-case violation of Definition 1 per (cut, Pauli),
/// plus the decision.
struct GoldenDetectionReport {
  /// violation[k][p]: max over output bitstrings and other-cut contexts of
  /// |sum_r r tr(O_f1 rho_f1(M^r))| for Pauli p at cut k.
  std::vector<std::array<double, 4>> violation;

  /// golden[k][p]: whether the detector declares p negligible at cut k.
  std::vector<std::array<bool, 4>> golden;

  /// Spec with every declared-golden element neglected.
  [[nodiscard]] NeglectSpec to_spec() const;
};

/// Where a detector finds the tested boundary in one fragment's register.
struct FragmentLayout {
  int num_cuts = 0;              // outgoing cut count of the tested boundary
  int width = 0;                 // fragment width in qubits
  std::vector<int> cut_qubits;   // tomography locals, boundary cut order
  std::vector<int> out_qubits;   // remaining locals (conditioning bits)
};

/// The layout of a chain fragment's outgoing boundary: its tomography
/// locals are the cut qubits, its final-bit locals the conditioning bits.
[[nodiscard]] FragmentLayout fragment_layout(const ChainFragment& fragment);

/// Exact detection from the upstream fragment's statevector.
/// An element is declared golden when its violation is at most `tol`.
/// Simulates fragment 0 of `bp` and runs detect_golden_exact_core on its
/// amplitudes.
[[nodiscard]] GoldenDetectionReport detect_golden_exact(const Bipartition& bp,
                                                        double tol = 1e-9);

/// The exact test itself, on the upstream amplitudes (length 2^layout.width)
/// of the fragment `layout` describes. The cut planner calls it on an
/// upstream it simulates without building fragment circuits, so a planned
/// cut and detect_golden_exact agree bit for bit.
[[nodiscard]] GoldenDetectionReport detect_golden_exact_core(
    const FragmentLayout& layout, std::span<const linalg::cx> amplitudes, double tol = 1e-9);

/// The one-cut case of detect_golden_exact_core, without a report: per
/// Pauli {I, X, Y, Z}, the largest |tr(P rho_b1)| over output bitstrings
/// b1 of the cut qubit's conditional matrix rho_b1, read from `amplitudes`
/// with the cut wire on bit `cut_qubit` and bit j of b1 on bit
/// out_qubits[j]. Qubits in neither are read at 0. Allocates nothing.
[[nodiscard]] std::array<double, 4> single_cut_violations(std::span<const linalg::cx> amplitudes,
                                                          int cut_qubit,
                                                          std::span<const int> out_qubits);

/// Options for the statistical (online) detector.
struct OnlineDetectionOptions {
  double alpha = 0.05;        // family-wise false-positive rate under H0
  double min_threshold = 0.0; // floor added to every cell threshold
};

/// Statistical detection from measured upstream probabilities.
///
/// `upstream_probabilities[s]` is the empirical outcome distribution of the
/// upstream variant with setting-tuple index s (length 2^w, w the width of
/// fragment 0); all 3^K settings must be present. `shots` is the shot count
/// behind each.
/// A cell passes when |g_hat| <= z * sigma_hat + min_threshold with z the
/// union-bound normal critical value; an element is golden when every cell
/// passes.
[[nodiscard]] GoldenDetectionReport detect_golden_from_counts(
    const Bipartition& bp, const std::vector<std::vector<double>>& upstream_probabilities,
    std::size_t shots, const OnlineDetectionOptions& options = {});

/// For multi-cut real-amplitude upstream fragments: neglects every basis
/// string with an odd number of Y components (exactly the vanishing set;
/// see DESIGN.md). Single-cut case reduces to neglect(cut0, Y).
[[nodiscard]] NeglectSpec neglect_odd_y_strings(int num_cuts);

/// Context operators for "the other cuts" of a multi-cut exact test: the
/// six preparation-state projectors (eigenstate projectors of X, Y, Z), in
/// linalg::kAllPrepStates order. Shared by the distribution-level and the
/// observable detectors.
[[nodiscard]] const std::vector<linalg::CMat>& context_projectors();

// ---- Per-boundary detection for fragment chains -----------------------------
//
// Definition 1 at boundary b of a chain is a property of the *prefix*
// (fragments 0..b composed): removing boundary b's cut segments alone
// bipartitions the circuit into that prefix and the remaining suffix, so
// the existing detectors apply per boundary. Skipping every global term
// whose boundary-b string contains a neglected element removes a group of
// terms whose summed contribution is exactly the prefix-level Definition-1
// trace — zero — so exact-mode chain reconstruction stays exact.

/// Exact detection at every boundary (one report per boundary), each from
/// the boundary's own prefix/suffix bipartition.
[[nodiscard]] std::vector<GoldenDetectionReport> detect_chain_golden_exact(
    const Circuit& circuit, std::span<const std::vector<WirePoint>> boundaries,
    double tol = 1e-9);

/// Convenience: the per-boundary specs of detect_chain_golden_exact.
[[nodiscard]] std::vector<NeglectSpec> detect_chain_golden_specs(
    const Circuit& circuit, std::span<const std::vector<WirePoint>> boundaries,
    double tol = 1e-9);

/// Statistical (online) detection at one fragment's outgoing boundary,
/// from its measured distributions.
///
/// `distribution(c, s)` must return the outcome distribution (length
/// 2^width) of the variant with incoming prep context c (any fixed
/// enumeration of the executed incoming prep tuples; fragment 0 has exactly
/// one, empty, context) and outgoing setting tuple s; all 3^Kout settings
/// must be served for every context. An element is golden only when the
/// test passes in *every* incoming context, and the union bound covers all
/// contexts. With one context this is exactly detect_golden_from_counts on
/// the upstream fragment of a bipartition.
using SettingDistributionFn =
    std::function<const std::vector<double>&(std::size_t context, std::uint32_t setting)>;

[[nodiscard]] GoldenDetectionReport detect_golden_from_counts_core(
    const FragmentLayout& layout, std::size_t num_contexts,
    const SettingDistributionFn& distribution, std::size_t shots,
    const OnlineDetectionOptions& options = {});

}  // namespace qcut::cutting
