#pragma once
// Classical reconstruction of the uncut circuit's outcome distribution from
// chain fragment data (Eq. 13/14 of the paper, specialized to the bitstring
// distribution: O = projector onto each output bitstring).
//
// At N=2 (one boundary of K cuts), for each active Pauli basis string M in
// B^K the contraction computes
//   u_M[b1] = sum_{a in {0,1}^K} (prod_k w(M_k, a_k)) * p_f1(b1, a | settings(M))
//   v_M[b2] = sum_{a in {0,1}^K} (prod_k w(M_k, a_k)) * p_f2(b2 | preps(M, a))
// and accumulates (1/2^K) * u_M[b1] * v_M[b2] into the joint distribution.
// Neglected basis strings (golden cutting points) are simply skipped, which
// is the 4^K -> 4^Kr 3^Kg runtime reduction the paper reports. Longer chains
// repeat the fold boundary by boundary (below).

#include <cstdint>
#include <vector>

#include "cutting/fragment_executor.hpp"

namespace qcut::cutting {

struct ReconstructionOptions {
  /// Pool used to build the per-string fragment tensors in parallel (the
  /// terms are then summed on the calling thread); nullptr selects the
  /// global pool.
  parallel::ThreadPool* pool = nullptr;
};

struct ReconstructionResult {
  /// Raw reconstructed quasi-distribution over 2^n original outcomes.
  /// Finite-shot noise can leave small negative entries.
  std::vector<double> raw_probabilities;

  /// Number of basis strings contracted.
  std::uint64_t terms = 0;

  /// Post-processing wall time.
  double seconds = 0.0;

  /// Clipped-and-renormalized probability distribution.
  [[nodiscard]] std::vector<double> probabilities() const;
};

// ---- Chain contraction -------------------------------------------------------
//
// One global term is a choice of one active basis string per boundary; its
// contribution is contracted boundary by boundary along the chain: each
// fragment folds its incoming boundary's eigenstate slots (weighted by the
// incoming string's eigenvalues) and its outgoing boundary's measured
// tomography bits (weighted by the outgoing string's) into a tensor over
// its final bits, and the term is the scattered product of those per-
// fragment tensors times prod_b 1/2^{K_b}. Terms containing a neglected
// string at any boundary are skipped, so the paper's 4^K -> 4^Kr 3^Kg
// saving multiplies across boundaries. At N=2 the arithmetic is the
// u_M (x) v_M outer product above, operation for operation.
//
// Both loops run over contiguous memory. A fragment's low final bits are
// usually its low locals, so its tensor is built from runs of consecutive
// local outcomes; fragment 0's low final bits are usually the low original
// qubits, so a term picks one entry of every other fragment's tensor
// (fragment 1 outermost, zero entries pruned) and multiplies fragment 0's
// tensor through run by run, adding into consecutive output bins; each
// product is formed in chain order ((prod_b 1/2^{K_b} * t_0) * t_1) * ... .
// Runs shorten to one entry when the bits do not line up; the arithmetic
// does not change with them.

/// Contracts chain fragment data into the distribution of the uncut
/// circuit. The data must contain every variant the active terms need.
[[nodiscard]] ReconstructionResult reconstruct_distribution(
    const FragmentGraph& graph, const ChainFragmentData& data, const ChainNeglectSpec& spec,
    const ReconstructionOptions& options = {});

/// Reconstructs the probability of a single outcome bitstring without
/// forming the full distribution.
[[nodiscard]] double reconstruct_probability_of(const FragmentGraph& graph,
                                                const ChainFragmentData& data,
                                                const ChainNeglectSpec& spec, index_t outcome);

/// Expectation of a diagonal observable over the raw chain reconstruction.
[[nodiscard]] double reconstruct_diagonal_expectation(const FragmentGraph& graph,
                                                      const ChainFragmentData& data,
                                                      const ChainNeglectSpec& spec,
                                                      std::span<const double> diagonal,
                                                      const ReconstructionOptions& options = {});

}  // namespace qcut::cutting
