// Chain cutting end to end: exact 3-fragment reconstruction against the
// statevector ground truth, per-boundary golden neglection, agreement of the
// single-outcome and diagonal-expectation paths with the full distribution,
// the N=2 chain against frozen digests of the two-fragment pipeline it
// replaced, and bit-exactness of the chain contraction itself: identical
// bytes on every pool size and committed digests of its output on synthetic
// fragment data, a typed error for a variant distribution of the wrong
// length, and the shared distribution handle's semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "common/ordered.hpp"
#include "cutting/fragment_executor.hpp"
#include "cutting/golden.hpp"
#include "cutting/reconstructor.hpp"
#include "cutting/variants.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/statevector.hpp"
#include "support/digest.hpp"
#include "support/guide_table_backend.hpp"
#include "support/qaoa_path.hpp"

namespace qcut::cutting {
namespace {

using circuit::WirePoint;

/// 5 qubits, all-real gates, 3 fragments: {0,1} -q1-> {1,2,3} -q3-> {3,4}.
/// Real amplitudes make Pauli-Y (and only Y: the ry on each cut wire keeps
/// X and Z entangled with the fragment outputs) golden at both boundaries.
Circuit chain5() {
  Circuit c(5);
  c.h(0).cx(0, 1).ry(0.3, 1);                 // ops 0-2, fragment 0
  c.cx(1, 2).ry(0.5, 2).cx(2, 3).ry(0.4, 3);  // ops 3-6, fragment 1
  c.cx(3, 4).ry(0.2, 4);                      // ops 7-8, fragment 2
  return c;
}

std::vector<std::vector<WirePoint>> chain5_boundaries() {
  return {{WirePoint{1, 2}}, {WirePoint{3, 6}}};
}

std::vector<double> truth_of(const Circuit& c) {
  sim::StateVector sv(c.num_qubits());
  sv.apply_circuit(c);
  return sv.probabilities();
}

TEST(ChainCutting, ThreeFragmentExactReconstructionMatchesTruth) {
  const Circuit c = chain5();
  const FragmentGraph graph = make_fragment_chain(c, chain5_boundaries());
  const ChainNeglectSpec spec = ChainNeglectSpec::none(graph);

  backend::StatevectorBackend backend(1);
  ExecutionOptions exec;
  exec.exact = true;
  const ChainFragmentData data = execute_chain(graph, spec, backend, exec);

  // Full variant set: 3 settings, 6x3 interior, 6 preps.
  EXPECT_EQ(data.total_jobs, 3u + 18u + 6u);

  const ReconstructionResult result = reconstruct_distribution(graph, data, spec);
  EXPECT_EQ(result.terms, 16u);
  const std::vector<double> truth = truth_of(c);
  ASSERT_EQ(result.raw_probabilities.size(), truth.size());
  for (std::size_t x = 0; x < truth.size(); ++x) {
    ASSERT_NEAR(result.raw_probabilities[x], truth[x], 1e-8) << x;
  }
}

TEST(ChainCutting, PerBoundaryGoldenNeglectionStaysExactAndShrinksVariants) {
  const Circuit c = chain5();
  const auto boundaries = chain5_boundaries();
  const FragmentGraph graph = make_fragment_chain(c, boundaries);

  // Exact detection finds Y golden at both boundaries (real amplitudes).
  const std::vector<NeglectSpec> specs = detect_chain_golden_specs(c, boundaries);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_TRUE(specs[0].is_neglected(0, Pauli::Y));
  EXPECT_TRUE(specs[1].is_neglected(0, Pauli::Y));
  const ChainNeglectSpec golden{specs};

  // Fewer variants at every fragment than the no-neglect chain.
  const ChainVariantCounts golden_counts = count_chain_variants(graph, golden);
  const ChainVariantCounts full_counts =
      count_chain_variants(graph, ChainNeglectSpec::none(graph));
  ASSERT_EQ(golden_counts.per_fragment.size(), 3u);
  EXPECT_EQ(full_counts.per_fragment, (std::vector<std::size_t>{3, 18, 6}));
  EXPECT_EQ(golden_counts.per_fragment, (std::vector<std::size_t>{2, 8, 4}));

  backend::StatevectorBackend backend(1);
  ExecutionOptions exec;
  exec.exact = true;
  const ChainFragmentData data = execute_chain(graph, golden, backend, exec);
  EXPECT_EQ(data.total_jobs, golden_counts.total());

  const ReconstructionResult result = reconstruct_distribution(graph, data, golden);
  EXPECT_EQ(result.terms, 9u);  // 3 x 3 instead of 4 x 4
  const std::vector<double> truth = truth_of(c);
  for (std::size_t x = 0; x < truth.size(); ++x) {
    ASSERT_NEAR(result.raw_probabilities[x], truth[x], 1e-8) << x;
  }
}

TEST(ChainCutting, ProbabilityOfAndDiagonalExpectationAgreeWithDistribution) {
  const Circuit c = chain5();
  const FragmentGraph graph = make_fragment_chain(c, chain5_boundaries());
  const ChainNeglectSpec spec{detect_chain_golden_specs(c, chain5_boundaries())};

  backend::StatevectorBackend backend(2);
  ExecutionOptions exec;
  exec.shots_per_variant = 2000;
  const ChainFragmentData data = execute_chain(graph, spec, backend, exec);

  const ReconstructionResult full = reconstruct_distribution(graph, data, spec);
  for (index_t outcome : {index_t{0}, index_t{7}, index_t{19}, index_t{31}}) {
    EXPECT_NEAR(reconstruct_probability_of(graph, data, spec, outcome),
                full.raw_probabilities[outcome], 1e-12)
        << outcome;
  }

  std::vector<double> diagonal(full.raw_probabilities.size());
  for (std::size_t x = 0; x < diagonal.size(); ++x) {
    diagonal[x] = parity(x) == 0 ? 1.0 : -1.0;
  }
  double folded = 0.0;
  for (std::size_t x = 0; x < diagonal.size(); ++x) {
    folded += diagonal[x] * full.raw_probabilities[x];
  }
  EXPECT_NEAR(reconstruct_diagonal_expectation(graph, data, spec, diagonal), folded, 1e-12);
}

TEST(ChainCutting, SpecCutCountMustMatchEveryBoundary) {
  Rng rng(5);
  circuit::MultiCutAnsatzOptions options;
  options.num_cuts = 2;
  const circuit::MultiCutAnsatz ansatz = circuit::make_multi_cut_golden_ansatz(options, rng);
  const FragmentGraph graph = make_bipartition(ansatz.circuit, ansatz.cuts);
  ASSERT_EQ(graph.boundaries[0].num_cuts(), 2);

  backend::StatevectorBackend backend(1);
  ExecutionOptions exec;
  exec.exact = true;
  const ChainFragmentData data =
      execute_chain(graph, ChainNeglectSpec::none(graph), backend, exec);

  for (const int num_cuts : {1, 3}) {
    SCOPED_TRACE(num_cuts);
    const ChainNeglectSpec spec{{NeglectSpec(num_cuts)}};
    EXPECT_THROW((void)reconstruct_distribution(graph, data, spec), Error);
    EXPECT_THROW((void)reconstruct_probability_of(graph, data, spec, 0), Error);
  }
}

// ---- Bit-exactness of the chain contraction ---------------------------------

std::vector<std::uint64_t> bit_patterns(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  out.reserve(values.size());
  for (const double value : values) out.push_back(std::bit_cast<std::uint64_t>(value));
  return out;
}

/// Sampled-looking data for every variant `spec` needs, drawn from a seeded
/// Rng instead of a simulator (whose output depends on the dispatched SIMD
/// tier), so the digests below hold on every host whose build does not
/// contract multiply-adds into FMA (a default x86-64 build does not). Each
/// distribution is integer counts over their total: about a third of the
/// bins are empty, and every fragment but the last has one final-bit
/// pattern that is empty in all of its variants, which makes whole tensor
/// entries, and the output bins they feed, exactly zero.
ChainFragmentData synthetic_chain_data(const FragmentGraph& graph, const ChainNeglectSpec& spec,
                                       std::uint64_t seed) {
  Rng rng(seed);
  ChainFragmentData data = make_chain_data(graph);
  for (int f = 0; f < graph.num_fragments(); ++f) {
    const ChainFragment& fragment = graph.fragments[static_cast<std::size_t>(f)];
    const bool last = f + 1 == graph.num_fragments();
    const index_t dead = rng.uniform_int(0, pow2(fragment.output_width()) - 1);
    for (const FragmentVariantKey key : required_fragment_variants(graph, f, spec)) {
      std::vector<double> dist(pow2(fragment.width()), 0.0);
      double shots = 0.0;
      for (index_t o = 0; o < dist.size(); ++o) {
        const bool empty = !last && gather_bits(o, fragment.output_qubits) == dead;
        if (empty || rng.uniform_int(0, 2) == 0) continue;
        dist[o] = static_cast<double>(rng.uniform_int(1, 40));
        shots += dist[o];
      }
      for (double& p : dist) p /= std::max(shots, 1.0);
      data.fragments[static_cast<std::size_t>(f)].variants.emplace(pack_variant_key(key),
                                                                   std::move(dist));
    }
  }
  return data;
}

/// Depth-2 QAOA on an 8-qubit path with the middle wire cut after its last
/// cost-layer interaction: an 8-qubit fragment 0 and a 1-qubit fragment 1,
/// the shape of the benchmark's parameter sweep.
FragmentGraph sweep_like_graph() {
  const Circuit c = circuit::qaoa_path(8, 2, 0.3, 0.35);
  const std::array<WirePoint, 1> cuts = {circuit::middle_cut(c)};
  return make_bipartition(c, cuts);
}

/// One 4-cut boundary: 4^4 = 256 terms, so the reduction sums them in
/// chunks of 4 instead of one at a time.
FragmentGraph four_cut_graph() {
  Rng rng(29);
  circuit::MultiCutAnsatzOptions options;
  options.num_cuts = 4;
  const circuit::MultiCutAnsatz ansatz = circuit::make_multi_cut_golden_ansatz(options, rng);
  return make_bipartition(ansatz.circuit, ansatz.cuts);
}

/// 7 qubits, 4 fragments: {0,1} -q1-> {1,2,3} -q3-> {3,4,5} -q5-> {5,6}, so
/// the contraction recurses through two outer levels before its last two.
FragmentGraph four_fragment_graph() {
  Circuit c(7);
  c.h(0).cx(0, 1).ry(0.3, 1);                 // ops 0-2, fragment 0
  c.cx(1, 2).ry(0.5, 2).cx(2, 3).ry(0.4, 3);  // ops 3-6, fragment 1
  c.cx(3, 4).ry(0.2, 4).cx(4, 5).ry(0.6, 5);  // ops 7-10, fragment 2
  c.cx(5, 6).ry(0.1, 6);                      // ops 11-12, fragment 3
  const std::vector<std::vector<WirePoint>> boundaries = {
      {WirePoint{1, 2}}, {WirePoint{3, 6}}, {WirePoint{5, 10}}};
  return make_fragment_chain(c, boundaries);
}

/// N=2 with the wide fragment last: a 2-qubit fragment 0 ({0,1}, cut on
/// qubit 1) feeding a 7-qubit fragment 1 ({1..7}), the mirror image of
/// sweep_like.
FragmentGraph wide_last_graph() {
  Circuit c(8);
  c.h(0).cx(0, 1).ry(0.3, 1);  // ops 0-2, fragment 0
  for (int q = 1; q + 1 < 8; ++q) c.cx(q, q + 1).ry(0.1 * q, q + 1);
  const std::array<WirePoint, 1> cuts = {WirePoint{1, 2}};
  return make_bipartition(c, cuts);
}

/// N=2 whose fragment 0 has runs of one entry on both sides: it is {1,2,3}
/// with its tomography bit at local 0, and original qubit 0 is a final bit
/// of fragment 1.
FragmentGraph runs_of_one_graph() {
  Circuit c(4);
  c.h(3).cx(3, 2).ry(0.4, 2).cx(2, 1).ry(0.3, 1);  // ops 0-4, fragment 0
  c.cx(1, 0).ry(0.2, 0);                           // ops 5-6, fragment 1
  const std::array<WirePoint, 1> cuts = {WirePoint{1, 4}};
  return make_bipartition(c, cuts);
}

/// 6 qubits, 3 fragments, a 2-cut first boundary: {0,1,2} -q1,q2->
/// {1,2,3,4} -q4-> {4,5}, 16 x 4 = 64 terms.
FragmentGraph two_cut_chain3_graph() {
  Circuit c(6);
  c.h(0).cx(0, 1).ry(0.3, 1).cx(1, 2).ry(0.5, 2);                 // ops 0-4, fragment 0
  c.cx(1, 3).ry(0.2, 3).cx(2, 4).ry(0.6, 4).cx(3, 4).ry(0.1, 4);  // ops 5-10, fragment 1
  c.cx(4, 5).ry(0.7, 5);                                          // ops 11-12, fragment 2
  const std::vector<std::vector<WirePoint>> boundaries = {{WirePoint{1, 3}, WirePoint{2, 4}},
                                                          {WirePoint{4, 10}}};
  return make_fragment_chain(c, boundaries);
}

struct BitExactCase {
  const char* name;
  FragmentGraph graph;
  std::uint64_t seed;
  std::uint64_t terms;
  std::uint64_t distribution_digest;    // fnv1a(raw_probabilities)
  std::uint64_t probability_of_digest;  // fnv1a(probability_of every 3rd outcome)
};

/// Committed digests of the contraction's output: a change to it that moves
/// any bit fails here, and must show the new bits are right before the
/// digests are updated.
std::vector<BitExactCase> bit_exact_cases() {
  std::vector<BitExactCase> cases;
  cases.push_back(
      {"sweep_like", sweep_like_graph(), 41, 4, 0xedb84d3effb4be71ULL, 0x82c298dd2b31567fULL});
  cases.push_back(
      {"four_cut", four_cut_graph(), 43, 256, 0x54b868c7f328f182ULL, 0x151d74b21ef8e788ULL});
  cases.push_back({"chain3", make_fragment_chain(chain5(), chain5_boundaries()), 47, 16,
                   0xcded72e69bab3b47ULL, 0x91b68f5ca7e19781ULL});
  cases.push_back({"four_fragment", four_fragment_graph(), 53, 64, 0x191e7defd5b99aa9ULL,
                   0xd5c6c34f7bbf6ee9ULL});
  cases.push_back(
      {"wide_last", wide_last_graph(), 59, 4, 0xa6fff409deb5623cULL, 0x2bbed473a18b8d40ULL});
  cases.push_back({"runs_of_one", runs_of_one_graph(), 61, 4, 0x46bd1e73fc53706eULL,
                   0x29e1a258ff7fda23ULL});
  cases.push_back({"two_cut_chain3", two_cut_chain3_graph(), 67, 64, 0xa96ea66404175e05ULL,
                   0x3fcf00eb568055e7ULL});
  return cases;
}

TEST(ChainCutting, ReconstructionIsByteIdenticalOnEveryPoolSize) {
  for (const BitExactCase& c : bit_exact_cases()) {
    SCOPED_TRACE(c.name);
    const ChainNeglectSpec spec = ChainNeglectSpec::none(c.graph);
    const ChainFragmentData data = synthetic_chain_data(c.graph, spec, c.seed);
    std::vector<std::vector<std::uint64_t>> results;
    for (const unsigned workers : {1U, 2U, 4U}) {
      parallel::ThreadPool pool(workers);
      ReconstructionOptions options;
      options.pool = &pool;
      results.push_back(
          bit_patterns(reconstruct_distribution(c.graph, data, spec, options).raw_probabilities));
    }
    EXPECT_EQ(results[0], results[1]);
    EXPECT_EQ(results[0], results[2]);
  }
}

TEST(ChainCutting, ReconstructionMatchesCommittedDigests) {
  for (const BitExactCase& c : bit_exact_cases()) {
    SCOPED_TRACE(c.name);
    const ChainNeglectSpec spec = ChainNeglectSpec::none(c.graph);
    const ChainFragmentData data = synthetic_chain_data(c.graph, spec, c.seed);
    const ReconstructionResult result = reconstruct_distribution(c.graph, data, spec);
    EXPECT_EQ(result.terms, c.terms);
    // The case must reach the zero paths: exact-zero output bins.
    EXPECT_GT(std::count(result.raw_probabilities.begin(), result.raw_probabilities.end(), 0.0),
              0);
    EXPECT_EQ(fnv1a(result.raw_probabilities), c.distribution_digest)
        << std::hex << fnv1a(result.raw_probabilities);

    std::vector<double> single;
    for (index_t outcome = 0; outcome < result.raw_probabilities.size(); outcome += 3) {
      single.push_back(reconstruct_probability_of(c.graph, data, spec, outcome));
    }
    EXPECT_EQ(fnv1a(single), c.probability_of_digest) << std::hex << fnv1a(single);
  }
}

/// The N=2 chain against digests of the two-fragment pipeline it replaced
/// (a Bipartition executed into per-setting upstream and per-prep downstream
/// distributions), recorded through that pipeline's API before it was
/// removed: at equal seeds the chain runs the same variant circuits on the
/// same seed streams and shot plan, and contracts them with the same
/// arithmetic. The variant digest covers fragment 0's distributions by
/// ascending setting, then fragment 1's by ascending prep. The variants are
/// sampled with the guide table they were recorded with.
struct FrozenTwoFragmentCase {
  const char* name;
  bool golden;
  ExecutionOptions exec;
  std::uint64_t distribution_digest;  // fnv1a(raw_probabilities)
  std::uint64_t terms;
  std::uint64_t total_jobs;
  std::uint64_t total_shots;
  std::size_t shots_per_variant;
  std::uint64_t variant_digest;  // every distribution, (fragment, packed key) order
};

std::vector<FrozenTwoFragmentCase> frozen_two_fragment_cases() {
  std::vector<FrozenTwoFragmentCase> cases;
  FrozenTwoFragmentCase sampled{"sampled", false, {}, 0xd46875936c377413ULL, 4, 9, 13500, 1500,
                                0x8eab32589599b58aULL};
  sampled.exec.shots_per_variant = 1500;
  cases.push_back(sampled);
  FrozenTwoFragmentCase budget{"budget", false, {}, 0xd21c76761b0f1f3bULL, 4, 9, 5000, 555,
                               0x2abf30459a7134e0ULL};
  budget.exec.shots_per_variant = 0;
  budget.exec.total_shot_budget = 5000;
  cases.push_back(budget);
  FrozenTwoFragmentCase golden{"golden", true, {}, 0x76bf6799090f8d6fULL, 3, 6, 9000, 1500,
                               0x8d8aa2a9dea8400bULL};
  golden.exec.shots_per_variant = 1500;
  golden.exec.seed_stream_base = 1u << 24;
  cases.push_back(golden);
  FrozenTwoFragmentCase exact{"exact", false, {}, 0x8bcfe910ac3190f4ULL, 4, 9, 0, 0,
                              0x7c3ba2b2472e6fbdULL};
  exact.exec.exact = true;
  cases.push_back(exact);
  return cases;
}

TEST(ChainCutting, TwoFragmentChainMatchesFrozenBipartitionDigests) {
  Rng rng(17);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  const FragmentGraph graph = make_bipartition(ansatz.circuit, cuts);

  NeglectSpec golden(1);
  golden.neglect(0, ansatz.golden_basis);

  for (const FrozenTwoFragmentCase& c : frozen_two_fragment_cases()) {
    SCOPED_TRACE(c.name);
    const ChainNeglectSpec spec{{c.golden ? golden : NeglectSpec::none(1)}};
    backend::StatevectorBackend inner(9);
    backend::GuideTableBackend backend(inner, 9);
    const ChainFragmentData data = execute_chain(graph, spec, backend, c.exec);
    const ReconstructionResult result = reconstruct_distribution(graph, data, spec);

    std::vector<double> variants;
    for (const ChainFragmentData::PerFragment& fragment : data.fragments) {
      for (const std::uint64_t key : sorted_keys(fragment.variants)) {
        const std::vector<double>& dist = *fragment.variants.at(key);
        variants.insert(variants.end(), dist.begin(), dist.end());
      }
    }
    EXPECT_EQ(fnv1a(result.raw_probabilities), c.distribution_digest)
        << std::hex << fnv1a(result.raw_probabilities);
    EXPECT_EQ(result.terms, c.terms);
    EXPECT_EQ(data.total_jobs, c.total_jobs);
    EXPECT_EQ(data.total_shots, c.total_shots);
    EXPECT_EQ(data.shots_per_variant, c.shots_per_variant);
    EXPECT_EQ(fnv1a(variants), c.variant_digest) << std::hex << fnv1a(variants);
  }
}

/// A variant distribution of the wrong length is a typed error naming the
/// fragment and the variant, not a read past its end.
TEST(ChainCutting, WronglySizedDistributionIsATypedError) {
  const FragmentGraph graph = make_fragment_chain(chain5(), chain5_boundaries());
  const ChainNeglectSpec spec = ChainNeglectSpec::none(graph);
  ChainFragmentData data = synthetic_chain_data(graph, spec, 47);
  SharedDistribution& dist = data.fragments[1].variants.at(pack_variant_key({0, 0}));
  dist = std::vector<double>(dist->begin(), dist->begin() + dist->size() / 2);
  EXPECT_THROW((void)reconstruct_distribution(graph, data, spec), Error);
  EXPECT_THROW((void)reconstruct_probability_of(graph, data, spec, 0), Error);
  try {
    (void)reconstruct_distribution(graph, data, spec);
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("(prep 0, setting 0) of fragment 1"), std::string::npos)
        << e.what();
  }
}

/// A distribution handle shares its storage when copied, compares by
/// contents, shares a cache-style shared_ptr and refuses a null one.
TEST(SharedDistribution, SharesOnCopyComparesContentsAndRejectsNull) {
  const SharedDistribution a = std::vector<double>{0.25, 0.75};
  const SharedDistribution copy = a;
  EXPECT_EQ(copy->data(), a->data());
  const SharedDistribution equal = std::vector<double>{0.25, 0.75};
  EXPECT_NE(equal->data(), a->data());
  EXPECT_EQ(equal, a);
  EXPECT_FALSE(SharedDistribution(std::vector<double>{0.75, 0.25}) == a);

  const auto cached = std::make_shared<const std::vector<double>>(std::vector<double>{1.0});
  EXPECT_EQ(SharedDistribution(cached)->data(), cached->data());
  const std::shared_ptr<const std::vector<double>> null;
  EXPECT_THROW((void)SharedDistribution(null), Error);
}

}  // namespace
}  // namespace qcut::cutting
