#include "cutting/reconstructor.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "metrics/distance.hpp"

namespace qcut::cutting {

namespace {

/// Deterministic reduction over reconstruction terms, on the calling thread.
/// Terms are split into at most 64 chunks sized from the term count alone;
/// each chunk sums its terms in ascending order from +0.0 and the chunk sums
/// are added in chunk order, so the result is fixed by the term count and
/// the terms, never by a pool. A one-term chunk adds straight into the joint
/// vector: `add_term` adds to each element at most once per term, and the
/// joint vector starts at +0.0 and never holds -0.0, so this differs from
/// summing the chunk first only in the sign of a zero, which the joint
/// vector does not keep. Larger chunks reuse one buffer.
template <typename AddTerm>
std::vector<double> accumulate_terms(std::uint64_t num_terms, index_t full_dim,
                                     const AddTerm& add_term) {
  constexpr std::uint64_t kMaxChunks = 64;
  std::vector<double> joint(full_dim, 0.0);
  if (num_terms == 0) return joint;
  const std::uint64_t chunk = (num_terms + kMaxChunks - 1) / kMaxChunks;
  if (chunk == 1) {
    for (std::uint64_t t = 0; t < num_terms; ++t) add_term(t, joint);
    return joint;
  }
  std::vector<double> local(full_dim);
  for (std::uint64_t lo = 0; lo < num_terms; lo += chunk) {
    std::fill(local.begin(), local.end(), 0.0);
    const std::uint64_t hi = std::min<std::uint64_t>(num_terms, lo + chunk);
    for (std::uint64_t t = lo; t < hi; ++t) add_term(t, local);
    for (index_t i = 0; i < full_dim; ++i) joint[i] += local[i];
  }
  return joint;
}

/// scatter_bits(x, positions) for every x < 2^|positions|. Each bit of x
/// moves on its own, so the entries of [2^k, 2^(k+1)) are those of [0, 2^k)
/// OR'd with the image of bit k: O(1) per entry instead of a loop over the
/// positions.
std::vector<index_t> scatter_table(std::span<const int> positions) {
  std::vector<index_t> table(pow2(static_cast<int>(positions.size())), 0);
  for (std::size_t k = 0; k < positions.size(); ++k) {
    const index_t top = pow2(static_cast<int>(k));
    const index_t image = pow2(positions[k]);
    for (index_t x = 0; x < top; ++x) table[top | x] = table[x] | image;
  }
  return table;
}

/// scatter_bits(x, positions) for every x, as blocks of contiguous images.
/// When the first r positions are 0, 1, ..., r-1, the low r bits of x land
/// where they are and every other position is above them, so block x >> r
/// starts at `starts[x >> r]` and its `length` = 2^r entries are contiguous.
struct Runs {
  index_t length = 1;
  std::vector<index_t> starts;  // scatter_table of the positions past the first r
};

Runs runs_of(std::span<const int> positions) {
  std::size_t r = 0;
  while (r < positions.size() && positions[r] == static_cast<int>(r)) ++r;
  return Runs{pow2(static_cast<int>(r)), scatter_table(positions.subspan(r))};
}

/// One outgoing tomography pattern of a fragment and its local outcome bits.
struct CutPattern {
  index_t local_bits = 0;
  index_t index = 0;
};

/// Index plumbing for the chain contraction. At N=2 each tensor entry and
/// each output bin receives the same additions, in the same order, as in the
/// two-fragment u_M (x) v_M contraction the header describes, so the results
/// agree with it bit for bit (tests/cutting_chain_test.cpp pins digests
/// recorded from it). The tables rely on every fragment's local qubits
/// splitting exactly into its tomography bits (`out_cut_qubits`) and its
/// final bits (`output_qubits`), which finish_fragment in fragment_graph.cpp
/// guarantees, and on every original qubit being a final bit of exactly one
/// fragment.
struct ChainLayout {
  const FragmentGraph& graph;
  std::vector<index_t> out_dims;   // 2^{final bits} per fragment
  std::vector<index_t> cut_dims;   // 2^{K_b} per boundary
  index_t total_cut_dim = 1;
  /// A fragment's locals split into tomography and final bits, so each local
  /// outcome is one (final-bit pattern, tomography pattern) pair. Per
  /// fragment: its final-bit patterns as runs of local outcomes, and every
  /// tomography pattern with its local bits, ascending in those bits (for a
  /// fixed final-bit pattern that is ascending local outcome order). The
  /// tomography bits lie above every run, so a run stays contiguous under
  /// any tomography pattern.
  std::vector<Runs> local_runs;
  std::vector<std::vector<CutPattern>> cut_patterns;
  /// Fragment 0's final-bit patterns as runs of uncut outcomes.
  Runs uncut_runs;
  /// Per fragment but fragment 0 (whose entry is empty), indexed by final-bit
  /// pattern: the pattern scattered onto the fragment's original qubits.
  std::vector<std::vector<index_t>> output_scatter;

  explicit ChainLayout(const FragmentGraph& g)
      : graph(g), uncut_runs(runs_of(g.fragments.front().output_original)) {
    for (std::size_t f = 0; f < g.fragments.size(); ++f) {
      const ChainFragment& fragment = g.fragments[f];
      out_dims.push_back(pow2(fragment.output_width()));
      local_runs.push_back(runs_of(fragment.output_qubits));
      output_scatter.push_back(f > 0 ? scatter_table(fragment.output_original)
                                     : std::vector<index_t>{});
      const std::vector<index_t> cut_local = scatter_table(fragment.out_cut_qubits);
      std::vector<CutPattern> cuts(cut_local.size());
      for (index_t a = 0; a < cuts.size(); ++a) cuts[a] = CutPattern{cut_local[a], a};
      std::sort(cuts.begin(), cuts.end(), [](const CutPattern& x, const CutPattern& y) {
        return x.local_bits < y.local_bits;
      });
      cut_patterns.push_back(std::move(cuts));
    }
    for (const ChainBoundary& boundary : g.boundaries) {
      cut_dims.push_back(pow2(boundary.num_cuts()));
      total_cut_dim *= pow2(boundary.num_cuts());
    }
  }

  /// Eigenvalue weight table of boundary b for one basis string.
  [[nodiscard]] std::vector<double> weights(int b, std::span<const Pauli> basis) const {
    const index_t dim = cut_dims[static_cast<std::size_t>(b)];
    const int num_cuts = graph.boundaries[static_cast<std::size_t>(b)].num_cuts();
    std::vector<double> w(dim);
    for (index_t a = 0; a < dim; ++a) {
      double acc = 1.0;
      for (int k = 0; k < num_cuts; ++k) {
        acc *= eigenvalue_weight(basis[static_cast<std::size_t>(k)], bit(a, k));
      }
      w[a] = acc;
    }
    return w;
  }

  /// Fragment f's tensor over its final bits for one (incoming string,
  /// outgoing string) pair: the incoming boundary's eigenstate slots are
  /// folded with `w_in` (null for fragment 0) and the outgoing tomography
  /// bits with `w_out` (null for the last fragment, which has no tomography
  /// bits). `prep_for_slot` maps the incoming eigenstate slot tuple to the
  /// prep tuple index.
  ///
  /// Each entry adds its outcomes incoming slot by incoming slot, each in
  /// ascending local outcome order; the loops run tomography pattern outer,
  /// then run by run, which keeps that order for every entry. Zero
  /// probabilities are not skipped: every factor is finite and an entry
  /// starts at +0.0, so adding a signed-zero product changes no bit.
  [[nodiscard]] std::vector<double> fragment_tensor(
      int f, const ChainFragmentData& data, const std::vector<std::uint32_t>* prep_for_slot,
      const std::vector<double>* w_in, std::uint32_t setting,
      const std::vector<double>* w_out) const {
    const auto fi = static_cast<std::size_t>(f);
    const index_t in_dim = prep_for_slot != nullptr ? cut_dims[fi - 1] : 1;
    const Runs& runs = local_runs[fi];
    const std::vector<CutPattern>& cuts = cut_patterns[fi];

    std::vector<double> tensor(out_dims[fi], 0.0);
    for (index_t a_in = 0; a_in < in_dim; ++a_in) {
      const std::uint32_t prep =
          prep_for_slot != nullptr ? (*prep_for_slot)[static_cast<std::size_t>(a_in)] : 0;
      const double* probs = data.distribution(f, FragmentVariantKey{prep, setting}).data();
      const double in_weight = w_in != nullptr ? (*w_in)[a_in] : 1.0;
      for (const CutPattern& cut : cuts) {
        const double factor = in_weight * (w_out != nullptr ? (*w_out)[cut.index] : 1.0);
        double* dst = tensor.data();
        for (const index_t start : runs.starts) {
          const double* src = probs + (start | cut.local_bits);
          for (index_t i = 0; i < runs.length; ++i) dst[i] += factor * src[i];
          dst += runs.length;
        }
      }
    }
    return tensor;
  }
};

void check_chain_inputs(const FragmentGraph& graph, const ChainFragmentData& data,
                        const ChainNeglectSpec& spec) {
  QCUT_CHECK(graph.num_fragments() >= 2, "reconstruct: a chain needs at least two fragments");
  QCUT_CHECK(spec.num_boundaries() == graph.num_boundaries(),
             "reconstruct: spec boundary count must match the graph");
  for (int b = 0; b < graph.num_boundaries(); ++b) {
    QCUT_CHECK(spec.boundary(b).num_cuts() ==
                   graph.boundaries[static_cast<std::size_t>(b)].num_cuts(),
               "reconstruct: spec cut count must match boundary " + std::to_string(b));
  }
  QCUT_CHECK(data.num_fragments() == graph.num_fragments(),
             "reconstruct: chain data does not match the graph");
  for (int f = 0; f < graph.num_fragments(); ++f) {
    QCUT_CHECK(data.fragments[static_cast<std::size_t>(f)].width ==
                   graph.fragments[static_cast<std::size_t>(f)].width(),
               "reconstruct: fragment " + std::to_string(f) + " width mismatch");
  }
}

/// One term's contraction into the chunk buffer, fragment 0 innermost.
/// Levels 1..N-1 each pick one entry of their tensor, skipping zero entries
/// (which prunes whole sub-trees); every level is an element-wise loop over
/// fragment 0's runs of contiguous uncut outcomes. Levels 1..N-2 fold their
/// entry into fragment 0's partial products ((coefficient * t_0) * t_1) * ...,
/// and the last level adds the full products into their runs of output bins,
/// so each bin gets the chain-order product once per term. Runs of t_0 that
/// are all zero are skipped, single zero entries are not: every factor is
/// finite and every bin starts at +0.0, so adding a signed-zero product
/// changes no bit (see fragment_tensor).
struct TermSum {
  const ChainLayout& layout;
  std::vector<const double*> tensors;        // per fragment, this term's tensor
  std::vector<index_t> live_runs;            // runs of t_0 holding a nonzero entry
  std::vector<std::vector<double>> partial;  // [f - 1]: products through t_f, f <= N-2

  explicit TermSum(const ChainLayout& l)
      : layout(l),
        tensors(l.out_dims.size()),
        partial(l.out_dims.size() - 2, std::vector<double>(l.out_dims[0])) {
    live_runs.reserve(l.uncut_runs.starts.size());
  }

  void add(double coefficient, double* local) {
    const Runs& runs = layout.uncut_runs;
    live_runs.clear();
    for (index_t block = 0; block < runs.starts.size(); ++block) {
      const double* run = tensors[0] + block * runs.length;
      if (std::any_of(run, run + runs.length, [](double v) { return v != 0.0; })) {
        live_runs.push_back(block);
      }
    }
    level(1, tensors[0], coefficient, 0, local);
  }

  /// Level f: `in` holds fragment 0's products through t_(f-1), each still
  /// to be multiplied by `scale` (the coefficient at level 1, 1.0 after it,
  /// which changes no bit).
  void level(std::size_t f, const double* in, double scale, index_t idx, double* local) {
    const Runs& runs = layout.uncut_runs;
    const double* tensor = tensors[f];
    const std::vector<index_t>& scatter = layout.output_scatter[f];
    const bool last = f + 1 == tensors.size();
    for (index_t x = 0; x < scatter.size(); ++x) {
      const double value = tensor[x];
      if (value == 0.0) continue;
      if (last) {
        for (const index_t block : live_runs) {
          double* dst = local + (idx | scatter[x] | runs.starts[block]);
          const double* src = in + block * runs.length;
          for (index_t i = 0; i < runs.length; ++i) dst[i] += scale * src[i] * value;
        }
        continue;
      }
      double* out = partial[f - 1].data();
      for (const index_t block : live_runs) {
        for (index_t i = block * runs.length; i < (block + 1) * runs.length; ++i) {
          out[i] = scale * in[i] * value;
        }
      }
      level(f + 1, out, 1.0, idx | scatter[x], local);
    }
  }
};

/// Everything the per-term hot loop needs, precomputed and index-addressed:
/// per boundary the active strings with their weight tables, prep-tuple
/// tables and setting indices (built once — never rebuilt per term), and per
/// fragment one tensor per (incoming string, outgoing string) pair (the
/// ChainFragmentData hash map is consulted once per tensor build, never in
/// the term loop). A term then decodes into per-boundary string indices and
/// contracts pure array lookups.
struct ChainTermEngine {
  struct BoundaryTables {
    std::vector<std::vector<Pauli>> strings;
    std::vector<std::vector<double>> weights;             // [string]
    std::vector<std::uint32_t> setting_index;             // [string]
    std::vector<std::vector<std::uint32_t>> prep_index;   // [string][eigenstate slots]
  };

  std::vector<BoundaryTables> boundaries;
  /// tensors[f][in_string * num_out_strings(f) + out_string]
  std::vector<std::vector<std::vector<double>>> tensors;
  std::uint64_t total_terms = 1;

  [[nodiscard]] std::size_t num_strings(int b) const {
    return boundaries[static_cast<std::size_t>(b)].strings.size();
  }

  /// Mixed-radix decode of a term index (boundary 0 fastest) into
  /// per-boundary string indices — the same enumeration order the previous
  /// per-term implementation used.
  void decode(std::uint64_t t, std::vector<std::size_t>& string_of) const {
    for (std::size_t b = 0; b < boundaries.size(); ++b) {
      const std::uint64_t size = boundaries[b].strings.size();
      string_of[b] = static_cast<std::size_t>(t % size);
      t /= size;
    }
  }

  /// The tensor of fragment f for one decoded term.
  [[nodiscard]] const std::vector<double>& tensor_for(int f,
                                                      const std::vector<std::size_t>& string_of,
                                                      int num_boundaries) const {
    const std::size_t in_s = f > 0 ? string_of[static_cast<std::size_t>(f - 1)] : 0;
    const std::size_t out_s = f < num_boundaries ? string_of[static_cast<std::size_t>(f)] : 0;
    const std::size_t out_count =
        f < num_boundaries ? boundaries[static_cast<std::size_t>(f)].strings.size() : 1;
    return tensors[static_cast<std::size_t>(f)][in_s * out_count + out_s];
  }
};

/// Builds the engine; tensor construction fans out over `pool` when given
/// (disjoint slots, deterministic), otherwise runs serially.
ChainTermEngine build_term_engine(const ChainLayout& layout, const ChainFragmentData& data,
                                  const ChainNeglectSpec& spec, parallel::ThreadPool* pool) {
  const FragmentGraph& graph = layout.graph;
  ChainTermEngine engine;

  for (int b = 0; b < spec.num_boundaries(); ++b) {
    ChainTermEngine::BoundaryTables tables;
    tables.strings = spec.boundary(b).active_strings();
    const index_t cut_dim = layout.cut_dims[static_cast<std::size_t>(b)];
    tables.weights.reserve(tables.strings.size());
    tables.setting_index.reserve(tables.strings.size());
    tables.prep_index.reserve(tables.strings.size());
    for (const std::vector<Pauli>& basis : tables.strings) {
      tables.weights.push_back(layout.weights(b, basis));
      tables.setting_index.push_back(settings_index_for_basis(basis));
      std::vector<std::uint32_t> preps(static_cast<std::size_t>(cut_dim));
      for (index_t a = 0; a < cut_dim; ++a) {
        preps[static_cast<std::size_t>(a)] =
            preps_index_for_basis(basis, static_cast<std::uint32_t>(a));
      }
      tables.prep_index.push_back(std::move(preps));
    }
    engine.total_terms *= tables.strings.size();
    engine.boundaries.push_back(std::move(tables));
  }

  // Flatten the (fragment, in string, out string) tensor jobs.
  struct TensorJob {
    int fragment;
    std::size_t in_s;
    std::size_t out_s;
  };
  std::vector<TensorJob> jobs;
  engine.tensors.resize(static_cast<std::size_t>(graph.num_fragments()));
  for (int f = 0; f < graph.num_fragments(); ++f) {
    const std::size_t in_count = f > 0 ? engine.num_strings(f - 1) : 1;
    const std::size_t out_count = f < graph.num_boundaries() ? engine.num_strings(f) : 1;
    engine.tensors[static_cast<std::size_t>(f)].resize(in_count * out_count);
    for (std::size_t in_s = 0; in_s < in_count; ++in_s) {
      for (std::size_t out_s = 0; out_s < out_count; ++out_s) {
        jobs.push_back(TensorJob{f, in_s, out_s});
      }
    }
  }

  const auto build_one = [&](std::size_t j) {
    const TensorJob& job = jobs[j];
    const int f = job.fragment;
    const ChainTermEngine::BoundaryTables* in_tables =
        f > 0 ? &engine.boundaries[static_cast<std::size_t>(f - 1)] : nullptr;
    const ChainTermEngine::BoundaryTables* out_tables =
        f < graph.num_boundaries() ? &engine.boundaries[static_cast<std::size_t>(f)] : nullptr;
    const std::size_t out_count = out_tables != nullptr ? out_tables->strings.size() : 1;
    engine.tensors[static_cast<std::size_t>(f)][job.in_s * out_count + job.out_s] =
        layout.fragment_tensor(
            f, data, in_tables != nullptr ? &in_tables->prep_index[job.in_s] : nullptr,
            in_tables != nullptr ? &in_tables->weights[job.in_s] : nullptr,
            out_tables != nullptr ? out_tables->setting_index[job.out_s] : 0,
            out_tables != nullptr ? &out_tables->weights[job.out_s] : nullptr);
  };
  if (pool != nullptr) {
    parallel::parallel_for(*pool, 0, jobs.size(), build_one);
  } else {
    for (std::size_t j = 0; j < jobs.size(); ++j) build_one(j);
  }
  return engine;
}

}  // namespace

std::vector<double> ReconstructionResult::probabilities() const {
  return metrics::clip_and_normalize(raw_probabilities);
}

ReconstructionResult reconstruct_distribution(const FragmentGraph& graph,
                                              const ChainFragmentData& data,
                                              const ChainNeglectSpec& spec,
                                              const ReconstructionOptions& options) {
  check_chain_inputs(graph, data, spec);
  Stopwatch timer;

  const ChainLayout layout(graph);
  const double coefficient = 1.0 / static_cast<double>(layout.total_cut_dim);
  const index_t full_dim = pow2(graph.num_original_qubits);
  const int num_fragments = graph.num_fragments();
  const int num_boundaries = graph.num_boundaries();

  parallel::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : parallel::ThreadPool::global();

  const ChainTermEngine engine = build_term_engine(layout, data, spec, &pool);

  std::vector<std::size_t> string_of(static_cast<std::size_t>(num_boundaries));
  TermSum sum(layout);
  std::vector<double> joint = accumulate_terms(
      engine.total_terms, full_dim, [&](std::uint64_t t, std::vector<double>& local) {
        engine.decode(t, string_of);
        for (int f = 0; f < num_fragments; ++f) {
          sum.tensors[static_cast<std::size_t>(f)] =
              engine.tensor_for(f, string_of, num_boundaries).data();
        }
        sum.add(coefficient, local.data());
      });

  ReconstructionResult result;
  result.raw_probabilities = std::move(joint);
  result.terms = engine.total_terms;
  result.seconds = timer.elapsed_seconds();
  return result;
}

double reconstruct_probability_of(const FragmentGraph& graph, const ChainFragmentData& data,
                                  const ChainNeglectSpec& spec, index_t outcome) {
  check_chain_inputs(graph, data, spec);
  QCUT_CHECK(outcome < pow2(graph.num_original_qubits),
             "reconstruct_probability_of: outcome out of range");

  const ChainLayout layout(graph);
  const double coefficient = 1.0 / static_cast<double>(layout.total_cut_dim);
  const int num_fragments = graph.num_fragments();
  const int num_boundaries = graph.num_boundaries();
  const ChainTermEngine engine = build_term_engine(layout, data, spec, nullptr);

  // Original outcome -> per-fragment final-bit pieces.
  std::vector<index_t> piece(static_cast<std::size_t>(num_fragments), 0);
  for (int f = 0; f < num_fragments; ++f) {
    const ChainFragment& fragment = graph.fragments[static_cast<std::size_t>(f)];
    for (std::size_t j = 0; j < fragment.output_original.size(); ++j) {
      if (bit(outcome, fragment.output_original[j]) != 0) {
        piece[static_cast<std::size_t>(f)] =
            set_bit(piece[static_cast<std::size_t>(f)], static_cast<int>(j));
      }
    }
  }

  double total = 0.0;
  std::vector<std::size_t> string_of(static_cast<std::size_t>(num_boundaries));
  for (std::uint64_t t = 0; t < engine.total_terms; ++t) {
    engine.decode(t, string_of);
    double acc = coefficient;
    for (int f = 0; f < num_fragments; ++f) {
      acc *= engine.tensor_for(f, string_of, num_boundaries)[piece[static_cast<std::size_t>(f)]];
    }
    total += acc;
  }
  return total;
}

double reconstruct_diagonal_expectation(const FragmentGraph& graph,
                                        const ChainFragmentData& data,
                                        const ChainNeglectSpec& spec,
                                        std::span<const double> diagonal,
                                        const ReconstructionOptions& options) {
  QCUT_CHECK(diagonal.size() == pow2(graph.num_original_qubits),
             "reconstruct_diagonal_expectation: diagonal length must be 2^n");
  const ReconstructionResult result = reconstruct_distribution(graph, data, spec, options);
  double acc = 0.0;
  for (std::size_t i = 0; i < diagonal.size(); ++i) {
    acc += diagonal[i] * result.raw_probabilities[i];
  }
  return acc;
}

}  // namespace qcut::cutting
