// Micro benchmarks for the cutting pipeline: fragment execution fan-out and
// the chain reconstruction contraction, standard vs golden
// (google-benchmark). main() also times the contraction on five chain
// shapes, for the JSON.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "backend/statevector_backend.hpp"
#include "bench_json.hpp"
#include "circuit/random.hpp"
#include "common/stopwatch.hpp"
#include "cutting/pipeline.hpp"
#include "parallel/thread_pool.hpp"
#include "support/qaoa_path.hpp"
#include "support/run_cut.hpp"

namespace {

using namespace qcut;

/// Sampled N=2 chain data of a golden ansatz, with its no-neglect and
/// golden specs.
struct Fixture {
  circuit::GoldenAnsatz ansatz;
  cutting::FragmentGraph graph;
  cutting::ChainFragmentData data;
  cutting::ChainNeglectSpec standard;
  cutting::ChainNeglectSpec golden;

  static Fixture make(int num_qubits) {
    Rng rng(11);
    circuit::GoldenAnsatzOptions options;
    options.num_qubits = num_qubits;
    circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
    const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
    cutting::FragmentGraph graph = cutting::make_bipartition(ansatz.circuit, cuts);
    cutting::ChainNeglectSpec standard = cutting::ChainNeglectSpec::none(graph);
    cutting::ChainNeglectSpec golden = standard;
    golden.boundary(0).neglect(0, ansatz.golden_basis);
    backend::StatevectorBackend backend(3);
    cutting::ExecutionOptions exec;
    exec.shots_per_variant = 1000;
    cutting::ChainFragmentData data = cutting::execute_chain(graph, standard, backend, exec);
    return Fixture{std::move(ansatz), std::move(graph), std::move(data), std::move(standard),
                   std::move(golden)};
  }
};

void BM_ReconstructStandard(benchmark::State& state) {
  const Fixture fixture = Fixture::make(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cutting::reconstruct_distribution(fixture.graph, fixture.data, fixture.standard)
            .raw_probabilities.data());
  }
}
BENCHMARK(BM_ReconstructStandard)->Arg(5)->Arg(7)->Arg(9)->Arg(11);

void BM_ReconstructGolden(benchmark::State& state) {
  const Fixture fixture = Fixture::make(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cutting::reconstruct_distribution(fixture.graph, fixture.data, fixture.golden)
            .raw_probabilities.data());
  }
}
BENCHMARK(BM_ReconstructGolden)->Arg(5)->Arg(7)->Arg(9)->Arg(11);

void BM_FragmentExecutionStandard(benchmark::State& state) {
  Rng rng(12);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const cutting::FragmentGraph graph = cutting::make_bipartition(ansatz.circuit, cuts);
  backend::StatevectorBackend backend(4);
  const cutting::ChainNeglectSpec spec = cutting::ChainNeglectSpec::none(graph);
  std::uint64_t stream = 0;
  for (auto _ : state) {
    cutting::ExecutionOptions exec;
    exec.shots_per_variant = 1000;
    exec.seed_stream_base = (stream++) << 16;
    benchmark::DoNotOptimize(cutting::execute_chain(graph, spec, backend, exec).total_jobs);
  }
}
BENCHMARK(BM_FragmentExecutionStandard);

void BM_FragmentExecutionGolden(benchmark::State& state) {
  Rng rng(12);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const cutting::FragmentGraph graph = cutting::make_bipartition(ansatz.circuit, cuts);
  backend::StatevectorBackend backend(4);
  cutting::ChainNeglectSpec spec = cutting::ChainNeglectSpec::none(graph);
  spec.boundary(0).neglect(0, ansatz.golden_basis);
  std::uint64_t stream = 0;
  for (auto _ : state) {
    cutting::ExecutionOptions exec;
    exec.shots_per_variant = 1000;
    exec.seed_stream_base = (stream++) << 16;
    benchmark::DoNotOptimize(cutting::execute_chain(graph, spec, backend, exec).total_jobs);
  }
}
BENCHMARK(BM_FragmentExecutionGolden);

void BM_EndToEndCutAndRun(benchmark::State& state) {
  const bool golden = state.range(0) == 1;
  Rng rng(13);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  backend::StatevectorBackend backend(5);
  std::uint64_t stream = 0;
  for (auto _ : state) {
    cutting::CutRunOptions run;
    run.shots_per_variant = 1000;
    run.seed_stream_base = (stream++) << 16;
    if (golden) {
      run.golden_mode = cutting::GoldenMode::Provided;
      run.provided_spec = cutting::NeglectSpec(1);
      run.provided_spec->neglect(0, ansatz.golden_basis);
    }
    benchmark::DoNotOptimize(
        run_cut(ansatz.circuit, cuts, backend, run).reconstruction.terms);
  }
  state.SetLabel(golden ? "golden" : "standard");
}
BENCHMARK(BM_EndToEndCutAndRun)->Arg(0)->Arg(1);

void BM_ExactGoldenDetection(benchmark::State& state) {
  Rng rng(14);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = static_cast<int>(state.range(0));
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const cutting::Bipartition bp = cutting::make_bipartition(ansatz.circuit, cuts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cutting::detect_golden_exact(bp, 1e-9).violation.data());
  }
}
BENCHMARK(BM_ExactGoldenDetection)->Arg(5)->Arg(9)->Arg(13);

// ---- Chain reconstruction on the service's shapes -----------------------------

/// Sampled chain data on one shape, reconstructed on a one-worker pool as
/// the service does when a request brings its own single-worker pool.
struct ChainFixture {
  const char* name;
  cutting::FragmentGraph graph;
  cutting::ChainNeglectSpec spec;
  cutting::ChainFragmentData data;

  /// `neglect_y` neglects Pauli Y at every cut of the first boundary.
  static ChainFixture make(const char* name, const circuit::Circuit& circuit,
                           const std::vector<std::vector<circuit::WirePoint>>& boundaries,
                           std::size_t shots_per_variant, bool neglect_y = false) {
    cutting::FragmentGraph graph = cutting::make_fragment_chain(circuit, boundaries);
    cutting::ChainNeglectSpec spec = cutting::ChainNeglectSpec::none(graph);
    if (neglect_y) {
      for (int k = 0; k < graph.boundaries.front().num_cuts(); ++k) {
        spec.boundary(0).neglect(k, cutting::Pauli::Y);
      }
    }
    backend::StatevectorBackend backend(3);
    cutting::ExecutionOptions exec;
    exec.shots_per_variant = shots_per_variant;
    cutting::ChainFragmentData data = cutting::execute_chain(graph, spec, backend, exec);
    return ChainFixture{name, std::move(graph), std::move(spec), std::move(data)};
  }

  [[nodiscard]] std::vector<double> reconstruct(parallel::ThreadPool& pool) const {
    cutting::ReconstructionOptions options;
    options.pool = &pool;
    return cutting::reconstruct_distribution(graph, data, spec, options).raw_probabilities;
  }
};

/// The perfbench sweep_warm job: depth-3 QAOA on a 12-qubit path, the middle
/// wire cut after its last cost-layer interaction (a 12-qubit and a 1-qubit
/// fragment, 4 terms), ~20000 shots over its 9 variants.
ChainFixture sweep_warm_fixture() {
  const circuit::Circuit c = circuit::qaoa_path(12, 3, 0.4, 0.25);
  return ChainFixture::make("sweep_warm", c, {{circuit::middle_cut(c)}}, 2222);
}

/// A 13-qubit staircase cut into three 5-qubit fragments (16 terms).
ChainFixture three_fragment_fixture() {
  circuit::Circuit c(13);
  std::vector<std::vector<circuit::WirePoint>> boundaries;
  c.h(0);
  for (int q = 0; q < 12; ++q) {
    c.cx(q, q + 1).ry(0.3 + 0.05 * q, q + 1);
    if (q == 3 || q == 7) boundaries.push_back({circuit::WirePoint{q + 1, c.num_ops() - 1}});
  }
  return ChainFixture::make("three_fragment", c, boundaries, 1000);
}

/// One 4-cut boundary: 4^4 = 256 terms over a 12-qubit and a 5-qubit
/// fragment, past the 64-term point where terms share a chunk.
ChainFixture four_cut_fixture() {
  Rng rng(19);
  circuit::MultiCutAnsatzOptions options;
  options.num_cuts = 4;
  options.block_width = 3;
  const circuit::MultiCutAnsatz ansatz = circuit::make_multi_cut_golden_ansatz(options, rng);
  return ChainFixture::make("four_cut_256_terms", ansatz.circuit, {ansatz.cuts}, 1000);
}

/// The perfbench wide_cold job: an 18-qubit Fig. 2 circuit cut into a
/// 16-qubit and a 3-qubit fragment with Y neglected (3 terms), 20000 shots
/// on each of its 6 variants. Fragment 0's 2^15 final-bit patterns are one
/// run of contiguous uncut outcomes.
ChainFixture wide_cold_fixture() {
  Rng rng(23);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 18;
  options.cut_qubit = 15;
  options.upstream_depth = 12;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  return ChainFixture::make("wide_cold", ansatz.circuit, {{ansatz.cut}}, 20000, true);
}

/// 4 qubits whose fragment 0 has runs of one entry on both sides: it is
/// {1,2,3} with its tomography bit at local 0, and qubit 0 is a final bit
/// of fragment 1.
ChainFixture runs_of_one_fixture() {
  circuit::Circuit c(4);
  c.h(3).cx(3, 2).ry(0.4, 2).cx(2, 1).ry(0.3, 1);
  c.cx(1, 0).ry(0.2, 0);
  return ChainFixture::make("runs_of_one", c, {{circuit::WirePoint{1, 4}}}, 1000);
}

}  // namespace

namespace {

/// Parallel reconstruction: a 2-cut N=2 chain (16 active terms under the
/// full spec) reconstructed on a 1-thread vs a `threads`-thread pool. The
/// pool only builds the per-string tensors; the terms are summed on the
/// calling thread in an order fixed by the term count, so both pools
/// produce bit-for-bit identical distributions — only the wall clock of the
/// tensor build moves.
double parallel_reconstruction_speedup(int threads, double& serial_seconds_out,
                                       double& parallel_seconds_out) {
  using namespace qcut;
  Rng rng(17);
  circuit::MultiCutAnsatzOptions options;
  options.num_cuts = 2;
  options.block_width = 8;  // 17 qubits total: a 16-qubit upstream fragment
  options.downstream_depth = 2;
  const circuit::MultiCutAnsatz ansatz = circuit::make_multi_cut_golden_ansatz(options, rng);
  const cutting::FragmentGraph graph = cutting::make_bipartition(ansatz.circuit, ansatz.cuts);
  const cutting::ChainNeglectSpec spec = cutting::ChainNeglectSpec::none(graph);
  backend::StatevectorBackend backend(3);
  cutting::ExecutionOptions exec;
  exec.shots_per_variant = 1000;
  const cutting::ChainFragmentData data = cutting::execute_chain(graph, spec, backend, exec);

  constexpr int kRepeats = 10;
  parallel::ThreadPool serial_pool(1);
  parallel::ThreadPool parallel_pool(static_cast<unsigned>(threads));

  cutting::ReconstructionOptions serial_recon;
  serial_recon.pool = &serial_pool;
  Stopwatch serial_watch;
  for (int r = 0; r < kRepeats; ++r) {
    (void)cutting::reconstruct_distribution(graph, data, spec, serial_recon);
  }
  serial_seconds_out = serial_watch.elapsed_seconds() / kRepeats;

  cutting::ReconstructionOptions parallel_recon;
  parallel_recon.pool = &parallel_pool;
  Stopwatch parallel_watch;
  for (int r = 0; r < kRepeats; ++r) {
    (void)cutting::reconstruct_distribution(graph, data, spec, parallel_recon);
  }
  parallel_seconds_out = parallel_watch.elapsed_seconds() / kRepeats;
  return serial_seconds_out / parallel_seconds_out;
}

/// Median seconds per one-worker chain reconstruction of `fixture`, over
/// rounds long enough for the clock.
double chain_seconds_per_call(const ChainFixture& fixture) {
  constexpr int kRounds = 7;
  constexpr int kCallsPerRound = 20;
  parallel::ThreadPool pool(1);
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    Stopwatch watch;
    for (int i = 0; i < kCallsPerRound; ++i) {
      benchmark::DoNotOptimize(fixture.reconstruct(pool).data());
    }
    rounds.push_back(watch.elapsed_seconds() / kCallsPerRound);
  }
  std::nth_element(rounds.begin(), rounds.begin() + kRounds / 2, rounds.end());
  return rounds[kRounds / 2];
}

}  // namespace

/// Custom main: run the registered google-benchmark suites, then time one
/// representative standard-vs-golden reconstruction pair, the 1-vs-4 thread
/// parallel reconstruction and the per-call chain reconstructions for the
/// BENCH_<name>.json trajectory file.
int main(int argc, char** argv) {
  using namespace qcut;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const Fixture fixture = Fixture::make(9);
  constexpr int kRepeats = 10;
  Stopwatch standard_watch;
  for (int r = 0; r < kRepeats; ++r) {
    (void)cutting::reconstruct_distribution(fixture.graph, fixture.data, fixture.standard);
  }
  const double standard_seconds = standard_watch.elapsed_seconds() / kRepeats;
  Stopwatch golden_watch;
  for (int r = 0; r < kRepeats; ++r) {
    (void)cutting::reconstruct_distribution(fixture.graph, fixture.data, fixture.golden);
  }
  const double golden_seconds = golden_watch.elapsed_seconds() / kRepeats;

  constexpr int kParallelThreads = 4;
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  const double parallel_speedup =
      parallel_reconstruction_speedup(kParallelThreads, serial_seconds, parallel_seconds);

  std::vector<std::pair<std::string, double>> extras = {
      {"standard_seconds", standard_seconds},
      {"golden_seconds", golden_seconds},
      {"parallel_threads", static_cast<double>(kParallelThreads)},
      // A 4-thread pool can only beat a 1-thread pool when the machine has
      // the cores; record the hardware so the artifact is interpretable.
      {"hardware_threads", static_cast<double>(std::thread::hardware_concurrency())},
      {"recon_seconds_1thread", serial_seconds},
      {"recon_seconds_4threads", parallel_seconds},
      {"parallel_speedup_4threads", parallel_speedup}};
  for (const ChainFixture& fixture :
       {sweep_warm_fixture(), three_fragment_fixture(), four_cut_fixture(), wide_cold_fixture(),
        runs_of_one_fixture()}) {
    extras.emplace_back(std::string("chain_") + fixture.name + "_seconds",
                        chain_seconds_per_call(fixture));
  }
  (void)qcut::bench::write_bench_json("micro_reconstruction", golden_seconds,
                                      standard_seconds / golden_seconds, extras);
  return 0;
}
