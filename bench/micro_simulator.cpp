// Micro benchmarks for the simulation substrate (google-benchmark), plus
// the gated gate-kernel-engine measurements on a 16-qubit depth-64 random
// circuit, all through the engine's SoAState: the engine (specialized
// width-1 kernels + fusion + threading) must be at least 2x the generic
// dense kernels (EngineOptions::generic(), also width 1), and where a SIMD
// tier dispatches it must be at least 1.5x the width-1 engine, or the bench
// exits nonzero. BENCH_micro_simulator.json records both speedups,
// per-kernel-class timings and, ungated, each supported tier's speedup over
// the width-1 tier per lowest qubit of the circuit's compiled ops.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "common/stopwatch.hpp"

#include "backend/noisy_backend.hpp"
#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "noise/standard_channels.hpp"
#include "sim/density_matrix.hpp"
#include "sim/engine.hpp"
#include "sim/sampling.hpp"
#include "sim/simd_kernels.hpp"
#include "sim/soa_state.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace qcut;

circuit::Circuit random_for(int num_qubits, int depth, std::uint64_t seed) {
  Rng rng(seed);
  circuit::RandomCircuitOptions options;
  options.num_qubits = num_qubits;
  options.depth = depth;
  return circuit::random_circuit(options, rng);
}

void BM_StatevectorApplyCircuit(benchmark::State& state) {
  const int num_qubits = static_cast<int>(state.range(0));
  const circuit::Circuit c = random_for(num_qubits, 10, 1);
  for (auto _ : state) {
    sim::StateVector sv(num_qubits);
    sv.apply_circuit(c);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.num_ops()));
}
BENCHMARK(BM_StatevectorApplyCircuit)->DenseRange(4, 16, 4);

void BM_Statevector1QGate(benchmark::State& state) {
  const int num_qubits = static_cast<int>(state.range(0));
  sim::StateVector sv(num_qubits);
  const linalg::CMat h = circuit::gate_matrix(circuit::GateKind::H, {});
  const std::array<int, 1> target = {num_qubits / 2};
  for (auto _ : state) {
    sv.apply_matrix(h, target);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sv.dim() * sizeof(linalg::cx)));
}
BENCHMARK(BM_Statevector1QGate)->DenseRange(8, 20, 4);

void BM_Statevector2QGate(benchmark::State& state) {
  const int num_qubits = static_cast<int>(state.range(0));
  sim::StateVector sv(num_qubits);
  const linalg::CMat cx_m = circuit::gate_matrix(circuit::GateKind::CX, {});
  const std::array<int, 2> targets = {0, num_qubits - 1};
  for (auto _ : state) {
    sv.apply_matrix(cx_m, targets);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
}
BENCHMARK(BM_Statevector2QGate)->DenseRange(8, 20, 4);

void BM_DensityMatrixNoisyCircuit(benchmark::State& state) {
  const int num_qubits = static_cast<int>(state.range(0));
  const circuit::Circuit c = random_for(num_qubits, 4, 2);
  const noise::Channel chan1 = noise::depolarizing_1q(0.001);
  const noise::Channel chan2 = noise::depolarizing_2q(0.01);
  for (auto _ : state) {
    sim::DensityMatrix dm(num_qubits);
    for (const circuit::Operation& op : c.ops()) {
      dm.apply_operation(op);
      if (op.num_qubits() == 1) {
        dm.apply_kraus(chan1.kraus_ops(), op.qubits);
      } else if (op.num_qubits() == 2) {
        dm.apply_kraus(chan2.kraus_ops(), op.qubits);
      }
    }
    benchmark::DoNotOptimize(dm.probabilities().data());
  }
}
BENCHMARK(BM_DensityMatrixNoisyCircuit)->DenseRange(2, 7, 1);

void BM_SampleHistogram(benchmark::State& state) {
  const std::size_t shots = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(10);
  const circuit::Circuit c = random_for(10, 6, 3);
  sv.apply_circuit(c);
  const std::vector<double> probs = sv.probabilities();
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::sample_histogram(probs, shots, rng).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(shots));
}
BENCHMARK(BM_SampleHistogram)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_NoisyBackendRun(benchmark::State& state) {
  noise::NoiseModel model;
  model.set_after_1q(noise::depolarizing_1q(0.001));
  model.set_after_2q(noise::depolarizing_2q(0.01));
  model.set_readout(noise::ReadoutModel(4, noise::ReadoutError{0.02, 0.02}));
  backend::NoisyBackend be(model, 5);
  const circuit::Circuit c = random_for(4, 6, 6);
  std::uint64_t stream = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(be.run(c, 1000, stream++).total_shots());
  }
}
BENCHMARK(BM_NoisyBackendRun);

void BM_EngineApplyCircuit(benchmark::State& state) {
  const int num_qubits = static_cast<int>(state.range(0));
  const circuit::Circuit c = random_for(num_qubits, 10, 1);
  const sim::CompiledCircuit compiled = sim::compile_circuit(c, sim::EngineOptions{});
  for (auto _ : state) {
    sim::SoAState soa(num_qubits);
    compiled.apply(soa);
    benchmark::DoNotOptimize(soa.re());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.num_ops()));
}
BENCHMARK(BM_EngineApplyCircuit)->DenseRange(4, 16, 4);

/// Median wall seconds of fn() over `repeats` runs.
template <typename Fn>
double median_seconds(int repeats, const Fn& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    fn();
    times.push_back(watch.elapsed_seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Seconds per application of one compiled gate at `num_qubits` qubits.
double time_kernel(const circuit::Circuit& gate_circuit, const sim::EngineOptions& options) {
  const sim::CompiledCircuit compiled = sim::compile_circuit(gate_circuit, options);
  sim::SoAState state(gate_circuit.num_qubits());
  constexpr int kApplications = 200;
  return median_seconds(3, [&] {
           for (int i = 0; i < kApplications; ++i) compiled.apply(state);
         }) /
         kApplications;
}

/// Lowest-qubit buckets of compiled ops: 0, 1, 2 and ">= 3" (every op whose
/// runs fill a 4- or 8-lane register).
constexpr int kLowestQubitBuckets = 4;
const char* const kBucketNames[kLowestQubitBuckets] = {"0", "1", "2", "3plus"};

int lowest_qubit_bucket(const sim::CompiledOp& op) { return std::min(op.sorted_qubits[0], 3); }

/// Median seconds to apply `ops` once each, in order, serially through
/// `table` (one kernel call per op over the whole state).
double time_ops(const sim::simd::KernelTable& table, const std::vector<const sim::CompiledOp*>& ops,
                sim::SoAState& state) {
  const sim::simd::SoaSpan span{state.re(), state.im(), state.dim()};
  return median_seconds(5, [&] {
    for (const sim::CompiledOp* op : ops) {
      table.fns[static_cast<std::size_t>(op->cls)](span, *op, 0,
                                                   sim::simd::group_count(*op, span.dim));
    }
  });
}

}  // namespace

/// Custom main: run the registered google-benchmark suites, then the gated
/// engine-vs-generic measurement for BENCH_micro_simulator.json.
int main(int argc, char** argv) {
  using namespace qcut;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // The acceptance workload: a 16-qubit depth-64 random circuit, engine
  // (specialized kernels + fusion + threading) vs the generic dense path.
  constexpr int kWidth = 16;
  constexpr int kDepth = 64;
  const circuit::Circuit c = random_for(kWidth, kDepth, 1);

  const sim::CompiledCircuit generic = sim::compile_circuit(c, sim::EngineOptions::generic());
  const sim::CompiledCircuit engine = sim::compile_circuit(c, sim::EngineOptions{});

  constexpr int kRepeats = 5;
  const double generic_seconds = median_seconds(kRepeats, [&] {
    sim::SoAState state(kWidth);
    generic.apply(state);
  });
  const double engine_seconds = median_seconds(kRepeats, [&] {
    sim::SoAState state(kWidth);
    engine.apply(state);
  });
  const double speedup = generic_seconds / engine_seconds;

  // Per-kernel-class timings: one representative gate per class at the
  // acceptance width (seconds per gate application).
  const auto one_gate = [&](circuit::GateKind kind, std::vector<int> qubits,
                            std::vector<double> params = {}) {
    circuit::Circuit g(kWidth);
    g.append(kind, std::move(qubits), std::move(params));
    return g;
  };
  // Specialized, no fusion (single gates), no threading: pure per-kernel
  // cost, comparable across runners and to the dense references below
  // (the headline gate above already captures threading).
  sim::EngineOptions kernel_options;
  kernel_options.fuse = false;
  kernel_options.threading_threshold_qubits = 27;
  const double diagonal_s = time_kernel(one_gate(circuit::GateKind::RZ, {8}, {0.7}),
                                        kernel_options);
  const double permutation_s = time_kernel(one_gate(circuit::GateKind::CX, {0, 15}),
                                           kernel_options);
  const double controlled_s = time_kernel(one_gate(circuit::GateKind::CRY, {0, 15}, {0.7}),
                                          kernel_options);
  const double generic_1q_s = time_kernel(one_gate(circuit::GateKind::H, {8}), kernel_options);
  const double generic_2q_s = time_kernel(one_gate(circuit::GateKind::RXX, {0, 15}, {0.7}),
                                          kernel_options);
  const double dense_1q_s = time_kernel(one_gate(circuit::GateKind::RZ, {8}, {0.7}),
                                        sim::EngineOptions::generic());
  const double dense_2q_s = time_kernel(one_gate(circuit::GateKind::CX, {0, 15}),
                                        sim::EngineOptions::generic());

  const double fused_fraction =
      c.num_ops() == 0 ? 0.0
                       : static_cast<double>(engine.fusion_stats().absorbed()) /
                             static_cast<double>(c.num_ops());

  // SIMD series: width-1 vs vectorized kernels, per kernel class and
  // end-to-end on the acceptance workload. When no SIMD tier is available
  // the series is skipped with a note (simd_available=0) and the SIMD gate
  // does not apply.
  const bool simd_available = sim::simd::best_isa() != sim::IsaLevel::Scalar;
  const std::string isa = sim::isa_level_name(simd_available ? sim::simd::best_isa()
                                                             : sim::IsaLevel::Scalar);
  sim::EngineOptions simd_options;
  simd_options.simd = true;
  sim::EngineOptions simd_kernel_options = simd_options;
  simd_kernel_options.fuse = false;
  simd_kernel_options.threading_threshold_qubits = 27;

  double simd_seconds = 0.0;
  double simd_speedup = 0.0;
  double simd_diagonal = 0.0, simd_permutation = 0.0, simd_controlled = 0.0;
  double simd_generic_1q = 0.0, simd_generic_2q = 0.0;
  if (simd_available) {
    const sim::CompiledCircuit vectorized = sim::compile_circuit(c, simd_options);
    simd_seconds = median_seconds(kRepeats, [&] {
      sim::SoAState state(kWidth);
      vectorized.apply(state);
    });
    simd_speedup = engine_seconds / simd_seconds;
    simd_diagonal =
        diagonal_s / time_kernel(one_gate(circuit::GateKind::RZ, {8}, {0.7}),
                                 simd_kernel_options);
    simd_permutation =
        permutation_s / time_kernel(one_gate(circuit::GateKind::CX, {0, 15}),
                                    simd_kernel_options);
    simd_controlled =
        controlled_s / time_kernel(one_gate(circuit::GateKind::CRY, {0, 15}, {0.7}),
                                   simd_kernel_options);
    simd_generic_1q =
        generic_1q_s / time_kernel(one_gate(circuit::GateKind::H, {8}), simd_kernel_options);
    simd_generic_2q =
        generic_2q_s / time_kernel(one_gate(circuit::GateKind::RXX, {0, 15}, {0.7}),
                                   simd_kernel_options);
    std::printf("micro_simulator: simd (%s) %.4fs -> %.2fx over the width-1 engine\n",
                isa.c_str(), simd_seconds, simd_speedup);
  } else {
    std::printf("micro_simulator: no SIMD tier available on this CPU; "
                "simd_speedup series skipped\n");
  }

  // Ungated: each supported tier against the width-1 tier on the engine's
  // compiled ops (fused), serially, bucketed by lowest qubit: ops touching a
  // qubit below log2(lanes) run the tiers' lane bodies.
  std::vector<std::pair<std::string, double>> tier_rows;
  std::array<std::vector<const sim::CompiledOp*>, kLowestQubitBuckets> buckets;
  for (const sim::CompiledOp& op : engine.compiled_ops()) {
    buckets[static_cast<std::size_t>(lowest_qubit_bucket(op))].push_back(&op);
  }
  for (int b = 0; b < kLowestQubitBuckets; ++b) {
    tier_rows.emplace_back(std::string("gate_ops_lowest_qubit_") + kBucketNames[b],
                           static_cast<double>(buckets[static_cast<std::size_t>(b)].size()));
  }
  for (const sim::IsaLevel tier : {sim::IsaLevel::Avx2, sim::IsaLevel::Avx512}) {
    if (!simd_available || tier > sim::simd::best_isa()) continue;
    sim::SoAState state(kWidth);
    std::printf("micro_simulator: %s over width 1 by lowest qubit:",
                sim::isa_level_name(tier).c_str());
    for (int b = 0; b < kLowestQubitBuckets; ++b) {
      const auto& ops = buckets[static_cast<std::size_t>(b)];
      const double width1 =
          time_ops(sim::simd::kernel_table(sim::IsaLevel::Scalar), ops, state);
      const double vectorized = time_ops(sim::simd::kernel_table(tier), ops, state);
      const double ratio = vectorized > 0.0 ? width1 / vectorized : 0.0;
      tier_rows.emplace_back("tier_speedup_" + sim::isa_level_name(tier) + "_lowest_qubit_" +
                                 kBucketNames[b],
                             ratio);
      std::printf(" %s %.2fx", kBucketNames[b], ratio);
    }
    std::printf("\n");
  }

  std::printf("micro_simulator: %d qubits depth %d, generic %.4fs, engine %.4fs -> %.2fx\n",
              kWidth, kDepth, generic_seconds, engine_seconds, speedup);
  std::vector<std::pair<std::string, double>> rows = {
       {"generic_seconds", generic_seconds},
       {"engine_seconds", engine_seconds},
       {"circuit_ops", static_cast<double>(c.num_ops())},
       {"fused_gate_fraction", fused_fraction},
       {"kernel_diagonal_seconds_per_gate", diagonal_s},
       {"kernel_permutation_seconds_per_gate", permutation_s},
       {"kernel_controlled_1q_seconds_per_gate", controlled_s},
       {"kernel_generic_1q_seconds_per_gate", generic_1q_s},
       {"kernel_generic_2q_seconds_per_gate", generic_2q_s},
       {"dense_diagonal_seconds_per_gate", dense_1q_s},
       {"dense_permutation_seconds_per_gate", dense_2q_s},
       {"simd_available", simd_available ? 1.0 : 0.0},
       {"simd_seconds", simd_seconds},
       {"simd_speedup", simd_speedup},
       {"simd_speedup_diagonal", simd_diagonal},
       {"simd_speedup_permutation", simd_permutation},
       {"simd_speedup_controlled_1q", simd_controlled},
       {"simd_speedup_generic_1q", simd_generic_1q},
       {"simd_speedup_generic_2q", simd_generic_2q}};
  rows.insert(rows.end(), tier_rows.begin(), tier_rows.end());
  (void)qcut::bench::write_bench_json("micro_simulator", engine_seconds, speedup, rows,
                                      {{"simd_isa", isa}});

  constexpr double kTargetSpeedup = 2.0;
  if (speedup < kTargetSpeedup) {
    std::printf("micro_simulator: engine speedup %.2fx is below the %.1fx target\n", speedup,
                kTargetSpeedup);
    return 1;
  }
  constexpr double kSimdTargetSpeedup = 1.5;
  if (simd_available && simd_speedup < kSimdTargetSpeedup) {
    std::printf("micro_simulator: simd speedup %.2fx is below the %.1fx target\n", simd_speedup,
                kSimdTargetSpeedup);
    return 1;
  }
  return 0;
}
