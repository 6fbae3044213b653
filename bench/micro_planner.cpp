// Per-call timings of cut planning and outcome sampling, the two layers a
// paper-size CutService job spends most of its scheduler and worker time
// in: plan_best_single_cut and plan_chain_cuts on the paper's Fig. 2
// circuits at 5-7 qubits (the chain capped at n/2+1 qubits per fragment,
// as the benchmark's chain requests are); sim::sample_histogram and the
// guide table it falls back on (DiscreteSampler::sample_histogram), timed
// in interleaved rounds on one input, at 2^3-2^8, 2^10 and 2^12 outcomes x
// 4000 and 20000 shots (paper-size fragments up to a sweep's 12-qubit
// one: the rows show where one binomial per outcome overtakes one draw
// per shot); sim::sample_histogram alone over 2^16 outcomes at 4000 and
// 20000 shots (a wide fragment) and at 100 shots, and over 2^18 outcomes
// at 1000 and 4000 shots (the 100- and 1000-shot rows lie below the guide
// table's crossover, where it tallies single draws, the others above it,
// where it builds a guide table); and StatevectorBackend::run_batch on one
// prefix group, the 3 setting variants of a 4-qubit Fig. 2 fragment at
// 4000 shots each (a whole pool task of a paper-size job). Writes
// BENCH_micro_planner.json: median seconds per call, and the heap
// allocations of one plan_best_single_cut and one plan_chain_cuts call at
// each width (ungated; cutting_planner_allocation_test pins them).
//
// Gates, each timed in interleaved rounds in this process (medians); exits
// nonzero unless all three hold:
//  * plan_best_single_cut, which screens cuts from one full-circuit
//    simulation, takes at most 0.85x the time of enumerate_single_cuts, the
//    exact detector on every cut, on the 7-qubit Fig. 2 circuit;
//  * building a DiscreteSampler and tallying 4000 single sample() draws
//    over 2^4 outcomes takes at least 1.3x as long as the guide table
//    (DiscreteSampler::sample_histogram) on the same input;
//  * sim::sample_histogram, one binomial per outcome there, takes at most
//    0.25x the guide table's time at 2^4 outcomes x 4000 shots.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "backend/statevector_backend.hpp"
#include "bench_json.hpp"
#include "bench_timing.hpp"
#include "circuit/random.hpp"
#include "common/stopwatch.hpp"
#include "cutting/planner.hpp"
#include "cutting/variants.hpp"
#include "sim/sampling.hpp"
#include "support/counting_new.hpp"

namespace {

using namespace qcut;
using bench::interleaved_median_seconds;
using bench::median_seconds_per_call;

/// A seeded distribution over `size` outcomes with about a quarter of the
/// bins empty.
std::vector<double> seeded_distribution(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> probs(size, 0.0);
  double total = 0.0;
  for (double& p : probs) {
    if (rng.uniform_int(0, 3) == 0) continue;
    p = rng.uniform();
    total += p;
  }
  for (double& p : probs) p /= total;
  return probs;
}

}  // namespace

int main() {
  Stopwatch wall;
  std::vector<std::pair<std::string, double>> extras;
  std::uint64_t sink = 0;

  for (const int n : {5, 6, 7}) {
    Rng rng(static_cast<std::uint64_t>(n));
    circuit::GoldenAnsatzOptions options;
    options.num_qubits = n;
    const circuit::Circuit circuit = circuit::make_golden_ansatz(options, rng).circuit;
    const std::string width = "_" + std::to_string(n) + "q";

    const double single = median_seconds_per_call([&] {
      const std::optional<cutting::CutCandidate> best = cutting::plan_best_single_cut(circuit);
      sink += best.has_value() ? best->evaluations : 0;
    });
    cutting::ChainPlannerOptions chain_options;
    chain_options.max_fragment_width = n / 2 + 1;
    const double chain = median_seconds_per_call([&] {
      const std::optional<cutting::ChainPlan> plan =
          cutting::plan_chain_cuts(circuit, chain_options);
      sink += plan.has_value() ? plan->evaluations : 0;
    });
    const std::size_t single_allocations = support::allocations_of(
        [&] { sink += cutting::plan_best_single_cut(circuit)->evaluations; });
    const std::size_t chain_allocations = support::allocations_of(
        [&] { sink += cutting::plan_chain_cuts(circuit, chain_options)->evaluations; });
    extras.emplace_back("plan_best_single_cut" + width + "_seconds", single);
    extras.emplace_back("plan_chain_cuts" + width + "_seconds", chain);
    extras.emplace_back("plan_best_single_cut" + width + "_allocations",
                        static_cast<double>(single_allocations));
    extras.emplace_back("plan_chain_cuts" + width + "_allocations",
                        static_cast<double>(chain_allocations));
    std::cout << n << " qubits: plan_best_single_cut " << single * 1e6 << " us, "
              << single_allocations << " allocs; plan_chain_cuts " << chain * 1e6 << " us, "
              << chain_allocations << " allocs\n";
  }

  // The planning gate: screened planning against exact enumeration.
  Rng plan_rng(7);
  circuit::GoldenAnsatzOptions plan_options;
  plan_options.num_qubits = 7;
  const circuit::Circuit plan_circuit = circuit::make_golden_ansatz(plan_options, plan_rng).circuit;
  const auto [enumerate, plan] = interleaved_median_seconds(
      [&] { sink += cutting::enumerate_single_cuts(plan_circuit).size(); },
      [&] { sink += cutting::plan_best_single_cut(plan_circuit)->evaluations; });
  const double plan_ratio = plan / enumerate;
  extras.emplace_back("enumerate_single_cuts_7q_seconds", enumerate);
  extras.emplace_back("plan_best_over_enumerate_7q", plan_ratio);
  std::cout << "7 qubits: enumerate_single_cuts " << enumerate * 1e6
            << " us, plan_best_single_cut " << plan * 1e6 << " us -> " << plan_ratio << "x\n";

  // Both samplers on one input per shape, interleaved; the pair of rows
  // shows which side of its choice sim::sample_histogram takes. 2^4 x 4000
  // is also the binomial gate's shape.
  double binomial_ratio = 0.0;
  for (const std::size_t shots : {std::size_t{4000}, std::size_t{20000}}) {
    for (const int bits : {3, 4, 5, 6, 7, 8, 10, 12}) {
      const std::vector<double> probs = seeded_distribution(pow2(bits), 97);
      Rng rng(5);
      const auto [chosen, guide] = interleaved_median_seconds(
          [&] { sink += sim::sample_histogram(probs, shots, rng).back(); },
          [&] { sink += DiscreteSampler(probs, 1e-9).sample_histogram(shots, rng).back(); });
      const std::string shape =
          std::to_string(pow2(bits)) + "_outcomes_" + std::to_string(shots) + "_shots_seconds";
      extras.emplace_back("sample_histogram_" + shape, chosen);
      extras.emplace_back("guide_table_" + shape, guide);
      std::cout << shots << " shots over 2^" << bits << " outcomes: sample_histogram "
                << chosen * 1e6 << " us, guide table " << guide * 1e6 << " us\n";
      if (bits == 4 && shots == 4000) binomial_ratio = chosen / guide;
    }
  }
  extras.emplace_back("sample_histogram_over_guide_table_16_outcomes_4000_shots", binomial_ratio);
  std::cout << "4000 shots over 2^4 outcomes: sample_histogram / guide table -> " << binomial_ratio
            << "x\n";
  struct SamplingShape {
    int bits;
    std::size_t shots;
  };
  for (const SamplingShape shape :
       {SamplingShape{16, 4000}, SamplingShape{16, 20000}, SamplingShape{16, 100},
        SamplingShape{18, 1000}, SamplingShape{18, 4000}}) {
    const std::vector<double> probs = seeded_distribution(pow2(shape.bits), 97);
    Rng rng(5);
    const double seconds = median_seconds_per_call([&] {
      sink += sim::sample_histogram(probs, shape.shots, rng).back();
    });
    extras.emplace_back("sample_histogram_" + std::to_string(pow2(shape.bits)) + "_outcomes_" +
                            std::to_string(shape.shots) + "_shots_seconds",
                        seconds);
    std::cout << "sample_histogram " << shape.shots << " shots over 2^" << shape.bits
              << " outcomes: " << seconds * 1e6 << " us\n";
  }

  {
    // The 4-qubit upstream fragment of a 7-qubit Fig. 2 circuit cut at its
    // designed point: its 3 setting variants share everything but the
    // trailing basis rotation, so they form one prefix group.
    Rng rng(7);
    circuit::GoldenAnsatzOptions options;
    options.num_qubits = 7;
    options.cut_qubit = 3;
    const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
    const std::vector<std::vector<circuit::WirePoint>> boundaries = {{ansatz.cut}};
    const cutting::FragmentGraph graph = cutting::make_fragment_chain(ansatz.circuit, boundaries);
    backend::BatchRequest batch;
    for (const cutting::FragmentVariantKey& key :
         cutting::required_fragment_variants(graph, 0, cutting::ChainNeglectSpec::none(graph))) {
      batch.jobs.push_back(backend::BatchJob{
          cutting::make_fragment_variant(graph, 0, key).circuit, 4000, key.setting_index});
    }
    std::vector<const circuit::Circuit*> circuits;
    for (const backend::BatchJob& job : batch.jobs) circuits.push_back(&job.circuit);
    for (cutting::PrefixGroup& group : cutting::group_by_shared_prefix(circuits)) {
      batch.groups.push_back(
          backend::BatchPrefixGroup{group.prefix_ops, std::move(group.members)});
    }
    backend::StatevectorBackend backend(11);
    const double seconds = median_seconds_per_call([&] {
      sink += backend.run_batch(batch).probabilities.size();
    });
    extras.emplace_back("run_batch_sampled_seconds", seconds);
    std::cout << "run_batch " << batch.jobs.size() << " variants of a "
              << batch.jobs.front().circuit.num_qubits() << "-qubit fragment in "
              << batch.groups.size() << " prefix group(s), 4000 shots each: " << seconds * 1e6
              << " us\n";
  }

  // The single-draw gate: the guide table against single-draw searches on
  // one input.
  const std::vector<double> gate_probs = seeded_distribution(pow2(4), 97);
  Rng gate_rng(9);
  const auto [single_draws, guide_table] = interleaved_median_seconds(
      [&] {
        const DiscreteSampler sampler(gate_probs, 1e-9);
        std::vector<std::uint64_t> tally(sampler.size(), 0);
        for (int i = 0; i < 4000; ++i) ++tally[sampler.sample(gate_rng)];
        sink += tally.back();
      },
      [&] { sink += DiscreteSampler(gate_probs, 1e-9).sample_histogram(4000, gate_rng).back(); });
  const double ratio = single_draws / guide_table;
  extras.emplace_back("single_draws_16_outcomes_4000_shots_seconds", single_draws);
  extras.emplace_back("single_draws_over_sample_histogram", ratio);
  std::cout << "4000 single draws over 2^4 outcomes: " << single_draws * 1e6
            << " us, guide table " << guide_table * 1e6 << " us -> " << ratio << "x\n";

  // Printing the sink keeps the timed calls from being optimized away.
  std::cout << "checksum " << sink << "\n";
  (void)bench::write_bench_json("micro_planner", wall.elapsed_seconds(), 1.0, extras);

  int status = 0;
  constexpr double kPlanRatio = 0.85;
  if (plan_ratio > kPlanRatio) {
    std::cout << "micro_planner: plan_best_single_cut takes " << plan_ratio
              << "x enumerate_single_cuts' time, above the " << kPlanRatio << "x target\n";
    status = 1;
  }
  constexpr double kTargetRatio = 1.3;
  if (ratio < kTargetRatio) {
    std::cout << "micro_planner: single draws take " << ratio
              << "x the guide table's time, below the " << kTargetRatio << "x target\n";
    status = 1;
  }
  constexpr double kBinomialRatio = 0.25;
  if (binomial_ratio > kBinomialRatio) {
    std::cout << "micro_planner: sample_histogram takes " << binomial_ratio
              << "x the guide table's time at 2^4 outcomes x 4000 shots, above the "
              << kBinomialRatio << "x target\n";
    status = 1;
  }
  return status;
}
