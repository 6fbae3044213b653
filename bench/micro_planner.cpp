// Per-call timings of cut planning and outcome sampling, the two layers a
// paper-size CutService job spends most of its scheduler and worker time
// in: plan_best_single_cut and plan_chain_cuts on the paper's Fig. 2
// circuits at 5-7 qubits (the chain capped at n/2+1 qubits per fragment,
// as the benchmark's chain requests are), and sim::sample_histogram at
// 4000 shots over 2^4 and 2^16 outcomes. Writes BENCH_micro_planner.json
// (median seconds per call); no gate.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "circuit/random.hpp"
#include "common/stopwatch.hpp"
#include "cutting/planner.hpp"
#include "sim/sampling.hpp"

namespace {

using namespace qcut;

/// Median seconds per call over 7 rounds, each round long enough (>= 20 ms)
/// for the clock.
template <typename Call>
double median_seconds_per_call(Call&& call) {
  std::size_t calls = 1;
  for (;;) {
    Stopwatch watch;
    for (std::size_t i = 0; i < calls; ++i) call();
    if (watch.elapsed_seconds() >= 0.02) break;
    calls *= 2;
  }
  constexpr int kRounds = 7;
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    Stopwatch watch;
    for (std::size_t i = 0; i < calls; ++i) call();
    rounds.push_back(watch.elapsed_seconds() / static_cast<double>(calls));
  }
  std::nth_element(rounds.begin(), rounds.begin() + kRounds / 2, rounds.end());
  return rounds[kRounds / 2];
}

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
    const std::string suffix = "_" + std::to_string(n) + "q_seconds";

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
    extras.emplace_back("plan_best_single_cut" + suffix, single);
    extras.emplace_back("plan_chain_cuts" + suffix, chain);
    std::cout << n << " qubits: plan_best_single_cut " << single * 1e6
              << " us, plan_chain_cuts " << chain * 1e6 << " us\n";
  }

  for (const int bits : {4, 16}) {
    const std::vector<double> probs = seeded_distribution(pow2(bits), 97);
    Rng rng(5);
    const double seconds = median_seconds_per_call([&] {
      sink += sim::sample_histogram(probs, 4000, rng).back();
    });
    extras.emplace_back("sample_histogram_" + std::to_string(pow2(bits)) + "_outcomes_seconds",
                        seconds);
    std::cout << "sample_histogram 4000 shots over 2^" << bits << " outcomes: " << seconds * 1e6
              << " us\n";
  }

  // Printing the sink keeps the timed calls from being optimized away.
  std::cout << "checksum " << sink << "\n";
  (void)bench::write_bench_json("micro_planner", wall.elapsed_seconds(), 1.0, extras);
  return 0;
}
