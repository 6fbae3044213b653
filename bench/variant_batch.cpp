// Batched vs per-variant fragment execution across fragment widths and cut
// counts (the tentpole of the prefix-sharing engine).
//
// A 3-fragment chain is built so the INTERIOR fragment has width W and K
// cut wires on each boundary: it must execute 6^K x 3^K variants, and all
// 3^K setting variants of one prep tuple share "preparations + body"
// verbatim. The per-variant path (the backend behind
// support/per_variant_backend.hpp, whose run_batch runs every job through
// run()) simulates every variant from |0...0>; the batched path simulates
// each shared prefix once and forks cheap suffixes through
// StatevectorBackend::run_batch. Both paths produce bit-for-bit identical
// data — the totals and every per-variant distribution are compared after
// timing (the full equality matrix across specs, shot plans, golden modes,
// and backends lives in tests/cutting_batch_execution_test.cpp).
//
// Acceptance target (ISSUE 4): >= 3x wall-clock speedup on the 2-cut
// interior fragment at 12+ qubits. Exits nonzero below target so CI can
// gate on it.

#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"

#include "backend/statevector_backend.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "cutting/fragment_executor.hpp"
#include "cutting/reconstructor.hpp"
#include "support/per_variant_backend.hpp"

namespace {

using namespace qcut;
using circuit::WirePoint;

/// Brickwork layer over `qubits`: ry on each, cx between neighbours.
void brickwork(circuit::Circuit& c, const std::vector<int>& qubits, int depth, Rng& rng) {
  for (int layer = 0; layer < depth; ++layer) {
    for (int q : qubits) c.ry(rng.uniform(0.0, 6.28), q);
    for (std::size_t i = layer % 2; i + 1 < qubits.size(); i += 2) {
      c.cx(qubits[i], qubits[i + 1]);
    }
  }
}

struct ChainFixture {
  circuit::Circuit circuit{1};
  cutting::FragmentGraph graph;
};

/// 3-fragment chain: edge fragments of width K, interior of width W with K
/// cut wires on each boundary.
ChainFixture make_fixture(int interior_width, int cuts, int interior_depth, std::uint64_t seed) {
  Rng rng(seed);
  const int w = interior_width;
  circuit::Circuit c(w);

  std::vector<int> head(static_cast<std::size_t>(cuts));
  std::vector<int> all(static_cast<std::size_t>(w));
  std::vector<int> tail(static_cast<std::size_t>(cuts));
  for (int q = 0; q < cuts; ++q) head[static_cast<std::size_t>(q)] = q;
  for (int q = 0; q < w; ++q) all[static_cast<std::size_t>(q)] = q;
  for (int q = 0; q < cuts; ++q) tail[static_cast<std::size_t>(q)] = w - cuts + q;

  brickwork(c, head, 2, rng);
  std::vector<WirePoint> boundary0;
  for (int q : head) {
    std::size_t cut_after = 0;
    for (std::size_t i = 0; i < c.num_ops(); ++i) {
      if (c.op(i).acts_on(q)) cut_after = i;
    }
    boundary0.push_back(WirePoint{q, cut_after});
  }

  brickwork(c, all, interior_depth, rng);
  std::vector<WirePoint> boundary1;
  for (int q : tail) {
    std::size_t cut_after = 0;
    for (std::size_t i = 0; i < c.num_ops(); ++i) {
      if (c.op(i).acts_on(q)) cut_after = i;
    }
    boundary1.push_back(WirePoint{q, cut_after});
  }

  brickwork(c, tail, 2, rng);

  const std::vector<std::vector<WirePoint>> boundaries = {boundary0, boundary1};
  ChainFixture fixture{std::move(c), {}};
  fixture.graph = cutting::make_fragment_chain(fixture.circuit, boundaries);
  return fixture;
}

/// Best-of-`repeats` wall seconds for one execute_chain configuration.
/// `last_data_out` receives the data of the final repeat (fixed seeds, so
/// the two paths' final repeats are comparable bit for bit).
double time_execution(const ChainFixture& fixture, backend::Backend& backend, int repeats,
                      cutting::ChainFragmentData& last_data_out) {
  const cutting::ChainNeglectSpec spec = cutting::ChainNeglectSpec::none(fixture.graph);
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    cutting::ExecutionOptions exec;
    exec.shots_per_variant = 128;
    exec.seed_stream_base = static_cast<std::uint64_t>(r) << 40;
    Stopwatch watch;
    cutting::ChainFragmentData data =
        cutting::execute_chain(fixture.graph, spec, backend, exec);
    const double seconds = watch.elapsed_seconds();
    if (r + 1 == repeats) last_data_out = std::move(data);
    if (r == 0 || seconds < best) best = seconds;
  }
  return best;
}

/// Bit-for-bit equality of the two paths' data (run_batch contract).
bool same_data(const cutting::ChainFragmentData& a, const cutting::ChainFragmentData& b) {
  if (a.total_jobs != b.total_jobs || a.total_shots != b.total_shots ||
      a.num_fragments() != b.num_fragments()) {
    return false;
  }
  for (int f = 0; f < a.num_fragments(); ++f) {
    const auto& va = a.fragments[static_cast<std::size_t>(f)].variants;
    const auto& vb = b.fragments[static_cast<std::size_t>(f)].variants;
    if (va != vb) return false;
  }
  return true;
}

struct Config {
  int width;
  int cuts;
};

}  // namespace

int main() {
  const std::vector<Config> configs = {{8, 1}, {10, 1}, {12, 1}, {10, 2}, {12, 2}};
  constexpr int kInteriorDepth = 14;
  constexpr int kRepeats = 3;
  constexpr double kTargetSpeedup = 3.0;  // on the 12-qubit 2-cut interior

  Table table({"interior qubits", "cuts/boundary", "variants", "per-variant s", "batched s",
               "speedup"});
  std::vector<std::pair<std::string, double>> extras;
  double headline_speedup = 0.0;
  double headline_batched_seconds = 0.0;

  for (const Config& config : configs) {
    const ChainFixture fixture = make_fixture(config.width, config.cuts, kInteriorDepth, 29);
    backend::StatevectorBackend serial_inner(11);
    backend::PerVariantBackend serial_backend(serial_inner);
    backend::StatevectorBackend batched_backend(11);
    cutting::ChainFragmentData serial_data;
    cutting::ChainFragmentData batched_data;
    const double serial_seconds =
        time_execution(fixture, serial_backend, kRepeats, serial_data);
    const double batched_seconds =
        time_execution(fixture, batched_backend, kRepeats, batched_data);
    const double speedup = serial_seconds / batched_seconds;

    if (!same_data(serial_data, batched_data)) {
      std::cerr << "FAIL: batched execution diverged from the per-variant path at "
                << config.width << " qubits, " << config.cuts << " cuts/boundary\n";
      return EXIT_FAILURE;
    }

    table.add_row({std::to_string(config.width), std::to_string(config.cuts),
                   std::to_string(serial_data.total_jobs), format_double(serial_seconds, 4),
                   format_double(batched_seconds, 4), format_double(speedup, 2) + "x"});

    const std::string tag =
        "_w" + std::to_string(config.width) + "_k" + std::to_string(config.cuts);
    extras.emplace_back("per_variant_seconds" + tag, serial_seconds);
    extras.emplace_back("batched_seconds" + tag, batched_seconds);
    extras.emplace_back("speedup" + tag, speedup);
    if (config.width == 12 && config.cuts == 2) {
      headline_speedup = speedup;
      headline_batched_seconds = batched_seconds;
    }
  }

  std::cout << "Batched (prefix-sharing) vs per-variant fragment execution\n"
            << table.to_string() << "\n"
            << "headline (12 qubits, 2 cuts/boundary): " << format_double(headline_speedup, 2)
            << "x (target >= " << format_double(kTargetSpeedup, 1) << "x)\n";

  extras.emplace_back("headline_qubits", 12.0);
  extras.emplace_back("headline_cuts", 2.0);
  (void)qcut::bench::write_bench_json("variant_batch", headline_batched_seconds,
                                      headline_speedup, extras);

  if (headline_speedup < kTargetSpeedup) {
    std::cerr << "FAIL: batched execution speedup " << format_double(headline_speedup, 2)
              << "x below " << format_double(kTargetSpeedup, 1) << "x target\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
