// Per-call cost of the circuit handling a CutService job does on its
// scheduler thread before any simulation: copying the request circuit (as
// cutting::resolve does), carving the fragment chain (make_fragment_chain),
// building and byte-hashing every fragment variant (make_fragment_variant +
// service::hash_variant_execution), and keying a wave the way the service
// does, from one stream per fragment and no circuit
// (service::fragment_key_stream + fragment_variant_key). Then the pool
// side's compile: compile_variants compiles every variant the way
// StatevectorBackend::run_batch does, one Device::compile_prefix per
// shared-prefix group (cutting::group_by_shared_prefix, grouped once
// outside the timed call) and one compile_suffix per member. Two shapes:
// the perfbench sweep_warm job (depth-3 QAOA on a 12-qubit path, middle
// wire cut) and the paper's 6-qubit Fig. 2 circuit with its designed cut.
// Writes BENCH_micro_circuit.json: median seconds and heap allocations per
// call of each step, plus sizeof(circuit::Operation).
//
// Gate, timed in interleaved rounds (medians): exits nonzero unless keying
// the sweep shape's wave takes at most 0.4x the time of building and
// hashing its 9 variants.

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "bench_timing.hpp"
#include "circuit/random.hpp"
#include "common/stopwatch.hpp"
#include "cutting/variants.hpp"
#include "service/circuit_hash.hpp"
#include "sim/device.hpp"
#include "support/counting_new.hpp"
#include "support/qaoa_path.hpp"

namespace {

using namespace qcut;
using bench::interleaved_median_seconds;
using bench::median_seconds_per_call;
using circuit::Circuit;
using circuit::WirePoint;

/// Heap allocations one call makes (the count is deterministic).
template <typename Call>
double allocations_per_call(Call&& call) {
  return static_cast<double>(qcut::support::allocations_of(call));
}

struct Shape {
  std::string name;
  Circuit circuit;
  std::vector<std::vector<WirePoint>> boundaries;
};

}  // namespace

int main() {
  Stopwatch wall;
  std::vector<std::pair<std::string, double>> extras;
  std::uint64_t sink = 0;
  double gate_ratio = 0.0;

  std::vector<Shape> shapes;
  {
    Circuit sweep = circuit::qaoa_path(12, 3, 0.4, 0.3);
    const WirePoint cut = circuit::middle_cut(sweep);
    shapes.push_back({"sweep_qaoa12", std::move(sweep), {{cut}}});
    Rng rng(6);
    circuit::GoldenAnsatzOptions options;
    options.num_qubits = 6;
    circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
    shapes.push_back({"golden_6q", std::move(ansatz.circuit), {{ansatz.cut}}});
  }

  for (const Shape& shape : shapes) {
    const cutting::FragmentGraph graph =
        cutting::make_fragment_chain(shape.circuit, shape.boundaries);
    const cutting::ChainNeglectSpec spec = cutting::ChainNeglectSpec::none(graph);
    std::vector<std::pair<int, cutting::FragmentVariantKey>> variants;
    for (int f = 0; f < graph.num_fragments(); ++f) {
      for (const cutting::FragmentVariantKey key :
           cutting::required_fragment_variants(graph, f, spec)) {
        variants.emplace_back(f, key);
      }
    }

    const auto copy = [&] {
      const Circuit copied = shape.circuit;
      sink += copied.num_ops();
    };
    const auto chain = [&] {
      sink += cutting::make_fragment_chain(shape.circuit, shape.boundaries).num_fragments();
    };
    const auto keys = [&] {
      for (const auto& [fragment, key] : variants) {
        const cutting::FragmentVariant variant =
            cutting::make_fragment_variant(graph, fragment, key);
        sink += service::hash_variant_execution(variant.circuit, 4000, false, 1, "sv").lo;
      }
    };
    // The variants are fragment-major, as a service wave's slots are.
    const auto cached_keys = [&] {
      int stream_fragment = -1;
      service::HashStream stream;
      for (const auto& [fragment, key] : variants) {
        if (fragment != stream_fragment) {
          stream_fragment = fragment;
          const cutting::ChainFragment& frag = graph.fragments[static_cast<std::size_t>(fragment)];
          stream = service::fragment_key_stream(frag, "sv");
        }
        sink += service::fragment_variant_key(stream, key, 4000, false, 1).lo;
      }
    };

    std::vector<Circuit> circuits;
    for (const auto& [fragment, key] : variants) {
      circuits.push_back(cutting::make_fragment_variant(graph, fragment, key).circuit);
    }
    std::vector<const Circuit*> circuit_ptrs;
    for (const Circuit& c : circuits) circuit_ptrs.push_back(&c);
    const std::vector<cutting::PrefixGroup> groups = cutting::group_by_shared_prefix(circuit_ptrs);
    const std::unique_ptr<sim::Device> device = sim::make_cpu_device();
    const auto compile_variants = [&] {
      for (const cutting::PrefixGroup& group : groups) {
        const auto prefix =
            device->compile_prefix(circuits[group.members.front()], group.prefix_ops);
        for (const std::size_t m : group.members) {
          sink += static_cast<std::uint64_t>(
              device->compile_suffix(*prefix, circuits[m])->num_qubits());
        }
      }
    };

    const std::vector<std::pair<std::string, double>> steps = {
        {"copy", median_seconds_per_call(copy)},
        {"fragment_chain", median_seconds_per_call(chain)},
        {"variants_and_keys", median_seconds_per_call(keys)},
        {"cached_wave_keys", median_seconds_per_call(cached_keys)},
        {"compile_variants", median_seconds_per_call(compile_variants)}};
    const std::vector<double> allocations = {
        allocations_per_call(copy), allocations_per_call(chain), allocations_per_call(keys),
        allocations_per_call(cached_keys), allocations_per_call(compile_variants)};
    std::cout << shape.name << " (" << shape.circuit.num_ops() << " ops, " << variants.size()
              << " variants):";
    for (std::size_t s = 0; s < steps.size(); ++s) {
      const std::string prefix = shape.name + "_" + steps[s].first;
      extras.emplace_back(prefix + "_seconds", steps[s].second);
      extras.emplace_back(prefix + "_allocations", allocations[s]);
      std::cout << " " << steps[s].first << " " << steps[s].second * 1e6 << " us / "
                << allocations[s] << " allocs;";
    }
    const auto [built, cached] = interleaved_median_seconds(keys, cached_keys);
    const double ratio = cached / built;
    extras.emplace_back(shape.name + "_cached_over_built_keys", ratio);
    std::cout << " interleaved: cached_wave_keys " << ratio << "x variants_and_keys\n";
    if (shape.name == "sweep_qaoa12") gate_ratio = ratio;
  }
  extras.emplace_back("sizeof_operation_bytes", static_cast<double>(sizeof(circuit::Operation)));
  std::cout << "sizeof(Operation) " << sizeof(circuit::Operation) << " B\n";

  // Printing the sink keeps the timed calls from being optimized away.
  std::cout << "checksum " << sink << "\n";
  (void)bench::write_bench_json("micro_circuit", wall.elapsed_seconds(), 1.0, extras);

  constexpr double kKeyRatio = 0.4;
  if (gate_ratio > kKeyRatio) {
    std::cout << "micro_circuit: keying the sweep wave takes " << gate_ratio
              << "x the time of building and hashing its variants, above the " << kKeyRatio
              << "x target\n";
    return 1;
  }
  return 0;
}
