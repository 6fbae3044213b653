// Heap allocations of compiling fragment variants. A named gate's matrix,
// the fusion scan with its pending runs, chains and products, and every
// compiled op's kernel tables live inline, so Device::compile,
// compile_prefix and compile_suffix allocate a fixed number of blocks per
// call and none per op: the program, the fused stream, and the program's
// op and segment arrays. Only Custom blocks on three or more qubits may
// spill. Applying a program allocates nothing, dense 3-qubit Custom blocks
// included. The test counts every global operator new, so it lives in its
// own binary.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "circuit/random.hpp"
#include "cutting/fragment_graph.hpp"
#include "cutting/variants.hpp"
#include "linalg/ops.hpp"
#include "sim/device.hpp"
#include "support/counting_new.hpp"

namespace qcut::sim {
namespace {

using circuit::Circuit;
using support::allocations_of;

/// The program, the fused stream, the op array and the segment array.
constexpr std::size_t kMaxAllocationsPerCall = 4;

/// `c` with each op applied twice in a row: twice the ops, and a shared
/// prefix of p ops becomes one of 2p.
Circuit doubled(const Circuit& c) {
  Circuit out(c.num_qubits());
  std::vector<int> identity(static_cast<std::size_t>(c.num_qubits()));
  for (int q = 0; q < c.num_qubits(); ++q) identity[static_cast<std::size_t>(q)] = q;
  for (const circuit::Operation& op : c.ops()) {
    out.append_remapped(op, identity).append_remapped(op, identity);
  }
  return out;
}

/// `c` with every op replaced by a Custom block of the same unitary: one-
/// and two-qubit Custom blocks of every kernel shape.
Circuit as_custom_blocks(const Circuit& c) {
  Circuit out(c.num_qubits());
  for (const circuit::Operation& op : c.ops()) {
    out.append_custom(op.matrix(), op.qubits, "block");
  }
  return out;
}

/// A 6-qubit Fig. 2 circuit's fragment variants, fragment-major, as a cut
/// service wave builds them.
std::vector<Circuit> golden_variants() {
  Rng rng(6);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 6;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::vector<std::vector<circuit::WirePoint>> boundaries = {{ansatz.cut}};
  const cutting::FragmentGraph graph = cutting::make_fragment_chain(ansatz.circuit, boundaries);
  const cutting::ChainNeglectSpec spec = cutting::ChainNeglectSpec::none(graph);
  std::vector<Circuit> circuits;
  for (int f = 0; f < graph.num_fragments(); ++f) {
    for (const cutting::FragmentVariantKey key :
         cutting::required_fragment_variants(graph, f, spec)) {
      circuits.push_back(cutting::make_fragment_variant(graph, f, key).circuit);
    }
  }
  return circuits;
}

/// Allocations of every compile call StatevectorBackend::run_batch makes for
/// `circuits` under `groups`: per group one compile_prefix, then one
/// compile_suffix per member.
std::vector<std::size_t> batch_compile_allocations(
    const Device& device, const std::vector<Circuit>& circuits,
    const std::vector<cutting::PrefixGroup>& groups) {
  std::vector<std::size_t> counts;
  counts.reserve(64);
  for (const cutting::PrefixGroup& group : groups) {
    std::unique_ptr<CompiledProgram> prefix;
    counts.push_back(allocations_of([&] {
      prefix = device.compile_prefix(circuits[group.members.front()], group.prefix_ops);
    }));
    for (const std::size_t m : group.members) {
      std::unique_ptr<CompiledProgram> suffix;
      counts.push_back(
          allocations_of([&] { suffix = device.compile_suffix(*prefix, circuits[m]); }));
    }
  }
  return counts;
}

std::vector<cutting::PrefixGroup> groups_of(const std::vector<Circuit>& circuits) {
  std::vector<const Circuit*> ptrs;
  for (const Circuit& c : circuits) ptrs.push_back(&c);
  return cutting::group_by_shared_prefix(ptrs);
}

TEST(CompileAllocations, BatchedVariantsAllocateAFixedNumberPerCall) {
  const auto device = make_cpu_device();
  for (const bool custom : {false, true}) {
    std::vector<Circuit> circuits = golden_variants();
    if (custom) {
      for (Circuit& c : circuits) c = as_custom_blocks(c);
    }
    std::vector<Circuit> twice;
    for (const Circuit& c : circuits) twice.push_back(doubled(c));
    const std::vector<cutting::PrefixGroup> groups = groups_of(circuits);
    ASSERT_LT(groups.size(), circuits.size()) << "the variants share prefixes";
    std::vector<cutting::PrefixGroup> twice_groups = groups;
    for (cutting::PrefixGroup& group : twice_groups) group.prefix_ops *= 2;
    (void)batch_compile_allocations(*device, circuits, groups);  // first-use registrations

    const std::vector<std::size_t> once = batch_compile_allocations(*device, circuits, groups);
    EXPECT_EQ(batch_compile_allocations(*device, twice, twice_groups), once)
        << "custom=" << custom;
    for (std::size_t i = 0; i < once.size(); ++i) {
      EXPECT_LE(once[i], kMaxAllocationsPerCall) << "call " << i << ", custom=" << custom;
    }
  }
}

TEST(CompileAllocations, WholeCircuitCompileAllocatesAFixedNumber) {
  for (const bool fuse : {true, false}) {
    EngineOptions options;
    options.fuse = fuse;
    const auto device = make_cpu_device(options);
    for (Circuit c : golden_variants()) {
      for (const bool custom : {false, true}) {
        if (custom) c = as_custom_blocks(c);
        const Circuit twice = doubled(c);
        std::unique_ptr<CompiledProgram> program;
        (void)device->compile(c);
        const std::size_t once = allocations_of([&] { program = device->compile(c); });
        EXPECT_EQ(allocations_of([&] { program = device->compile(twice); }), once);
        EXPECT_LE(once, kMaxAllocationsPerCall) << "fuse=" << fuse << ", custom=" << custom;
      }
    }
  }
}

TEST(ApplyAllocations, ThreeQubitCustomBlocksAllocateNothing) {
  // Dense 3-qubit Custom blocks classify as GenericKQ, whose kernel keeps
  // its gather and scatter buffers inline up to three qubits.
  Rng rng(8);
  const auto u3 = [&] {
    return circuit::gate_matrix(circuit::GateKind::U, {rng.uniform(0.0, 6.28),
                                                       rng.uniform(0.0, 6.28),
                                                       rng.uniform(0.0, 6.28)});
  };
  Circuit c(5);
  for (int i = 0; i < 6; ++i) {
    const linalg::CMat dense = linalg::kron(u3(), linalg::kron(u3(), u3())) *
                               circuit::gate_matrix(circuit::GateKind::CCX, {});
    c.append_custom(dense, {i % 5, (i + 2) % 5, (i + 4) % 5}, "block");
  }
  const auto device = make_cpu_device();
  const auto program = device->compile(c);
  ASSERT_EQ(program->summary().class_counts[static_cast<std::size_t>(KernelClass::GenericKQ)],
            6u);
  const auto state = device->create_state(5);
  device->apply(*program, *state);  // first-use registrations
  EXPECT_EQ(allocations_of([&] { device->apply(*program, *state); }), 0u);
}

}  // namespace
}  // namespace qcut::sim
