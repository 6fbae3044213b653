// Device-agnostic compiled-circuit interface suite (sim/device.hpp).
//
// Gates the contracts layers above the simulator rely on:
//  * compile + apply through the Device matches the engine's reference
//    results (bit-for-bit on the width-1 tier, within 1e-12 under SIMD);
//  * compile_prefix/compile_suffix forking is bit-for-bit identical to a
//    whole-circuit compile at every split point (the stream property,
//    lifted to the Device level);
//  * state management (create/copy) is exact;
//  * identity tokens encode exactly the result-affecting knobs;
//  * summaries report what the op stream became.

#include "sim/device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "circuit/random.hpp"
#include "common/rng.hpp"
#include "linalg/ops.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/simd_kernels.hpp"
#include "sim/soa_state.hpp"
#include "sim/statevector.hpp"
#include "support/digest.hpp"
#include "telemetry/metrics.hpp"

namespace qcut::sim {
namespace {

using circuit::Circuit;

Circuit random_circuit_of(int width, int depth, std::uint64_t seed) {
  Rng rng(seed);
  circuit::RandomCircuitOptions rc;
  rc.num_qubits = width;
  rc.depth = depth;
  return circuit::random_circuit(rc, rng);
}

std::vector<double> device_probabilities(const Device& device, const Circuit& c) {
  const auto program = device.compile(c);
  const auto state = device.create_state(c.num_qubits());
  device.apply(*program, *state);
  std::vector<double> probs;
  device.probabilities(*state, probs);
  return probs;
}

TEST(CpuDevice, CapsDescribeTheEngine) {
  const auto device = make_cpu_device();
  EXPECT_EQ(device->caps().name, "cpu");
  EXPECT_EQ(device->caps().isa, IsaLevel::Scalar);  // simd defaults off

  EngineOptions simd_options;
  simd_options.simd = true;
  const auto simd_device = make_cpu_device(simd_options);
  EXPECT_EQ(simd_device->caps().isa, simd::best_isa());
}

TEST(CpuDevice, ApplyMatchesEngineReference) {
  const auto device = make_cpu_device();
  for (int width = 2; width <= 8; ++width) {
    const Circuit c = random_circuit_of(width, 16, 100 + static_cast<std::uint64_t>(width));
    SoAState reference(width);
    compile_circuit(c, EngineOptions{}).apply(reference);

    const auto program = device->compile(c);
    const auto state = device->create_state(width);
    device->apply(*program, *state);
    const linalg::CVec amps = device->amplitudes(*state);
    ASSERT_EQ(amps.size(), reference.dim());
    for (index_t i = 0; i < reference.dim(); ++i) {
      EXPECT_EQ(amps[i], reference.amplitude(i)) << i;
    }
  }
}

// Frozen digests of the default device's raw amplitude bits (zero signs
// included) over 96 seeded circuits of widths 1..12, fused and unfused,
// serial and threaded + cache-blocked. Threading and blocking are
// bit-neutral, so both modes share one digest per fusion setting.
TEST(CpuDevice, AmplitudesMatchFrozenDigests) {
  parallel::ThreadPool pool(3);
  const auto digest = [&](bool fuse, bool threaded) {
    EngineOptions options;
    options.fuse = fuse;
    if (threaded) {
      options.threading_threshold_qubits = 2;
      options.min_parallel_work = 0;
      options.cache_block_qubits = 3;
      options.pool = &pool;
    } else {
      options.threading_threshold_qubits = 27;
    }
    const auto device = make_cpu_device(options);
    std::vector<double> bits;
    for (std::uint64_t seed = 0; seed < 96; ++seed) {
      const int width = 1 + static_cast<int>(seed % 12);
      const Circuit c = random_circuit_of(width, 4 + static_cast<int>(seed % 5), 9000 + seed);
      const auto program = device->compile(c);
      const auto state = device->create_state(width);
      device->apply(*program, *state);
      for (const cx& amp : device->amplitudes(*state)) {
        bits.push_back(amp.real());
        bits.push_back(amp.imag());
      }
    }
    return fnv1a(bits);
  };
  for (const bool threaded : {false, true}) {
    EXPECT_EQ(digest(true, threaded), 0x3c0eaddd743cef4bULL) << "fused, threaded=" << threaded;
    EXPECT_EQ(digest(false, threaded), 0x8230b458228b66c0ULL) << "unfused, threaded=" << threaded;
  }
}

/// The shared FNV-1a word stream, fed a complex entry as its two words.
struct WordDigest : Fnv1a {
  using Fnv1a::add;
  void add(cx value) {
    add(std::bit_cast<std::uint64_t>(value.real()));
    add(std::bit_cast<std::uint64_t>(value.imag()));
  }
};

/// Everything a compiled program's kernels read: per op its class, qubit
/// lists, masks, matrix entry bits, diagonal (offset, factor) pairs and
/// permutation (dst, src, phase, is-one) moves; then the segment plan.
void digest_program(const CompiledProgram& program, WordDigest& digest) {
  const CompiledCircuit& compiled = cpu_compiled_circuit(program);
  digest.add(compiled.num_ops());
  for (const CompiledOp& op : compiled.compiled_ops()) {
    digest.add(static_cast<std::uint64_t>(op.cls));
    digest.add(op.qubits.size());
    for (const int q : op.qubits) digest.add(static_cast<std::uint64_t>(q));
    for (const int q : op.sorted_qubits) digest.add(static_cast<std::uint64_t>(q));
    digest.add(op.control_mask);
    digest.add(op.target_mask);
    digest.add(op.matrix.rows());
    for (std::size_t r = 0; r < op.matrix.rows(); ++r) {
      for (std::size_t c = 0; c < op.matrix.cols(); ++c) digest.add(op.matrix(r, c));
    }
    digest.add(op.diag_factors.size());
    for (const auto& [offset, factor] : op.diag_factors) {
      digest.add(offset);
      digest.add(factor);
    }
    digest.add(op.perm_dst.size());
    for (std::size_t i = 0; i < op.perm_dst.size(); ++i) {
      digest.add(op.perm_dst[i]);
      if (op.cls == KernelClass::GenericKQ) continue;  // scatter offsets only
      digest.add(op.perm_src[i]);
      digest.add(op.perm_phase[i]);
      digest.add(op.perm_phase_is_one[i] != 0 ? 1U : 0U);
    }
  }
  digest.add(compiled.segments().size());
  for (const CompiledCircuit::Segment& seg : compiled.segments()) {
    digest.add(seg.begin);
    digest.add(seg.end);
    digest.add(seg.blocked ? 1U : 0U);
  }
}

linalg::CMat random_u3(Rng& rng) {
  return circuit::gate_matrix(circuit::GateKind::U,
                              {rng.uniform(0.0, 6.28), rng.uniform(0.0, 6.28),
                               rng.uniform(0.0, 6.28)});
}

/// Diagonal of random phases; every other entry is exactly 1, which the
/// diagonal kernel skips.
linalg::CMat random_phases(std::size_t dim, Rng& rng) {
  linalg::CVec entries(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    entries[i] = i % 2 == 0 ? cx{1.0, 0.0} : std::polar(1.0, rng.uniform(0.0, 6.28));
  }
  return linalg::CMat::diagonal(entries);
}

/// A Custom block on `k` qubits of one of four shapes: dense, diagonal,
/// phased permutation or (k == 2) controlled.
linalg::CMat random_custom(int k, Rng& rng) {
  using circuit::GateKind;
  using circuit::gate_matrix;
  const std::size_t dim = pow2(k);
  switch (rng.uniform_int(0, k == 2 ? 3 : 2)) {
    case 0: {  // dense
      linalg::CMat m = random_u3(rng);
      for (int q = 1; q < k; ++q) m = linalg::kron(random_u3(rng), m);
      if (k == 2) return m * gate_matrix(GateKind::CX, {});
      if (k == 3) return m * gate_matrix(GateKind::CCX, {});
      if (k == 4) {
        return m * linalg::kron(gate_matrix(GateKind::CX, {}), gate_matrix(GateKind::CH, {}));
      }
      return m;
    }
    case 1:
      return random_phases(dim, rng);
    case 2: {  // phased permutation (dense above 3 qubits)
      linalg::CMat perm = linalg::CMat::identity(dim);
      if (k == 1) perm = gate_matrix(GateKind::X, {});
      if (k == 2) perm = gate_matrix(GateKind::ISwap, {});
      if (k == 3) perm = gate_matrix(GateKind::CSWAP, {});
      if (k == 4) {
        perm = linalg::kron(gate_matrix(GateKind::SWAP, {}), gate_matrix(GateKind::CX, {}));
      }
      return perm * random_phases(dim, rng);
    }
    default: {  // controlled 2x2, control on either local bit
      const linalg::CMat u = random_u3(rng);
      const std::size_t control = rng.uniform_int(0, 1) == 0 ? 1 : 2;
      linalg::CMat m = linalg::CMat::identity(4);
      m(control, control) = u(0, 0);
      m(control, 3) = u(0, 1);
      m(3, control) = u(1, 0);
      m(3, 3) = u(1, 1);
      return m;
    }
  }
}

/// A seeded circuit drawing from every GateKind and Custom blocks on 1-4
/// qubits (dense, diagonal, phased-permutation and controlled shapes).
Circuit every_kind_circuit(int width, int num_ops, std::uint64_t seed) {
  using circuit::GateKind;
  Rng rng(seed);
  Circuit c(width);
  const int num_named = static_cast<int>(GateKind::Custom);
  while (static_cast<int>(c.num_ops()) < num_ops) {
    const bool custom = rng.uniform_int(0, 3) == 0;
    const auto kind = static_cast<GateKind>(rng.uniform_int(0, num_named - 1));
    const int k =
        custom ? static_cast<int>(rng.uniform_int(1, 4)) : circuit::gate_num_qubits(kind);
    if (k > width) continue;
    std::vector<int> qubits;
    while (static_cast<int>(qubits.size()) < k) {
      const int q = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(width - 1)));
      if (std::find(qubits.begin(), qubits.end(), q) == qubits.end()) qubits.push_back(q);
    }
    if (custom) {
      c.append_custom(random_custom(k, rng), qubits, "block");
      continue;
    }
    std::vector<double> params;
    for (int p = 0; p < circuit::gate_num_params(kind); ++p) {
      params.push_back(rng.uniform(-6.28, 6.28));
    }
    c.append(kind, qubits, params);
  }
  return c;
}

// Frozen digests of the compiled programs themselves (classes, qubits,
// kernel tables and segment plans), recorded before the compile path moved
// to inline storage. The amplitude digests cannot see a table entry whose
// arithmetic happens to round the same way; these can. Each configuration
// digests compile(c) and compile_prefix + compile_suffix at every split of
// 36 seeded circuits of widths 1..6 covering every GateKind and Custom
// blocks on 1-4 qubits.
TEST(CpuDevice, CompiledProgramsMatchFrozenDigests) {
  const auto digest = [](const EngineOptions& options) {
    const auto device = make_cpu_device(options);
    WordDigest digest;
    for (std::uint64_t seed = 0; seed < 36; ++seed) {
      const int width = 1 + static_cast<int>(seed % 6);
      const Circuit c = every_kind_circuit(width, 12 + static_cast<int>(seed % 17), 7000 + seed);
      digest_program(*device->compile(c), digest);
      for (std::size_t split = 0; split <= c.num_ops(); ++split) {
        const auto prefix = device->compile_prefix(c, split);
        digest_program(*prefix, digest);
        digest_program(*device->compile_suffix(*prefix, c), digest);
      }
    }
    return digest.value();
  };
  EngineOptions fused;
  EngineOptions unfused;
  unfused.fuse = false;
  EngineOptions fused_blocked;
  fused_blocked.cache_block_qubits = 2;
  EXPECT_EQ(digest(fused), 0xd1e6fbaf7b681fafULL) << "fused";
  EXPECT_EQ(digest(unfused), 0x1028bebebaacf89fULL) << "unfused";
  EXPECT_EQ(digest(fused_blocked), 0xb4c28789b0824619ULL) << "fused, blocked below 2 qubits";
  EXPECT_EQ(digest(EngineOptions::generic()), 0x600fcafb0e8211e0ULL) << "generic";
}

TEST(CpuDevice, PrefixSuffixForkMatchesWholeCompileAtEverySplit) {
  const auto device = make_cpu_device();
  const Circuit c = random_circuit_of(4, 12, 7);
  const std::vector<double> whole = device_probabilities(*device, c);

  for (std::size_t split = 0; split <= c.num_ops(); ++split) {
    const auto prefix = device->compile_prefix(c, split);
    const auto state = device->create_state(c.num_qubits());
    device->apply(*prefix, *state);
    const auto suffix = device->compile_suffix(*prefix, c);
    device->apply(*suffix, *state);
    std::vector<double> probs;
    device->probabilities(*state, probs);
    ASSERT_EQ(probs.size(), whole.size()) << "split " << split;
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(probs[i], whole[i]) << "split " << split << " @ " << i;
    }
  }
}

TEST(CpuDevice, CopyStateIsExact) {
  const auto device = make_cpu_device();
  const Circuit c = random_circuit_of(5, 10, 11);
  const auto program = device->compile(c);
  const auto state = device->create_state(5);
  device->apply(*program, *state);

  const auto copy = device->create_state(5);
  device->copy_state(*state, *copy);
  EXPECT_EQ(copy->num_qubits(), 5);
  EXPECT_EQ(copy->dim(), index_t{32});
  EXPECT_EQ(device->amplitudes(*copy), device->amplitudes(*state));

  // The copy is independent: advancing the original leaves it untouched.
  device->apply(*program, *state);
  EXPECT_NE(device->amplitudes(*copy), device->amplitudes(*state));
}

TEST(CpuDevice, SummaryReportsCompiledShape) {
  Circuit c(3);
  c.h(0).t(0).cx(0, 1).rz(0.3, 2).cz(1, 2);
  const auto device = make_cpu_device();
  const ProgramSummary s = device->compile(c)->summary();
  EXPECT_EQ(s.source_ops, 5u);
  // h-t fuse into one 2x2 (2 source gates absorbed); cx, rz, cz keep their
  // specialized classes.
  EXPECT_EQ(s.compiled_ops, 4u);
  EXPECT_EQ(s.fused_absorbed, 2u);
  EXPECT_EQ(s.class_counts[static_cast<std::size_t>(KernelClass::Permutation)], 1u);
  EXPECT_EQ(s.class_counts[static_cast<std::size_t>(KernelClass::Diagonal)], 2u);
  EXPECT_EQ(s.class_counts[static_cast<std::size_t>(KernelClass::Generic1Q)], 1u);
  EXPECT_EQ(s.isa, IsaLevel::Scalar);
  EXPECT_GT(s.fused_fraction(), 0.0);
  EXPECT_FALSE(s.to_string().empty());

  // A batched member records what one compile(c) records: its suffix
  // program reports the whole circuit's fusion, the prefix none, and the
  // process-wide fusion counters move as they do for compile(c).
  const auto counters = [] {
    const telemetry::MetricsSnapshot snap = telemetry::MetricsRegistry::global().snapshot();
    return std::pair{snap.counter_value("sim.fusion.gates_in"),
                     snap.counter_value("sim.fusion.gates_absorbed")};
  };
  const auto [in_before, absorbed_before] = counters();
  (void)device->compile(c);
  const auto [in_whole, absorbed_whole] = counters();
  EXPECT_EQ(in_whole - in_before, 5u);
  EXPECT_EQ(absorbed_whole - absorbed_before, 2u);
  for (std::size_t split = 0; split <= c.num_ops(); ++split) {
    const auto [in0, absorbed0] = counters();
    const auto prefix = device->compile_prefix(c, split);
    const ProgramSummary ps = prefix->summary();
    EXPECT_EQ(ps.source_ops, split) << "split " << split;
    EXPECT_EQ(ps.fused_absorbed, 0u) << "split " << split;
    const ProgramSummary ss = device->compile_suffix(*prefix, c)->summary();
    EXPECT_EQ(ss.source_ops, 5u) << "split " << split;
    EXPECT_EQ(ss.fused_absorbed, 2u) << "split " << split;
    EXPECT_EQ(ss.fused_fraction(), s.fused_fraction()) << "split " << split;
    const auto [in1, absorbed1] = counters();
    EXPECT_EQ(in1 - in0, 5u) << "split " << split;
    EXPECT_EQ(absorbed1 - absorbed0, 2u) << "split " << split;
  }
}

TEST(CpuDevice, IdentityTokenEncodesResultAffectingKnobsOnly) {
  EXPECT_EQ(make_cpu_device()->identity_token(), "+fusion");

  EngineOptions no_fuse;
  no_fuse.fuse = false;
  EXPECT_EQ(make_cpu_device(no_fuse)->identity_token(), "");

  // Bit-neutral knobs must NOT appear: threading, grain, blocking.
  EngineOptions neutral;
  neutral.threading_threshold_qubits = 2;
  neutral.min_parallel_work = 1;
  neutral.cache_block_qubits = 3;
  EXPECT_EQ(make_cpu_device(neutral)->identity_token(),
            make_cpu_device()->identity_token());

  EngineOptions simd_options;
  simd_options.simd = true;
  const std::string simd_token = make_cpu_device(simd_options)->identity_token();
  if (simd::best_isa() == IsaLevel::Scalar) {
    EXPECT_EQ(simd_token, "+fusion");  // quiet fallback: still bit-exact
  } else {
    EXPECT_EQ(simd_token, "+fusion+simd(" + isa_level_name(simd::best_isa()) + ")");
  }
}

TEST(CpuDevice, SimdDeviceMatchesScalarWithin1em12) {
  if (simd::best_isa() == IsaLevel::Scalar) {
    GTEST_SKIP() << "SIMD tiers unavailable; device pins to scalar";
  }
  EngineOptions simd_options;
  simd_options.simd = true;
  const auto scalar_device = make_cpu_device();
  const auto simd_device = make_cpu_device(simd_options);
  const Circuit c = random_circuit_of(9, 24, 17);
  const std::vector<double> scalar = device_probabilities(*scalar_device, c);
  const std::vector<double> vectorized = device_probabilities(*simd_device, c);
  ASSERT_EQ(scalar.size(), vectorized.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_NEAR(scalar[i], vectorized[i], 1e-12) << i;
  }

  // Prefix forking stays exact relative to the SIMD device's own whole
  // compile (the stream property is layout- and ISA-independent).
  const std::vector<double> whole = device_probabilities(*simd_device, c);
  const auto prefix = simd_device->compile_prefix(c, c.num_ops() / 2);
  const auto state = simd_device->create_state(c.num_qubits());
  simd_device->apply(*prefix, *state);
  const auto suffix = simd_device->compile_suffix(*prefix, c);
  simd_device->apply(*suffix, *state);
  std::vector<double> forked;
  simd_device->probabilities(*state, forked);
  EXPECT_EQ(forked, whole);
}

}  // namespace
}  // namespace qcut::sim
