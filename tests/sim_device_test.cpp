// Device-agnostic compiled-circuit interface suite (sim/device.hpp).
//
// Gates the contracts layers above the simulator rely on:
//  * compile + apply through the Device matches the engine's reference
//    results (bit-for-bit scalar, within 1e-12 under SIMD);
//  * compile_prefix/compile_suffix forking is bit-for-bit identical to a
//    whole-circuit compile at every split point (the stream property,
//    lifted to the Device level);
//  * state management (create/copy) is exact;
//  * identity tokens encode exactly the result-affecting knobs;
//  * summaries report what the op stream became.

#include "sim/device.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "circuit/random.hpp"
#include "common/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/simd_kernels.hpp"
#include "sim/statevector.hpp"
#include "support/digest.hpp"

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
    StateVector reference(width);
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
