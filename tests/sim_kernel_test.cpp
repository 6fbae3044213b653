// Gate-kernel engine equivalence suite (sim/engine.hpp).
//
// Gates the tentpole guarantees:
//  * every specialized kernel is BIT-FOR-BIT identical to the generic
//    StateVector::apply_matrix path, across random gates, random qubit
//    orders, and widths;
//  * threaded kernel application is bit-for-bit identical at any thread
//    count (1 vs N);
//  * the fusion pass stays within 1e-12 of the unfused circuit, and its
//    streaming scan satisfies the split property the statevector backend's
//    shared-prefix batching relies on;
//  * the rewritten StateVector helpers (product_state, expectation_pauli,
//    expectation) match their straightforward references.

#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "circuit/optimize.hpp"
#include "circuit/random.hpp"
#include "common/rng.hpp"
#include "linalg/ops.hpp"
#include "linalg/pauli_matrices.hpp"
#include "sim/simd_kernels.hpp"
#include "sim/soa_state.hpp"
#include "sim/statevector.hpp"

namespace qcut::sim {
namespace {

using circuit::Circuit;
using circuit::GateFusion;
using circuit::GateKind;
using circuit::Operation;

/// Random normalized state on n qubits.
StateVector random_state(int n, Rng& rng) {
  CVec amps(pow2(n));
  double norm2 = 0.0;
  for (cx& a : amps) {
    a = cx{rng.normal(), rng.normal()};
    norm2 += std::norm(a);
  }
  const double inv = 1.0 / std::sqrt(norm2);
  for (cx& a : amps) a *= inv;
  return StateVector::from_amplitudes(std::move(amps), /*check_normalization=*/false);
}

/// Exact (==) amplitude comparison. Double == ignores the sign of zero,
/// which is the one place specialized kernels may differ from the generic
/// path (a dropped `+ 0*a` term cannot change any nonzero double).
void expect_amps_equal(const StateVector& a, const StateVector& b) {
  ASSERT_EQ(a.dim(), b.dim());
  for (index_t i = 0; i < a.dim(); ++i) {
    EXPECT_EQ(a.amplitude(i).real(), b.amplitude(i).real()) << "re @ " << i;
    EXPECT_EQ(a.amplitude(i).imag(), b.amplitude(i).imag()) << "im @ " << i;
  }
}

void expect_amps_near(const StateVector& a, const StateVector& b, double tol) {
  ASSERT_EQ(a.dim(), b.dim());
  for (index_t i = 0; i < a.dim(); ++i) {
    EXPECT_NEAR(std::abs(a.amplitude(i) - b.amplitude(i)), 0.0, tol) << i;
  }
}

Operation make_op(GateKind kind, std::vector<int> qubits, std::vector<double> params = {}) {
  Operation op;
  op.kind = kind;
  op.qubits = std::move(qubits);
  op.params = std::move(params);
  return op;
}

Operation make_custom(linalg::CMat m, std::vector<int> qubits) {
  Operation op;
  op.kind = GateKind::Custom;
  op.qubits = std::move(qubits);
  op.custom = std::move(m);
  return op;
}

KernelClass classify_one(const Operation& op, int width) {
  const std::array<Operation, 1> ops = {op};
  EngineOptions options;
  options.fuse = false;
  return compile_ops(ops, width, options).kernel_class(0);
}

TEST(KernelClassification, KnownGates) {
  EXPECT_EQ(classify_one(make_op(GateKind::Z, {0}), 2), KernelClass::Diagonal);
  EXPECT_EQ(classify_one(make_op(GateKind::S, {1}), 2), KernelClass::Diagonal);
  EXPECT_EQ(classify_one(make_op(GateKind::T, {0}), 2), KernelClass::Diagonal);
  EXPECT_EQ(classify_one(make_op(GateKind::RZ, {0}, {0.7}), 2), KernelClass::Diagonal);
  EXPECT_EQ(classify_one(make_op(GateKind::P, {0}, {0.7}), 2), KernelClass::Diagonal);
  EXPECT_EQ(classify_one(make_op(GateKind::CZ, {0, 1}), 2), KernelClass::Diagonal);
  EXPECT_EQ(classify_one(make_op(GateKind::CP, {0, 1}, {0.7}), 2), KernelClass::Diagonal);
  EXPECT_EQ(classify_one(make_op(GateKind::CRZ, {0, 1}, {0.7}), 2), KernelClass::Diagonal);
  EXPECT_EQ(classify_one(make_op(GateKind::RZZ, {0, 1}, {0.7}), 2), KernelClass::Diagonal);

  EXPECT_EQ(classify_one(make_op(GateKind::X, {0}), 2), KernelClass::Permutation);
  EXPECT_EQ(classify_one(make_op(GateKind::Y, {0}), 2), KernelClass::Permutation);
  EXPECT_EQ(classify_one(make_op(GateKind::CX, {0, 1}), 2), KernelClass::Permutation);
  EXPECT_EQ(classify_one(make_op(GateKind::CY, {0, 1}), 2), KernelClass::Permutation);
  EXPECT_EQ(classify_one(make_op(GateKind::SWAP, {0, 1}), 2), KernelClass::Permutation);
  EXPECT_EQ(classify_one(make_op(GateKind::ISwap, {0, 1}), 2), KernelClass::Permutation);
  EXPECT_EQ(classify_one(make_op(GateKind::CCX, {0, 1, 2}), 3), KernelClass::Permutation);
  EXPECT_EQ(classify_one(make_op(GateKind::CSWAP, {0, 1, 2}), 3), KernelClass::Permutation);

  EXPECT_EQ(classify_one(make_op(GateKind::CH, {0, 1}), 2), KernelClass::Controlled1Q);
  EXPECT_EQ(classify_one(make_op(GateKind::CRX, {0, 1}, {0.7}), 2), KernelClass::Controlled1Q);
  EXPECT_EQ(classify_one(make_op(GateKind::CRY, {1, 0}, {0.7}), 2), KernelClass::Controlled1Q);

  EXPECT_EQ(classify_one(make_op(GateKind::H, {0}), 2), KernelClass::Generic1Q);
  EXPECT_EQ(classify_one(make_op(GateKind::SX, {0}), 2), KernelClass::Generic1Q);
  EXPECT_EQ(classify_one(make_op(GateKind::RX, {0}, {0.7}), 2), KernelClass::Generic1Q);
  EXPECT_EQ(classify_one(make_op(GateKind::RXX, {0, 1}, {0.7}), 2), KernelClass::Generic2Q);
}

TEST(KernelClassification, CustomMatricesByStructure) {
  Rng rng(11);
  // Diagonal custom on 3 qubits.
  linalg::CVec diag(8);
  for (cx& d : diag) d = std::polar(1.0, rng.uniform(0.0, 6.28));
  EXPECT_EQ(classify_one(make_custom(linalg::CMat::diagonal(diag), {2, 0, 1}), 4),
            KernelClass::Diagonal);
  // A controlled-1q custom with control on local bit 1 (target listed first).
  linalg::CMat m = linalg::CMat::identity(4);
  const double th = 1.234;
  m(2, 2) = std::cos(th);
  m(2, 3) = -std::sin(th);
  m(3, 2) = std::sin(th);
  m(3, 3) = std::cos(th);
  EXPECT_EQ(classify_one(make_custom(m, {3, 1}), 4), KernelClass::Controlled1Q);
  // Dense 4x4 stays generic.
  EXPECT_EQ(classify_one(make_op(GateKind::RYY, {0, 2}, {0.3}), 3), KernelClass::Generic2Q);
}

/// Every named gate at every qubit placement, specialized vs generic,
/// bit-for-bit on random states.
TEST(KernelEquivalence, EveryNamedGateBitForBit) {
  struct Case {
    GateKind kind;
    int arity;
    int params;
  };
  const std::vector<Case> cases = {
      {GateKind::I, 1, 0},     {GateKind::X, 1, 0},    {GateKind::Y, 1, 0},
      {GateKind::Z, 1, 0},     {GateKind::H, 1, 0},    {GateKind::S, 1, 0},
      {GateKind::Sdg, 1, 0},   {GateKind::T, 1, 0},    {GateKind::Tdg, 1, 0},
      {GateKind::SX, 1, 0},    {GateKind::SXdg, 1, 0}, {GateKind::RX, 1, 1},
      {GateKind::RY, 1, 1},    {GateKind::RZ, 1, 1},   {GateKind::P, 1, 1},
      {GateKind::U, 1, 3},     {GateKind::CX, 2, 0},   {GateKind::CY, 2, 0},
      {GateKind::CZ, 2, 0},    {GateKind::CH, 2, 0},   {GateKind::SWAP, 2, 0},
      {GateKind::ISwap, 2, 0}, {GateKind::CRX, 2, 1},  {GateKind::CRY, 2, 1},
      {GateKind::CRZ, 2, 1},   {GateKind::CP, 2, 1},   {GateKind::RXX, 2, 1},
      {GateKind::RYY, 2, 1},   {GateKind::RZZ, 2, 1},  {GateKind::CCX, 3, 0},
      {GateKind::CSWAP, 3, 0},
  };
  Rng rng(42);
  for (const Case& c : cases) {
    for (int trial = 0; trial < 4; ++trial) {
      const int width = c.arity + 1 + static_cast<int>(rng.uniform_int(0, 4));
      std::vector<int> qubits;
      while (static_cast<int>(qubits.size()) < c.arity) {
        const int q = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(width - 1)));
        if (std::find(qubits.begin(), qubits.end(), q) == qubits.end()) qubits.push_back(q);
      }
      std::vector<double> params;
      for (int p = 0; p < c.params; ++p) params.push_back(rng.uniform(0.0, 6.28));
      const Operation op = make_op(c.kind, qubits, params);

      StateVector generic = random_state(width, rng);
      StateVector specialized = generic;
      generic.apply_matrix(op.matrix(), op.qubits);

      EngineOptions options;
      options.fuse = false;
      const std::array<Operation, 1> ops = {op};
      compile_ops(ops, width, options).apply(specialized);
      expect_amps_equal(generic, specialized);
    }
  }
}

TEST(KernelEquivalence, RandomCircuitsBitForBit) {
  Rng rng(7);
  for (int width = 2; width <= 8; ++width) {
    circuit::RandomCircuitOptions rc;
    rc.num_qubits = width;
    rc.depth = 16;
    const Circuit c = circuit::random_circuit(rc, rng);

    StateVector generic(width);
    generic.apply_circuit(c);

    StateVector specialized(width);
    EngineOptions options;
    options.fuse = false;
    compile_circuit(c, options).apply(specialized);
    expect_amps_equal(generic, specialized);
  }
}

TEST(KernelEquivalence, ThreadCountInvariance) {
  Rng rng(19);
  circuit::RandomCircuitOptions rc;
  rc.num_qubits = 10;
  rc.depth = 12;
  const Circuit c = circuit::random_circuit(rc, rng);

  const auto run_with = [&](parallel::ThreadPool* pool, int threshold) {
    StateVector sv(rc.num_qubits);
    EngineOptions options;
    options.fuse = false;
    options.threading_threshold_qubits = threshold;
    options.pool = pool;
    compile_circuit(c, options).apply(sv);
    return sv;
  };

  const StateVector serial = run_with(nullptr, 27);
  parallel::ThreadPool pool1(1);
  parallel::ThreadPool pool2(2);
  parallel::ThreadPool pool5(5);
  expect_amps_equal(serial, run_with(&pool1, 2));
  expect_amps_equal(serial, run_with(&pool2, 2));
  expect_amps_equal(serial, run_with(&pool5, 2));
}

/// The per-segment work threshold (min_parallel_work) decides only WHETHER
/// the pool engages, never what is computed: results are bit-for-bit equal
/// at every grain, from "thread everything" to "never thread".
TEST(KernelEquivalence, ParallelGrainInvariance) {
  Rng rng(29);
  circuit::RandomCircuitOptions rc;
  rc.num_qubits = 9;
  rc.depth = 20;
  const Circuit c = circuit::random_circuit(rc, rng);

  parallel::ThreadPool pool(4);
  const auto run_with = [&](std::uint64_t min_work, int block_qubits) {
    StateVector sv(rc.num_qubits);
    EngineOptions options;
    options.threading_threshold_qubits = 2;
    options.min_parallel_work = min_work;
    options.cache_block_qubits = block_qubits;
    options.pool = &pool;
    compile_circuit(c, options).apply(sv);
    return sv;
  };

  StateVector serial(rc.num_qubits);
  EngineOptions serial_options;
  serial_options.threading_threshold_qubits = 27;
  serial_options.cache_block_qubits = 0;
  compile_circuit(c, serial_options).apply(serial);

  for (const std::uint64_t min_work : {std::uint64_t{0}, std::uint64_t{512},
                                       std::uint64_t{16384}, std::uint64_t{1} << 40}) {
    expect_amps_equal(serial, run_with(min_work, 0));
    expect_amps_equal(serial, run_with(min_work, 4));
  }
}

/// Cache-blocked segment execution reorders WHICH amplitudes a run of ops
/// visits first, never the arithmetic any amplitude sees: bit-for-bit equal
/// to the unblocked walk at every block size, fusion on or off.
TEST(CacheBlocking, BitForBitEqualToUnblocked) {
  Rng rng(37);
  for (const bool fuse : {false, true}) {
    for (int width = 4; width <= 9; ++width) {
      circuit::RandomCircuitOptions rc;
      rc.num_qubits = width;
      rc.depth = 24;
      const Circuit c = circuit::random_circuit(rc, rng);

      const auto run_with = [&](int block_qubits) {
        StateVector sv(width);
        EngineOptions options;
        options.fuse = fuse;
        options.cache_block_qubits = block_qubits;
        compile_circuit(c, options).apply(sv);
        return sv;
      };

      const StateVector unblocked = run_with(0);
      expect_amps_equal(unblocked, run_with(2));
      expect_amps_equal(unblocked, run_with(4));
      expect_amps_equal(unblocked, run_with(width - 1));
    }
  }
}

// ---- SIMD path --------------------------------------------------------------
//
// The SoA/SIMD kernels are the engine's one tolerance-validated (not
// bit-for-bit) execution path: FMA contraction changes roundings. The
// budget is 1e-12 per amplitude — far above the few-ulp deviation FMA can
// introduce, far below any physically meaningful difference — and the tests
// skip (with a note) when neither the build nor the CPU provides AVX2.

constexpr double kSimdTol = 1e-12;

bool simd_available() { return simd::best_isa() != IsaLevel::Scalar; }

/// Every named gate at every qubit placement: SIMD vs scalar-specialized,
/// within kSimdTol per amplitude. Mirrors EveryNamedGateBitForBit's matrix
/// (gate x width x qubit order) with the tolerance contract.
TEST(SimdKernels, EveryNamedGateWithin1em12PerAmplitude) {
  if (!simd_available()) {
    GTEST_SKIP() << "SIMD tiers unavailable (build without QCUT_SIMD or CPU "
                    "without AVX2); path pinned to bit-exact scalar";
  }
  struct Case {
    GateKind kind;
    int arity;
    int params;
  };
  const std::vector<Case> cases = {
      {GateKind::I, 1, 0},     {GateKind::X, 1, 0},    {GateKind::Y, 1, 0},
      {GateKind::Z, 1, 0},     {GateKind::H, 1, 0},    {GateKind::S, 1, 0},
      {GateKind::Sdg, 1, 0},   {GateKind::T, 1, 0},    {GateKind::Tdg, 1, 0},
      {GateKind::SX, 1, 0},    {GateKind::SXdg, 1, 0}, {GateKind::RX, 1, 1},
      {GateKind::RY, 1, 1},    {GateKind::RZ, 1, 1},   {GateKind::P, 1, 1},
      {GateKind::U, 1, 3},     {GateKind::CX, 2, 0},   {GateKind::CY, 2, 0},
      {GateKind::CZ, 2, 0},    {GateKind::CH, 2, 0},   {GateKind::SWAP, 2, 0},
      {GateKind::ISwap, 2, 0}, {GateKind::CRX, 2, 1},  {GateKind::CRY, 2, 1},
      {GateKind::CRZ, 2, 1},   {GateKind::CP, 2, 1},   {GateKind::RXX, 2, 1},
      {GateKind::RYY, 2, 1},   {GateKind::RZZ, 2, 1},  {GateKind::CCX, 3, 0},
      {GateKind::CSWAP, 3, 0},
  };
  Rng rng(61);
  for (const Case& c : cases) {
    for (int trial = 0; trial < 4; ++trial) {
      const int width = c.arity + 1 + static_cast<int>(rng.uniform_int(0, 4));
      std::vector<int> qubits;
      while (static_cast<int>(qubits.size()) < c.arity) {
        const int q = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(width - 1)));
        if (std::find(qubits.begin(), qubits.end(), q) == qubits.end()) qubits.push_back(q);
      }
      std::vector<double> params;
      for (int p = 0; p < c.params; ++p) params.push_back(rng.uniform(0.0, 6.28));
      const Operation op = make_op(c.kind, qubits, params);
      const std::array<Operation, 1> ops = {op};

      const StateVector input = random_state(width, rng);
      EngineOptions scalar_options;
      scalar_options.fuse = false;
      StateVector scalar = input;
      compile_ops(ops, width, scalar_options).apply(scalar);

      EngineOptions simd_options = scalar_options;
      simd_options.simd = true;
      StateVector vectorized = input;
      const CompiledCircuit compiled = compile_ops(ops, width, simd_options);
      ASSERT_NE(compiled.isa(), IsaLevel::Scalar);
      compiled.apply(vectorized);
      expect_amps_near(scalar, vectorized, kSimdTol);
    }
  }
}

/// Whole random circuits through the SoA path, specialized and generic,
/// with fusion and cache blocking in play.
TEST(SimdKernels, RandomCircuitsWithin1em12PerAmplitude) {
  if (!simd_available()) {
    GTEST_SKIP() << "SIMD tiers unavailable; path pinned to bit-exact scalar";
  }
  Rng rng(67);
  for (const bool specialize : {true, false}) {
    for (int width = 2; width <= 10; ++width) {
      circuit::RandomCircuitOptions rc;
      rc.num_qubits = width;
      rc.depth = 24;
      const Circuit c = circuit::random_circuit(rc, rng);

      EngineOptions scalar_options;
      scalar_options.specialize = specialize;
      StateVector scalar(width);
      compile_circuit(c, scalar_options).apply(scalar);

      EngineOptions simd_options = scalar_options;
      simd_options.simd = true;
      StateVector vectorized(width);
      compile_circuit(c, simd_options).apply(vectorized);
      expect_amps_near(scalar, vectorized, kSimdTol);
    }
  }
}

/// SoA round-trip conversions are exact copies, and the scalar SoA tier
/// stays within the SIMD tolerance budget of the interleaved reference.
/// (It shares the vector tiers' accumulate-then-subtract code shape, whose
/// rounding sequence differs from complex<double> arithmetic by ulps, so
/// tolerance — not bit equality — is the contract. The bit-exact scalar
/// path is apply(StateVector&), which engages whenever isa() == Scalar.)
TEST(SimdKernels, ScalarTierMatchesWithin1em12ThroughSoA) {
  Rng rng(71);
  circuit::RandomCircuitOptions rc;
  rc.num_qubits = 6;
  rc.depth = 20;
  const Circuit c = circuit::random_circuit(rc, rng);

  EngineOptions options;  // simd off: isa() == Scalar
  const CompiledCircuit compiled = compile_circuit(c, options);
  ASSERT_EQ(compiled.isa(), IsaLevel::Scalar);

  StateVector direct(rc.num_qubits);
  compiled.apply(direct);

  StateVector via_soa(rc.num_qubits);
  SoAState soa(rc.num_qubits);
  compiled.apply(soa);
  soa.extract_to(via_soa);
  expect_amps_near(direct, via_soa, kSimdTol);

  // The conversions themselves are exact: a pure round-trip is bit-equal.
  SoAState copy = SoAState::from_statevector(direct);
  StateVector back(rc.num_qubits);
  copy.extract_to(back);
  expect_amps_equal(direct, back);
}

/// SIMD results are thread-count and grain invariant too: chunk boundaries
/// fall on group indices, and every group's arithmetic is independent.
TEST(SimdKernels, ThreadAndGrainInvariance) {
  if (!simd_available()) {
    GTEST_SKIP() << "SIMD tiers unavailable; path pinned to bit-exact scalar";
  }
  Rng rng(73);
  circuit::RandomCircuitOptions rc;
  rc.num_qubits = 10;
  rc.depth = 16;
  const Circuit c = circuit::random_circuit(rc, rng);

  parallel::ThreadPool pool(3);
  const auto run_with = [&](parallel::ThreadPool* p, int threshold, std::uint64_t min_work) {
    StateVector sv(rc.num_qubits);
    EngineOptions options;
    options.simd = true;
    options.threading_threshold_qubits = threshold;
    options.min_parallel_work = min_work;
    options.pool = p;
    compile_circuit(c, options).apply(sv);
    return sv;
  };

  const StateVector serial = run_with(nullptr, 27, 16384);
  expect_amps_equal(serial, run_with(&pool, 2, 0));
  expect_amps_equal(serial, run_with(&pool, 2, std::uint64_t{1} << 40));
}

TEST(Fusion, MatchesUnfusedWithin1em12) {
  Rng rng(23);
  for (int width = 2; width <= 7; ++width) {
    circuit::RandomCircuitOptions rc;
    rc.num_qubits = width;
    rc.depth = 24;
    const Circuit c = circuit::random_circuit(rc, rng);

    StateVector generic(width);
    generic.apply_circuit(c);

    StateVector fused(width);
    const CompiledCircuit compiled = compile_circuit(c, EngineOptions{});
    compiled.apply(fused);
    expect_amps_near(generic, fused, 1e-12);
  }
}

TEST(Fusion, MergesRunsAndFoldsIntoTwoQubitGates) {
  Circuit c(2);
  c.h(0).t(0).s(0).ch(0, 1).h(1).rz(0.3, 1);
  circuit::FusionStats stats;
  const Circuit fused = circuit::fuse_gates(c, &stats);
  // h-t-s fold into the dense ch, which opens a 2q chain; the trailing h-rz
  // on wire 1 fold into the chain too. Everything collapses to one 4x4.
  EXPECT_EQ(fused.num_ops(), 1u);
  EXPECT_EQ(stats.folded_1q_gates, 5u);
  EXPECT_EQ(stats.merged_1q_gates, 0u);
  const linalg::CMat u_orig = circuit_unitary(c);
  const linalg::CMat u_fused = circuit_unitary(fused);
  EXPECT_TRUE(u_orig.approx_equal(u_fused, 1e-12));
}

TEST(Fusion, ChainsDenseTwoQubitGatesOnOneWirePair) {
  Circuit c(3);
  // Three dense 2q gates on the {0,1} pair (one with reversed wire order)
  // chain into a single 4x4; the CX on the same pair flushes the chain and
  // stays a specialized permutation op; the crx on {1,2} flushes again.
  c.append(GateKind::CRX, {0, 1}, {0.4}).ch(1, 0).append(GateKind::CRX, {0, 1}, {0.7});
  c.cx(0, 1).append(GateKind::CRX, {1, 2}, {0.2});
  circuit::FusionStats stats;
  const Circuit fused = circuit::fuse_gates(c, &stats);
  ASSERT_EQ(fused.num_ops(), 3u);  // fused(crx,ch,crx), cx, crx
  EXPECT_EQ(fused.op(0).kind, GateKind::Custom);
  EXPECT_EQ(fused.op(1).kind, GateKind::CX);
  EXPECT_EQ(fused.op(2).kind, GateKind::CRX);
  EXPECT_EQ(stats.merged_2q_gates, 2u);
  EXPECT_TRUE(circuit_unitary(c).approx_equal(circuit_unitary(fused), 1e-12));
}

TEST(Fusion, SingleDenseTwoQubitGateEmitsVerbatim) {
  // A chain that never absorbs anything must flush as the original op, not
  // a Custom matrix, so specialized kernel classification is unaffected.
  Circuit c(2);
  c.append(GateKind::CRX, {0, 1}, {0.4});
  circuit::FusionStats stats;
  const Circuit fused = circuit::fuse_gates(c, &stats);
  ASSERT_EQ(fused.num_ops(), 1u);
  EXPECT_EQ(fused.op(0).kind, GateKind::CRX);
  EXPECT_EQ(stats.merged_2q_gates, 0u);
}

TEST(Fusion, ChainsStayOnTwoWires) {
  // Each dense gate shares one wire with the pending chain, which flushes
  // at every handoff instead of growing to three qubits.
  Circuit c(3);
  c.append(GateKind::CRX, {0, 1}, {0.4}).ch(1, 2).append(GateKind::CRX, {2, 0}, {0.7});
  circuit::FusionStats stats;
  const Circuit fused = circuit::fuse_gates(c, &stats);
  EXPECT_EQ(fused.num_ops(), 3u);
  EXPECT_EQ(stats.merged_2q_gates, 0u);
  EXPECT_TRUE(circuit_unitary(c).approx_equal(circuit_unitary(fused), 1e-12));
}

TEST(Fusion, NeverDensifiesPermutationOrDiagonalGates) {
  // CX is an index swap and CZ one multiply per quarter state in the
  // engine; folding 1q runs into them would trade that for a dense 4x4.
  // The pending run flushes as one 2x2 ahead of the gate instead.
  Circuit c(2);
  c.h(0).t(0).cx(0, 1).s(1).cz(0, 1);
  circuit::FusionStats stats;
  const Circuit fused = circuit::fuse_gates(c, &stats);
  EXPECT_EQ(stats.folded_1q_gates, 0u);
  ASSERT_EQ(fused.num_ops(), 4u);  // fused(h,t), cx, s, cz
  EXPECT_EQ(fused.op(1).kind, GateKind::CX);
  EXPECT_EQ(fused.op(3).kind, GateKind::CZ);
  EXPECT_TRUE(circuit_unitary(c).approx_equal(circuit_unitary(fused), 1e-12));
}

/// Bit-pattern equality of two fused-stream entries.
bool same_fused_op(const circuit::FusedOp& a, const circuit::FusedOp& b) {
  if (a.source != b.source || a.qubits != b.qubits) return false;
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.entries[i].real()) !=
            std::bit_cast<std::uint64_t>(b.entries[i].real()) ||
        std::bit_cast<std::uint64_t>(a.entries[i].imag()) !=
            std::bit_cast<std::uint64_t>(b.entries[i].imag())) {
      return false;
    }
  }
  return true;
}

/// The stream property the statevector backend's shared-prefix batching
/// relies on: for ANY split point, pushing the prefix, cloning the scan,
/// and pushing the suffix emits exactly the entries a whole-circuit fusion
/// emits, with the same stats.
TEST(Fusion, StreamingSplitMatchesWholeCircuitFusion) {
  Rng rng(31);
  circuit::RandomCircuitOptions rc;
  rc.num_qubits = 4;
  rc.depth = 10;
  const Circuit c = circuit::random_circuit(rc, rng);

  std::vector<circuit::FusedOp> whole;
  GateFusion whole_scan(c.num_qubits());
  for (const Operation& op : c.ops()) whole_scan.push(op, whole);
  whole_scan.flush(whole);

  for (std::size_t split = 0; split <= c.num_ops(); ++split) {
    std::vector<circuit::FusedOp> emitted;
    GateFusion prefix_scan(c.num_qubits());
    for (std::size_t i = 0; i < split; ++i) prefix_scan.push(c.op(i), emitted);
    GateFusion member_scan = prefix_scan;  // the per-member clone
    for (std::size_t i = split; i < c.num_ops(); ++i) member_scan.push(c.op(i), emitted);
    member_scan.flush(emitted);

    ASSERT_EQ(emitted.size(), whole.size()) << "split " << split;
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_TRUE(same_fused_op(emitted[i], whole[i])) << "split " << split << " op " << i;
    }
    EXPECT_EQ(member_scan.stats().absorbed(), whole_scan.stats().absorbed()) << "split " << split;
  }
}

TEST(StateVectorRewrites, ProductStateMatchesPerAmplitudeReference) {
  Rng rng(5);
  for (int n = 1; n <= 8; ++n) {
    std::vector<CVec> states;
    for (int q = 0; q < n; ++q) {
      const double theta = rng.uniform(0.0, 3.14);
      const double phi = rng.uniform(0.0, 6.28);
      states.push_back(CVec{cx{std::cos(theta / 2), 0.0},
                            std::polar(std::sin(theta / 2), phi)});
    }
    const StateVector sv = StateVector::product_state(states);
    for (index_t i = 0; i < sv.dim(); ++i) {
      cx expected{1.0, 0.0};
      for (int q = 0; q < n; ++q) {
        expected *= states[static_cast<std::size_t>(q)][static_cast<std::size_t>(bit(i, q))];
      }
      EXPECT_EQ(sv.amplitude(i).real(), expected.real()) << i;
      EXPECT_EQ(sv.amplitude(i).imag(), expected.imag()) << i;
    }
  }
}

TEST(StateVectorRewrites, ExpectationPauliMatchesMatrixReference) {
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 5));
    const StateVector sv = random_state(n, rng);
    std::vector<linalg::Pauli> labels;
    for (int q = 0; q < n; ++q) {
      labels.push_back(static_cast<linalg::Pauli>(rng.uniform_int(0, 3)));
    }
    const circuit::PauliString pauli(labels);

    // Reference: apply the non-identity factors to a copy, inner product.
    StateVector transformed = sv;
    for (int q : pauli.support()) {
      const std::array<int, 1> qs = {q};
      transformed.apply_matrix(linalg::pauli_matrix(pauli.label(q)), qs);
    }
    const double reference =
        linalg::inner(sv.amplitudes(), transformed.amplitudes()).real();
    EXPECT_NEAR(sv.expectation_pauli(pauli), reference, 1e-12);
  }
}

TEST(StateVectorRewrites, SingleQubitExpectationMatchesCopyReference) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 4));
    const int q = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(n - 1)));
    const StateVector sv = random_state(n, rng);
    linalg::CMat op(2, 2);
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t c2 = 0; c2 < 2; ++c2) op(r, c2) = cx{rng.normal(), rng.normal()};
    }
    StateVector transformed = sv;
    const std::array<int, 1> qs = {q};
    transformed.apply_matrix(op, qs);
    const cx reference = linalg::inner(sv.amplitudes(), transformed.amplitudes());
    const cx fast = sv.expectation(op, qs);
    EXPECT_NEAR(std::abs(fast - reference), 0.0, 1e-12);
  }
}

}  // namespace
}  // namespace qcut::sim
