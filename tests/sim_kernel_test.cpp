// Gate-kernel engine equivalence suite (sim/engine.hpp).
//
// Gates the tentpole guarantees:
//  * every specialized kernel (the width-1 SoA tier, the default engine) is
//    BIT-FOR-BIT identical to the generic StateVector::apply_matrix path,
//    across random gates, random qubit orders, and widths;
//  * threaded kernel application is bit-for-bit identical at any thread
//    count (1 vs N);
//  * every SIMD table the CPU supports stays within 1e-12 of the width-1
//    tier, per op, for every kernel class at every lowest qubit;
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
#include <string>
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

/// `input` with `compiled` applied, in the engine's state layout.
SoAState applied(const CompiledCircuit& compiled, const StateVector& input) {
  SoAState state = SoAState::from_statevector(input);
  compiled.apply(state);
  return state;
}

/// Exact (==) amplitude comparison of two states (StateVector or SoAState).
/// Double == ignores the sign of zero, which is the one place specialized
/// kernels may differ from the generic path (a dropped `+ 0*a` term cannot
/// change any nonzero double).
template <typename A, typename B>
void expect_amps_equal(const A& a, const B& b) {
  ASSERT_EQ(a.dim(), b.dim());
  for (index_t i = 0; i < a.dim(); ++i) {
    EXPECT_EQ(a.amplitude(i).real(), b.amplitude(i).real()) << "re @ " << i;
    EXPECT_EQ(a.amplitude(i).imag(), b.amplitude(i).imag()) << "im @ " << i;
  }
}

template <typename A, typename B>
void expect_amps_near(const A& a, const B& b, double tol) {
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

      const StateVector input = random_state(width, rng);
      StateVector generic = input;
      generic.apply_matrix(op.matrix(), op.qubits);

      EngineOptions options;
      options.fuse = false;
      const std::array<Operation, 1> ops = {op};
      expect_amps_equal(generic, applied(compile_ops(ops, width, options), input));
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

    SoAState specialized(width);
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
    SoAState sv(rc.num_qubits);
    EngineOptions options;
    options.fuse = false;
    options.threading_threshold_qubits = threshold;
    options.pool = pool;
    compile_circuit(c, options).apply(sv);
    return sv;
  };

  const SoAState serial = run_with(nullptr, 27);
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
    SoAState sv(rc.num_qubits);
    EngineOptions options;
    options.threading_threshold_qubits = 2;
    options.min_parallel_work = min_work;
    options.cache_block_qubits = block_qubits;
    options.pool = &pool;
    compile_circuit(c, options).apply(sv);
    return sv;
  };

  SoAState serial(rc.num_qubits);
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
        SoAState sv(width);
        EngineOptions options;
        options.fuse = fuse;
        options.cache_block_qubits = block_qubits;
        compile_circuit(c, options).apply(sv);
        return sv;
      };

      const SoAState unblocked = run_with(0);
      expect_amps_equal(unblocked, run_with(2));
      expect_amps_equal(unblocked, run_with(4));
      expect_amps_equal(unblocked, run_with(width - 1));
    }
  }
}

// ---- SIMD path --------------------------------------------------------------
//
// The AVX tiers are the engine's one tolerance-validated (not bit-for-bit)
// execution path: FMA contraction changes roundings. The budget is 1e-12
// per amplitude — far above the few-ulp deviation FMA can introduce, far
// below any physically meaningful difference — and the tests skip (with a
// note) when neither the build nor the CPU provides AVX2.

constexpr double kSimdTol = 1e-12;

bool simd_available() { return simd::best_isa() != IsaLevel::Scalar; }

/// Every named gate at every qubit placement: SIMD vs the width-1 tier,
/// within kSimdTol per amplitude. Mirrors EveryNamedGateBitForBit's matrix
/// (gate x width x qubit order) with the tolerance contract.
TEST(SimdKernels, EveryNamedGateWithin1em12PerAmplitude) {
  if (!simd_available()) {
    GTEST_SKIP() << "SIMD tiers unavailable (build without QCUT_SIMD or CPU "
                    "without AVX2); path pinned to the bit-exact width-1 tier";
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
      EngineOptions simd_options = scalar_options;
      simd_options.simd = true;
      const CompiledCircuit compiled = compile_ops(ops, width, simd_options);
      ASSERT_NE(compiled.isa(), IsaLevel::Scalar);
      expect_amps_near(applied(compile_ops(ops, width, scalar_options), input),
                       applied(compiled, input), kSimdTol);
    }
  }
}

/// Whole random circuits through the SIMD tier, specialized and generic,
/// with fusion and cache blocking in play.
TEST(SimdKernels, RandomCircuitsWithin1em12PerAmplitude) {
  if (!simd_available()) {
    GTEST_SKIP() << "SIMD tiers unavailable; path pinned to the bit-exact width-1 tier";
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
      SoAState scalar(width);
      compile_circuit(c, scalar_options).apply(scalar);

      EngineOptions simd_options = scalar_options;
      simd_options.simd = true;
      SoAState vectorized(width);
      compile_circuit(c, simd_options).apply(vectorized);
      expect_amps_near(scalar, vectorized, kSimdTol);
    }
  }
}

/// Whether `qubits` are distinct and fit in `c`.
bool fits(const Circuit& c, const std::vector<int>& qubits) {
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    if (qubits[i] >= c.num_qubits()) return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (qubits[i] == qubits[j]) return false;
    }
  }
  return true;
}

/// Appends `kind` on `qubits` when they fit.
void append_if_fits(Circuit& c, GateKind kind, std::vector<int> qubits, Rng& rng) {
  if (!fits(c, qubits)) return;
  std::vector<double> params;
  for (int p = 0; p < circuit::gate_num_params(kind); ++p) params.push_back(rng.uniform(0.0, 6.28));
  c.append(kind, std::move(qubits), std::move(params));
}

linalg::CMat random_u3(Rng& rng) {
  return circuit::gate_matrix(GateKind::U, {rng.uniform(0.0, 6.28), rng.uniform(0.0, 6.28),
                                            rng.uniform(0.0, 6.28)});
}

/// Diagonal of random phases on `dim` entries, every other one exactly 1.
linalg::CMat random_phases(std::size_t dim, Rng& rng) {
  linalg::CVec entries(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    entries[i] = i % 2 == 0 ? cx{1.0, 0.0} : std::polar(1.0, rng.uniform(0.0, 6.28));
  }
  return linalg::CMat::diagonal(entries);
}

/// Appends a Custom block on `qubits` when they fit: `shape` 0 dense, 1
/// diagonal, 2 phased permutation, 3 controlled (two qubits only).
void append_custom_if_fits(Circuit& c, int shape, std::vector<int> qubits, Rng& rng) {
  if (!fits(c, qubits)) return;
  const std::size_t dim = pow2(static_cast<int>(qubits.size()));
  linalg::CMat m;
  switch (shape) {
    case 0:
      m = random_u3(rng);
      for (std::size_t q = 1; q < qubits.size(); ++q) m = linalg::kron(random_u3(rng), m);
      if (qubits.size() == 2) m = m * circuit::gate_matrix(GateKind::CX, {});
      if (qubits.size() == 3) m = m * circuit::gate_matrix(GateKind::CCX, {});
      break;
    case 1:
      m = random_phases(dim, rng);
      break;
    case 2:
      m = (qubits.size() == 3 ? circuit::gate_matrix(GateKind::CSWAP, {})
                              : circuit::gate_matrix(GateKind::ISwap, {})) *
          random_phases(dim, rng);
      break;
    default: {
      const linalg::CMat u = random_u3(rng);
      m = linalg::CMat::identity(4);
      m(2, 2) = u(0, 0);
      m(2, 3) = u(0, 1);
      m(3, 2) = u(1, 0);
      m(3, 3) = u(1, 1);
    }
  }
  c.append_custom(std::move(m), std::move(qubits), "block");
}

/// Compiled ops with lowest qubit q0 on `width` qubits: every kernel class
/// from named gates and Custom blocks (2q blocks of every shape, dense 3q,
/// diagonal 3q and 4q), then fused 4x4 products of dense 2q chains.
std::vector<CompiledCircuit> lowest_qubit_probes(int width, int q0, Rng& rng) {
  const int a = q0 + 1;
  const int b = q0 + 2;
  const int top = width - 1;
  Circuit c(width);
  append_if_fits(c, GateKind::RZ, {q0}, rng);
  append_if_fits(c, GateKind::T, {q0}, rng);
  append_if_fits(c, GateKind::CZ, {q0, a}, rng);
  append_if_fits(c, GateKind::CP, {top, q0}, rng);
  append_if_fits(c, GateKind::X, {q0}, rng);
  append_if_fits(c, GateKind::Y, {q0}, rng);
  append_if_fits(c, GateKind::CX, {q0, top}, rng);
  append_if_fits(c, GateKind::CX, {top, q0}, rng);
  append_if_fits(c, GateKind::CY, {a, q0}, rng);
  append_if_fits(c, GateKind::SWAP, {q0, a}, rng);
  append_if_fits(c, GateKind::ISwap, {q0, top}, rng);
  append_if_fits(c, GateKind::CCX, {q0, a, top}, rng);
  append_if_fits(c, GateKind::CSWAP, {top, q0, b}, rng);
  append_if_fits(c, GateKind::CH, {q0, a}, rng);
  append_if_fits(c, GateKind::CRY, {top, q0}, rng);
  append_if_fits(c, GateKind::CRX, {q0, top}, rng);
  append_if_fits(c, GateKind::H, {q0}, rng);
  append_if_fits(c, GateKind::U, {q0}, rng);
  append_if_fits(c, GateKind::RXX, {q0, b}, rng);
  append_if_fits(c, GateKind::RYY, {top, q0}, rng);
  for (int shape = 0; shape < 4; ++shape) {
    append_custom_if_fits(c, shape, {q0, top}, rng);
    append_custom_if_fits(c, shape, {a, q0}, rng);
  }
  append_custom_if_fits(c, 0, {q0, a, top}, rng);
  append_custom_if_fits(c, 1, {b, q0, top}, rng);
  append_custom_if_fits(c, 2, {q0, top, a}, rng);
  append_custom_if_fits(c, 1, {q0, a, b, top}, rng);
  EngineOptions unfused;
  unfused.fuse = false;
  std::vector<CompiledCircuit> out;
  out.push_back(compile_circuit(c, unfused));

  // Chains of dense 2q gates on one pair fuse into a Custom 4x4.
  Circuit chains(width);
  for (const int p : {a, top}) {
    if (p >= width || p == q0) continue;
    chains.append(GateKind::CRX, {q0, p}, {0.4}).ch(p, q0).append(GateKind::RXX, {q0, p}, {0.9});
  }
  out.push_back(compile_circuit(chains, EngineOptions{}));
  return out;
}

/// Every SIMD table the CPU supports (the AVX2 table on AVX-512 hosts too),
/// per op as CompiledCircuit::apply calls it, against the width-1 tier: each
/// kernel class at lowest qubit 0, 1, 2 and >= 3, on states both wider and
/// narrower than a register.
TEST(SimdKernels, EveryTableMatchesTheWidthOneTierPerOp) {
  if (!simd_available()) {
    GTEST_SKIP() << "SIMD tiers unavailable; path pinned to the bit-exact width-1 tier";
  }
  const simd::KernelTable& reference = simd::kernel_table(IsaLevel::Scalar);
  Rng rng(79);
  for (const IsaLevel isa : {IsaLevel::Avx2, IsaLevel::Avx512}) {
    if (isa > simd::best_isa()) continue;
    const simd::KernelTable& table = simd::kernel_table(isa);
    std::array<std::array<int, 4>, 6> seen{};  // ops per (class, lowest-qubit bucket) at width 8
    for (const int width : {1, 2, 3, 8}) {
      for (int q0 = 0; q0 < std::min(width, 5); ++q0) {
        for (const CompiledCircuit& compiled : lowest_qubit_probes(width, q0, rng)) {
          for (const CompiledOp& op : compiled.compiled_ops()) {
            const auto cls = static_cast<std::size_t>(op.cls);
            if (width == 8) ++seen[cls][static_cast<std::size_t>(std::min(op.sorted_qubits[0], 3))];
            const StateVector input = random_state(width, rng);
            SoAState expected = SoAState::from_statevector(input);
            SoAState actual = SoAState::from_statevector(input);
            const index_t groups = simd::group_count(op, expected.dim());
            reference.fns[cls](simd::SoaSpan{expected.re(), expected.im(), expected.dim()}, op,
                               0, groups);
            table.fns[cls](simd::SoaSpan{actual.re(), actual.im(), actual.dim()}, op, 0, groups);
            SCOPED_TRACE(isa_level_name(isa) + " " + kernel_class_name(op.cls) + " width " +
                         std::to_string(width) + " q0 " + std::to_string(op.sorted_qubits[0]));
            expect_amps_near(expected, actual, kSimdTol);
          }
        }
      }
    }
    for (std::size_t cls = 0; cls < seen.size(); ++cls) {
      for (std::size_t bucket = 0; bucket < 4; ++bucket) {
        EXPECT_GT(seen[cls][bucket], 0)
            << isa_level_name(isa) << ": no "
            << kernel_class_name(static_cast<KernelClass>(cls)) << " op at lowest qubit "
            << bucket << (bucket == 3 ? "+" : "");
      }
    }
  }
}

/// SoAState::from_statevector, which loads the tests' random states, is an
/// exact copy.
TEST(SoAState, LoadsAStatevectorExactly) {
  Rng rng(71);
  const StateVector sv = random_state(6, rng);
  const SoAState soa = SoAState::from_statevector(sv);
  for (index_t i = 0; i < sv.dim(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(soa.amplitude(i).real()),
              std::bit_cast<std::uint64_t>(sv.amplitude(i).real()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(soa.amplitude(i).imag()),
              std::bit_cast<std::uint64_t>(sv.amplitude(i).imag()));
  }
}

/// SIMD results are thread-count and grain invariant too: chunk boundaries
/// fall on whole registers, and every group's arithmetic is independent.
/// At 13 qubits the threaded runs split every 1q and 2q op into chunks of
/// 1024 groups.
TEST(SimdKernels, ThreadAndGrainInvariance) {
  if (!simd_available()) {
    GTEST_SKIP() << "SIMD tiers unavailable; path pinned to the bit-exact width-1 tier";
  }
  Rng rng(73);
  circuit::RandomCircuitOptions rc;
  rc.num_qubits = 13;
  rc.depth = 16;
  const Circuit c = circuit::random_circuit(rc, rng);

  parallel::ThreadPool pool(3);
  const auto run_with = [&](parallel::ThreadPool* p, int threshold, std::uint64_t min_work) {
    SoAState sv(rc.num_qubits);
    EngineOptions options;
    options.simd = true;
    options.threading_threshold_qubits = threshold;
    options.min_parallel_work = min_work;
    options.pool = p;
    compile_circuit(c, options).apply(sv);
    return sv;
  };

  const SoAState serial = run_with(nullptr, 27, 16384);
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

    SoAState fused(width);
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
