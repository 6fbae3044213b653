#include "service/circuit_hash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/random.hpp"
#include "common/rng.hpp"
#include "cutting/variants.hpp"
#include "linalg/matrix.hpp"
#include "linalg/ops.hpp"
#include "support/qaoa_path.hpp"

namespace qcut::service {
namespace {

using circuit::Circuit;
using circuit::GateKind;
using circuit::WirePoint;

Circuit small_circuit() {
  Circuit c(3);
  c.h(0).cx(0, 1).rz(0.25, 1).cx(1, 2);
  return c;
}

TEST(CircuitHash, DeterministicAcrossCalls) {
  const Circuit a = small_circuit();
  const Circuit b = small_circuit();
  EXPECT_EQ(hash_circuit(a), hash_circuit(b));
  EXPECT_EQ(hash_circuit(a).to_string(), hash_circuit(b).to_string());
}

TEST(CircuitHash, SensitiveToStructure) {
  const Hash128 base = hash_circuit(small_circuit());

  Circuit different_kind(3);
  different_kind.h(0).cx(0, 1).rx(0.25, 1).cx(1, 2);  // rz -> rx
  EXPECT_NE(hash_circuit(different_kind), base);

  Circuit different_qubit(3);
  different_qubit.h(0).cx(0, 1).rz(0.25, 2).cx(1, 2);  // rz on another wire
  EXPECT_NE(hash_circuit(different_qubit), base);

  Circuit different_param(3);
  different_param.h(0).cx(0, 1).rz(0.2500001, 1).cx(1, 2);
  EXPECT_NE(hash_circuit(different_param), base);

  Circuit wider(4);
  wider.h(0).cx(0, 1).rz(0.25, 1).cx(1, 2);  // same ops, wider register
  EXPECT_NE(hash_circuit(wider), base);

  Circuit reordered(3);
  reordered.cx(0, 1).h(0).rz(0.25, 1).cx(1, 2);
  EXPECT_NE(hash_circuit(reordered), base);
}

TEST(CircuitHash, IgnoresDisplayLabels) {
  linalg::CMat u{{1.0, 0.0}, {0.0, 1.0}};
  Circuit a(1);
  a.append_custom(u, {0}, "alpha");
  Circuit b(1);
  b.append_custom(u, {0}, "beta");
  EXPECT_EQ(hash_circuit(a), hash_circuit(b));
}

TEST(CircuitHash, CustomMatrixEntriesAreHashed) {
  linalg::CMat identity{{1.0, 0.0}, {0.0, 1.0}};
  linalg::CMat phase{{1.0, 0.0}, {0.0, std::complex<double>{0.0, 1.0}}};
  Circuit a(1);
  a.append_custom(identity, {0});
  Circuit b(1);
  b.append_custom(phase, {0});
  EXPECT_NE(hash_circuit(a), hash_circuit(b));
}

TEST(CircuitHash, VariantExecutionKeyCoversAllInputs) {
  const Circuit c = small_circuit();
  const Hash128 base = hash_variant_execution(c, 1000, false, 7, "sv");

  EXPECT_EQ(hash_variant_execution(c, 1000, false, 7, "sv"), base);
  EXPECT_NE(hash_variant_execution(c, 2000, false, 7, "sv"), base);
  EXPECT_NE(hash_variant_execution(c, 1000, false, 8, "sv"), base);
  EXPECT_NE(hash_variant_execution(c, 1000, false, 7, "noisy"), base);
  EXPECT_NE(hash_variant_execution(c, 1000, true, 7, "sv"), base);
}

TEST(CircuitHash, ExactModeIgnoresShotsAndSeed) {
  // Exact probabilities do not depend on shots or the seed stream, so the
  // key must not either: any exact request for the same circuit shares one
  // cache entry.
  const Circuit c = small_circuit();
  EXPECT_EQ(hash_variant_execution(c, 100, true, 1, "sv"),
            hash_variant_execution(c, 999, true, 42, "sv"));
}

// ---- Committed cache keys ----------------------------------------------------
//
// A warm cache only hits when a key is computed exactly as it was when the
// entry was stored, so a change anywhere in circuit construction, fragment
// carving or variant building that moves one key would make every warm
// lookup miss without failing anything else. These digests pin the keys: a
// change that has to move them invalidates every warm cache, and must say
// so when it updates them.

/// 64-bit FNV-1a over both lanes of every key, in order, least significant
/// byte first.
std::uint64_t fnv1a(const std::vector<Hash128>& keys) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const Hash128& key : keys) {
    for (const std::uint64_t word : {key.hi, key.lo}) {
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (word >> (8 * byte)) & 0xffU;
        hash *= 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

/// `count` distinct qubits of [0, width), drawn from `rng`.
std::vector<int> distinct_qubits(int count, int width, Rng& rng) {
  std::vector<int> pool(static_cast<std::size_t>(width));
  for (int q = 0; q < width; ++q) pool[static_cast<std::size_t>(q)] = q;
  std::vector<int> out;
  for (int k = 0; k < count; ++k) {
    const std::size_t pick = rng.uniform_int(0, pool.size() - 1);
    out.push_back(pool[pick]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return out;
}

/// Seeded corpus: every named gate kind (U with all three angles) on random
/// distinct qubits with random angles, Custom blocks on 2 and 4 qubits, and
/// random layered circuits of each gate set.
std::vector<Circuit> hash_corpus() {
  Rng rng(2027);
  std::vector<Circuit> corpus;
  for (int rep = 0; rep < 4; ++rep) {
    Circuit c(6);
    for (int k = 0; k < static_cast<int>(GateKind::Custom); ++k) {
      const auto kind = static_cast<GateKind>(k);
      std::vector<double> params;
      for (int p = 0; p < circuit::gate_num_params(kind); ++p) {
        params.push_back(rng.uniform(-6.28, 6.28));
      }
      c.append(kind, distinct_qubits(circuit::gate_num_qubits(kind), 6, rng), params);
    }
    const linalg::CMat u2 =
        linalg::kron(circuit::gate_matrix(GateKind::RY, {rng.uniform(0.0, 6.28)}),
                     circuit::gate_matrix(GateKind::H, {})) *
        circuit::gate_matrix(GateKind::CX, {});
    c.append_custom(u2, distinct_qubits(2, 6, rng), "u2");
    const linalg::CMat u4 = linalg::kron(
        u2, circuit::gate_matrix(GateKind::RZZ, {rng.uniform(0.0, 6.28)}));
    c.append_custom(u4, distinct_qubits(4, 6, rng), "u4");
    corpus.push_back(std::move(c));
  }
  for (const circuit::GateSet set : {circuit::GateSet::General, circuit::GateSet::RealAmplitude,
                                     circuit::GateSet::IXClass}) {
    circuit::RandomCircuitOptions options;
    options.num_qubits = 5;
    options.depth = 4;
    options.gate_set = set;
    corpus.push_back(circuit::random_circuit(options, rng));
  }
  return corpus;
}

/// Sampled and exact execution keys of every variant of `circuit` cut at
/// `boundaries`, with no basis element neglected.
void append_variant_keys(const Circuit& circuit,
                         const std::vector<std::vector<WirePoint>>& boundaries,
                         std::vector<Hash128>& keys) {
  const cutting::FragmentGraph graph = cutting::make_fragment_chain(circuit, boundaries);
  const cutting::ChainNeglectSpec spec = cutting::ChainNeglectSpec::none(graph);
  for (int f = 0; f < graph.num_fragments(); ++f) {
    for (const cutting::FragmentVariantKey key :
         cutting::required_fragment_variants(graph, f, spec)) {
      const Circuit variant = cutting::make_fragment_variant(graph, f, key).circuit;
      const std::uint64_t seed_stream =
          cutting::pack_variant_key(key) + static_cast<std::uint64_t>(f);
      keys.push_back(hash_variant_execution(variant, 4000, false, seed_stream, "sv"));
      keys.push_back(hash_variant_execution(variant, 0, true, 0, "sv"));
    }
  }
}

TEST(CircuitHash, CircuitKeysMatchCommittedDigest) {
  std::vector<Hash128> keys;
  for (const Circuit& c : hash_corpus()) keys.push_back(hash_circuit(c));
  ASSERT_EQ(keys.size(), 7u);
  EXPECT_EQ(fnv1a(keys), 0x9685c337ae042127ULL) << std::hex << fnv1a(keys);
}

TEST(CircuitHash, VariantExecutionKeysMatchCommittedDigest) {
  std::vector<Hash128> keys;
  const Circuit sweep = circuit::qaoa_path(12, 3, 0.4, 0.3);
  append_variant_keys(sweep, {{circuit::middle_cut(sweep)}}, keys);
  for (const int n : {5, 6, 7}) {
    Rng rng(static_cast<std::uint64_t>(100 + n));
    circuit::GoldenAnsatzOptions options;
    options.num_qubits = n;
    const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
    append_variant_keys(ansatz.circuit, {{ansatz.cut}}, keys);
  }
  ASSERT_EQ(keys.size(), 4u * 2u * 9u);
  EXPECT_EQ(fnv1a(keys), 0x3222470ea6f3699aULL) << std::hex << fnv1a(keys);
}

TEST(CircuitHash, ToStringIs32HexChars) {
  const std::string s = hash_circuit(small_circuit()).to_string();
  EXPECT_EQ(s.size(), 32u);
  for (char ch : s) {
    EXPECT_TRUE(('0' <= ch && ch <= '9') || ('a' <= ch && ch <= 'f'));
  }
}

}  // namespace
}  // namespace qcut::service
