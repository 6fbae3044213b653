#include "service/circuit_hash.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/random.hpp"
#include "common/rng.hpp"
#include "cutting/fragment_executor.hpp"
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

// ---- Per-fragment variant keys -----------------------------------------------

/// A hand-built 3-qubit fragment with two incoming and two outgoing cuts.
cutting::ChainFragment key_fragment(Circuit body) {
  cutting::ChainFragment fragment;
  fragment.to_original = {0, 1, 2};
  fragment.in_qubits = {0, 1};
  fragment.out_cut_qubits = {1, 2};
  fragment.circuit = std::move(body);
  return fragment;
}

struct KeyInputs {
  cutting::ChainFragment fragment = key_fragment(small_circuit());
  cutting::FragmentVariantKey variant{3, 5};
  std::size_t shots = 1000;
  bool exact = false;
  std::uint64_t seed_stream = 7;
  std::string backend = "sv";

  [[nodiscard]] Hash128 key() const {
    return fragment_variant_key(fragment_key_stream(fragment, backend), variant, shots, exact,
                                seed_stream);
  }
};

TEST(FragmentVariantKey, ChangesWithEveryInput) {
  const KeyInputs base;
  std::vector<std::pair<std::string, KeyInputs>> changed;
  const auto with = [&](const std::string& name, auto&& edit) {
    KeyInputs inputs = base;
    edit(inputs);
    changed.emplace_back(name, std::move(inputs));
  };
  const auto body = [](KeyInputs& k, const Circuit& c) { k.fragment.circuit = c; };

  with("op kind", [&](KeyInputs& k) {
    Circuit c(3);
    c.h(0).cx(0, 1).rx(0.25, 1).cx(1, 2);
    body(k, c);
  });
  with("op qubit", [&](KeyInputs& k) {
    Circuit c(3);
    c.h(0).cx(0, 1).rz(0.25, 2).cx(1, 2);
    body(k, c);
  });
  with("parameter bits", [&](KeyInputs& k) {
    Circuit c(3);
    c.h(0).cx(0, 1).rz(std::nextafter(0.25, 1.0), 1).cx(1, 2);
    body(k, c);
  });
  with("fragment width", [&](KeyInputs& k) { k.fragment.to_original = {0, 1, 2, 3}; });
  with("body width", [&](KeyInputs& k) {
    Circuit c(4);
    c.h(0).cx(0, 1).rz(0.25, 1).cx(1, 2);
    body(k, c);
    k.fragment.to_original = {0, 1, 2, 3};
  });
  with("in_qubits entry", [](KeyInputs& k) { k.fragment.in_qubits = {0, 2}; });
  with("in_qubits order", [](KeyInputs& k) { k.fragment.in_qubits = {1, 0}; });
  with("out_cut_qubits entry", [](KeyInputs& k) { k.fragment.out_cut_qubits = {1, 0}; });
  with("out_cut_qubits order", [](KeyInputs& k) { k.fragment.out_cut_qubits = {2, 1}; });
  with("qubit moved between lists", [](KeyInputs& k) {
    k.fragment.in_qubits = {0, 1, 1};
    k.fragment.out_cut_qubits = {2};
  });
  with("prep", [](KeyInputs& k) { k.variant.prep_index = 4; });
  with("setting", [](KeyInputs& k) { k.variant.setting_index = 6; });
  with("prep and setting swapped", [](KeyInputs& k) { k.variant = {5, 3}; });
  with("shots", [](KeyInputs& k) { k.shots = 1001; });
  with("seed stream", [](KeyInputs& k) { k.seed_stream = 8; });
  with("exact", [](KeyInputs& k) { k.exact = true; });
  with("backend identity", [](KeyInputs& k) { k.backend = "noisy"; });

  EXPECT_EQ(KeyInputs{}.key(), base.key());
  std::vector<Hash128> keys = {base.key()};
  for (const auto& [name, inputs] : changed) {
    SCOPED_TRACE(name);
    const Hash128 key = inputs.key();
    for (const Hash128& seen : keys) EXPECT_NE(key, seen);
    keys.push_back(key);
  }
}

TEST(FragmentVariantKey, DistinguishesNegativeZero) {
  KeyInputs positive;
  Circuit c(3);
  c.h(0).cx(0, 1).rz(0.0, 1).cx(1, 2);
  positive.fragment.circuit = c;
  KeyInputs negative;
  Circuit d(3);
  d.h(0).cx(0, 1).rz(-0.0, 1).cx(1, 2);
  negative.fragment.circuit = d;
  EXPECT_NE(positive.key(), negative.key());
}

TEST(FragmentVariantKey, ExactModeIgnoresShotsAndSeed) {
  KeyInputs a;
  a.exact = true;
  a.shots = 100;
  a.seed_stream = 1;
  KeyInputs b = a;
  b.shots = 999;
  b.seed_stream = 42;
  EXPECT_EQ(a.key(), b.key());
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

struct CutCase {
  Circuit circuit;
  std::vector<std::vector<WirePoint>> boundaries;
};

/// 5 qubits, 3 fragments: {0,1} -q1-> {1,2,3} -q3-> {3,4}.
CutCase chain3() {
  Circuit c(5);
  c.h(0).cx(0, 1).ry(0.3, 1);
  c.cx(1, 2).ry(0.5, 2).cx(2, 3).ry(0.4, 3);
  c.cx(3, 4).ry(0.2, 4);
  return {std::move(c), {{WirePoint{1, 2}}, {WirePoint{3, 6}}}};
}

/// 7 qubits, 4 fragments: {0,1} -q1-> {1,2,3} -q3-> {3,4,5} -q5-> {5,6}.
CutCase chain4() {
  Circuit c(7);
  c.h(0).cx(0, 1).ry(0.3, 1);
  c.cx(1, 2).ry(0.5, 2).cx(2, 3).ry(0.4, 3);
  c.cx(3, 4).ry(0.2, 4).cx(4, 5).ry(0.6, 5);
  c.cx(5, 6).ry(0.1, 6);
  return {std::move(c), {{WirePoint{1, 2}}, {WirePoint{3, 6}}, {WirePoint{5, 10}}}};
}

/// 6 qubits, 3 fragments with a 2-cut first boundary.
CutCase two_cut_chain3() {
  Circuit c(6);
  c.h(0).cx(0, 1).ry(0.3, 1).cx(1, 2).ry(0.5, 2);
  c.cx(1, 3).ry(0.2, 3).cx(2, 4).ry(0.6, 4).cx(3, 4).ry(0.1, 4);
  c.cx(4, 5).ry(0.7, 5);
  return {std::move(c), {{WirePoint{1, 3}, WirePoint{2, 4}}, {WirePoint{4, 10}}}};
}

/// The circuits the committed variant digests cover, plus 3- and 4-fragment
/// chains.
std::vector<CutCase> key_corpus() {
  std::vector<CutCase> cases;
  Circuit sweep = circuit::qaoa_path(12, 3, 0.4, 0.3);
  const WirePoint sweep_cut = circuit::middle_cut(sweep);
  cases.push_back({std::move(sweep), {{sweep_cut}}});
  for (const int n : {5, 6, 7}) {
    Rng rng(static_cast<std::uint64_t>(100 + n));
    circuit::GoldenAnsatzOptions options;
    options.num_qubits = n;
    circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
    cases.push_back({std::move(ansatz.circuit), {{ansatz.cut}}});
  }
  cases.push_back(chain3());
  cases.push_back(chain4());
  cases.push_back(two_cut_chain3());
  return cases;
}

/// One slot's key in the service's format and its built circuit's key.
struct SlotKeys {
  Hash128 fragment_key;
  Hash128 circuit_key;
};

/// Keys every variant of every corpus graph, twice (each graph carved again
/// from a copy), under five run-field sets: sampled at the slot's seed
/// stream and at that stream plus 2^20, sampled at one seed shared by every
/// slot, and exact at two shot/seed pairs.
std::vector<SlotKeys> corpus_slot_keys() {
  struct RunFields {
    std::size_t shots;
    bool exact;
    std::uint64_t seed_offset;  // added to the slot's own seed stream
    bool shared_seed;           // the offset alone, for every slot
  };
  const std::vector<RunFields> runs = {
      {4000, false, 0, false},
      {4000, false, 1u << 20, false},
      {2000, false, 9, true},
      {0, true, 0, false},
      {4000, true, 5, true},
  };
  std::vector<SlotKeys> out;
  for (const CutCase& c : key_corpus()) {
    for (int copy = 0; copy < 2; ++copy) {
      const Circuit circuit = c.circuit;
      const cutting::FragmentGraph graph = cutting::make_fragment_chain(circuit, c.boundaries);
      const cutting::ChainNeglectSpec spec = cutting::ChainNeglectSpec::none(graph);
      for (int f = 0; f < graph.num_fragments(); ++f) {
        const cutting::ChainFragment& fragment = graph.fragments[static_cast<std::size_t>(f)];
        const HashStream stream = fragment_key_stream(fragment, "sv");
        for (const cutting::FragmentVariantKey key :
             cutting::required_fragment_variants(graph, f, spec)) {
          const Circuit variant = cutting::make_fragment_variant(graph, f, key).circuit;
          const std::uint64_t slot_seed =
              cutting::fragment_seed_offset(f) + cutting::variant_seed_index(graph, f, key);
          for (const RunFields& run : runs) {
            const std::uint64_t seed = run.seed_offset + (run.shared_seed ? 0 : slot_seed);
            SlotKeys keys;
            keys.fragment_key = fragment_variant_key(stream, key, run.shots, run.exact, seed);
            keys.circuit_key = hash_variant_execution(variant, run.shots, run.exact, seed, "sv");
            out.push_back(keys);
          }
        }
      }
    }
  }
  return out;
}

TEST(FragmentVariantKey, EqualExactlyWhenBuiltCircuitKeysAreEqual) {
  const std::vector<SlotKeys> slots = corpus_slot_keys();
  ASSERT_EQ(slots.size(), 2u * 5u * (4u * 9u + 27u + 45u + 123u));
  std::size_t equal_pairs = 0;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (std::size_t j = i + 1; j < slots.size(); ++j) {
      const bool same_fragment_key = slots[i].fragment_key == slots[j].fragment_key;
      const bool same_circuit_key = slots[i].circuit_key == slots[j].circuit_key;
      if (same_fragment_key != same_circuit_key) ++mismatches;
      if (same_circuit_key) ++equal_pairs;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // Per variant at least: its two copies meet in each of the three sampled
  // run-field sets (3 pairs), and its four exact keys are all equal (6
  // pairs). The 3- and 4-fragment chains also share their first two
  // fragments, which adds more.
  EXPECT_GE(equal_pairs, (slots.size() / 10u) * (3u + 6u));
}

/// The keys the service's cache holds: sampled at the service's seed
/// streams and exact, over the variant digest's circuits and the chains.
TEST(FragmentVariantKey, KeysMatchCommittedDigest) {
  std::vector<Hash128> keys;
  for (const CutCase& c : key_corpus()) {
    const cutting::FragmentGraph graph = cutting::make_fragment_chain(c.circuit, c.boundaries);
    const cutting::ChainNeglectSpec spec = cutting::ChainNeglectSpec::none(graph);
    for (int f = 0; f < graph.num_fragments(); ++f) {
      const cutting::ChainFragment& fragment = graph.fragments[static_cast<std::size_t>(f)];
      const HashStream stream = fragment_key_stream(fragment, "sv");
      for (const cutting::FragmentVariantKey key :
           cutting::required_fragment_variants(graph, f, spec)) {
        const std::uint64_t seed =
            cutting::fragment_seed_offset(f) + cutting::variant_seed_index(graph, f, key);
        keys.push_back(fragment_variant_key(stream, key, 4000, false, seed));
        keys.push_back(fragment_variant_key(stream, key, 0, true, 0));
      }
    }
  }
  ASSERT_EQ(keys.size(), 2u * (4u * 9u + 27u + 45u + 123u));
  EXPECT_EQ(fnv1a(keys), 0xb661dc3176a6212bULL) << std::hex << fnv1a(keys);
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
