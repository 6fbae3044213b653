// Batched, prefix-sharing execution: the shared-prefix grouping, the
// Backend::run_batch determinism contract (batched execution bit-for-bit
// identical to per-variant run on both the native statevector path and the
// serial fallback), equality with the per-variant reference
// (support/per_variant_backend.hpp) through execute_chain and the
// CutService under every GoldenMode, and the DetectOnline budget
// amortization across fragment waves.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "backend/noisy_backend.hpp"
#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "common/error.hpp"
#include "cutting/fragment_executor.hpp"
#include "cutting/golden.hpp"
#include "cutting/reconstructor.hpp"
#include "cutting/variants.hpp"
#include "noise/standard_channels.hpp"
#include "service/cut_service.hpp"
#include "support/per_variant_backend.hpp"

namespace qcut::cutting {
namespace {

using circuit::WirePoint;

/// 5 qubits, 3 fragments: {0,1} -q1-> {1,2,3} -q3-> {3,4}; the interior
/// fragment runs 6 x 3 variants (the shape prefix sharing targets).
Circuit chain5() {
  Circuit c(5);
  c.h(0).cx(0, 1).ry(0.3, 1);
  c.cx(1, 2).ry(0.5, 2).cx(2, 3).ry(0.4, 3);
  c.cx(3, 4).ry(0.2, 4);
  return c;
}

std::vector<std::vector<WirePoint>> chain5_boundaries() {
  return {{WirePoint{1, 2}}, {WirePoint{3, 6}}};
}

noise::NoiseModel small_noise() {
  noise::NoiseModel model;
  model.set_after_1q(noise::depolarizing_1q(0.01));
  model.set_after_2q(noise::depolarizing_2q(0.05));
  model.set_readout(noise::ReadoutModel(5, noise::ReadoutError{0.02, 0.03}));
  return model;
}

/// Bit-for-bit equality of two distributions (== alone would equate +0.0
/// and -0.0). n -> n * (1 / shots) is strictly increasing, so equal sampled
/// distributions of one shot count mean equal counts.
void expect_same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i]))
        << "outcome " << i << ": " << a[i] << " vs " << b[i];
  }
}

TEST(SharedPrefixGrouping, ClustersCommonPrefixesAndSeparatesStrangers) {
  Circuit a(2), b(2), c(2), wide(3);
  a.h(0).cx(0, 1).rz(0.3, 1);
  b.h(0).cx(0, 1).rz(0.9, 1);   // shares 2 ops with a
  c.x(0).h(1);                  // shares nothing
  wide.h(0).cx(0, 1).rz(0.3, 1);  // a's ops on a wider register: no sharing

  const std::array<const Circuit*, 4> circuits = {&a, &b, &c, &wide};
  const std::vector<PrefixGroup> groups = group_by_shared_prefix(circuits);

  ASSERT_EQ(groups.size(), 3u);
  std::vector<bool> seen(circuits.size(), false);
  for (const PrefixGroup& group : groups) {
    for (std::size_t member : group.members) {
      EXPECT_FALSE(seen[member]);
      seen[member] = true;
      // Every member carries the declared prefix verbatim.
      EXPECT_GE(circuit::common_prefix_ops(*circuits[group.members.front()],
                                           *circuits[member]),
                group.prefix_ops);
    }
    if (group.members.size() == 2) {
      EXPECT_EQ(group.prefix_ops, 2u);  // a and b share h, cx
    }
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(SharedPrefixGrouping, FragmentVariantsGroupByPrepTuple) {
  const FragmentGraph graph = make_fragment_chain(chain5(), chain5_boundaries());
  const ChainNeglectSpec spec = ChainNeglectSpec::none(graph);

  std::vector<FragmentVariant> variants;
  for (const FragmentVariantKey& key : required_fragment_variants(graph, 1, spec)) {
    variants.push_back(make_fragment_variant(graph, 1, key));
  }
  ASSERT_EQ(variants.size(), 18u);  // 6 preps x 3 settings

  std::vector<const Circuit*> circuits;
  for (const FragmentVariant& v : variants) circuits.push_back(&v.circuit);
  const std::vector<PrefixGroup> groups = group_by_shared_prefix(circuits);

  // One group per prep tuple: the 3 setting variants of a prep share
  // "preparation + body" and differ only in the trailing basis rotation.
  ASSERT_EQ(groups.size(), 6u);
  for (const PrefixGroup& group : groups) {
    EXPECT_EQ(group.members.size(), 3u);
    const std::uint32_t prep = variants[group.members.front()].key.prep_index;
    for (std::size_t member : group.members) {
      EXPECT_EQ(variants[member].key.prep_index, prep);
    }
  }
}

TEST(RunBatch, StatevectorSharedPrefixIsBitForBitEqualToPerVariantRun) {
  const FragmentGraph graph = make_fragment_chain(chain5(), chain5_boundaries());
  const ChainNeglectSpec spec = ChainNeglectSpec::none(graph);

  backend::BatchRequest batch;
  for (const FragmentVariantKey& key : required_fragment_variants(graph, 1, spec)) {
    backend::BatchJob job;
    job.circuit = make_fragment_variant(graph, 1, key).circuit;
    job.shots = 700;
    job.seed_stream = pack_variant_key(key);
    batch.jobs.push_back(std::move(job));
  }
  std::vector<const Circuit*> circuits;
  for (const backend::BatchJob& job : batch.jobs) circuits.push_back(&job.circuit);
  for (PrefixGroup& g : group_by_shared_prefix(circuits)) {
    batch.groups.push_back(backend::BatchPrefixGroup{g.prefix_ops, std::move(g.members)});
  }

  // Sampled mode: each distribution bit for bit that of the per-job run()'s
  // Counts, and identical cumulative stats.
  backend::StatevectorBackend reference(41);
  backend::StatevectorBackend batched(41);
  const backend::BatchResult result = batched.run_batch(batch);
  ASSERT_EQ(result.probabilities.size(), batch.jobs.size());
  for (std::size_t j = 0; j < batch.jobs.size(); ++j) {
    expect_same_bits(result.probabilities[j],
                     reference.run(batch.jobs[j].circuit, batch.jobs[j].shots,
                                   batch.jobs[j].seed_stream)
                         .to_probabilities());
  }
  EXPECT_EQ(batched.stats().jobs, reference.stats().jobs);
  EXPECT_EQ(batched.stats().shots, reference.stats().shots);

  // Exact mode: identical probabilities, no stats movement.
  backend::BatchRequest exact_batch = batch;
  exact_batch.exact = true;
  backend::StatevectorBackend exact_backend(41);
  const backend::BatchResult exact_result = exact_backend.run_batch(exact_batch);
  for (std::size_t j = 0; j < batch.jobs.size(); ++j) {
    EXPECT_EQ(exact_result.probabilities[j],
              exact_backend.exact_probabilities(batch.jobs[j].circuit));
  }
}

TEST(RunBatch, DefaultFallbackMatchesPerVariantRunOnNoisyBackend) {
  const FragmentGraph graph = make_fragment_chain(chain5(), chain5_boundaries());
  const ChainNeglectSpec spec = ChainNeglectSpec::none(graph);

  backend::BatchRequest batch;
  for (const FragmentVariantKey& key : required_fragment_variants(graph, 0, spec)) {
    backend::BatchJob job;
    job.circuit = make_fragment_variant(graph, 0, key).circuit;
    job.shots = 400;
    job.seed_stream = key.setting_index;
    batch.jobs.push_back(std::move(job));
  }
  std::vector<const Circuit*> circuits;
  for (const backend::BatchJob& job : batch.jobs) circuits.push_back(&job.circuit);
  for (PrefixGroup& g : group_by_shared_prefix(circuits)) {
    batch.groups.push_back(backend::BatchPrefixGroup{g.prefix_ops, std::move(g.members)});
  }

  backend::NoisyBackend reference(small_noise(), 13);
  backend::NoisyBackend fallback(small_noise(), 13);
  const backend::BatchResult result = fallback.run_batch(batch);
  ASSERT_EQ(result.probabilities.size(), batch.jobs.size());
  for (std::size_t j = 0; j < batch.jobs.size(); ++j) {
    expect_same_bits(result.probabilities[j],
                     reference.run(batch.jobs[j].circuit, batch.jobs[j].shots,
                                   batch.jobs[j].seed_stream)
                         .to_probabilities());
  }
}

TEST(RunBatch, RejectsMalformedPrefixGroups) {
  Circuit a(2), b(2);
  a.h(0).cx(0, 1);
  b.x(0).cx(0, 1);  // first op differs: no shared prefix

  backend::BatchRequest batch;
  batch.jobs.push_back(backend::BatchJob{a, 100, 0});
  batch.jobs.push_back(backend::BatchJob{b, 100, 1});
  batch.groups.push_back(backend::BatchPrefixGroup{1, {0, 1}});

  backend::StatevectorBackend backend(3);
  EXPECT_THROW((void)backend.run_batch(batch), Error);
}

/// execute_chain on a backend and on the same backend behind the
/// per-variant reference across spec x shot-plan x backend combinations:
/// identical per-variant distributions, totals, and reconstructions.
TEST(BatchedExecution, ExecuteChainBatchedEqualsPerVariantEverywhere) {
  const Circuit c = chain5();
  const FragmentGraph graph = make_fragment_chain(c, chain5_boundaries());
  const ChainNeglectSpec none = ChainNeglectSpec::none(graph);
  const ChainNeglectSpec golden{detect_chain_golden_specs(c, chain5_boundaries())};

  struct Case {
    const char* name;
    const ChainNeglectSpec* spec;
    ExecutionOptions exec;
  };
  std::vector<Case> cases;
  {
    Case sampled{"sampled", &none, {}};
    sampled.exec.shots_per_variant = 900;
    cases.push_back(sampled);

    Case budget{"budget", &golden, {}};
    budget.exec.shots_per_variant = 0;
    budget.exec.total_shot_budget = 7013;
    cases.push_back(budget);

    Case exact{"exact", &none, {}};
    exact.exec.exact = true;
    cases.push_back(exact);

    Case golden_sampled{"golden-sampled", &golden, {}};
    golden_sampled.exec.shots_per_variant = 1100;
    golden_sampled.exec.seed_stream_base = 1u << 24;
    cases.push_back(golden_sampled);
  }

  for (int noisy = 0; noisy < 2; ++noisy) {
    for (const Case& tc : cases) {
      SCOPED_TRACE(std::string(noisy ? "noisy/" : "statevector/") + tc.name);

      backend::StatevectorBackend sv_serial(7), sv_batched(7);
      backend::NoisyBackend noisy_serial(small_noise(), 7), noisy_batched(small_noise(), 7);
      backend::Backend& serial_backend =
          noisy ? static_cast<backend::Backend&>(noisy_serial) : sv_serial;
      backend::Backend& batched_backend =
          noisy ? static_cast<backend::Backend&>(noisy_batched) : sv_batched;

      backend::PerVariantBackend per_variant(serial_backend);
      const ChainFragmentData expected = execute_chain(graph, *tc.spec, per_variant, tc.exec);
      const ChainFragmentData actual = execute_chain(graph, *tc.spec, batched_backend,
                                                     tc.exec);

      EXPECT_EQ(actual.total_jobs, expected.total_jobs);
      EXPECT_EQ(actual.total_shots, expected.total_shots);
      EXPECT_EQ(actual.shots_per_variant, expected.shots_per_variant);
      ASSERT_EQ(actual.num_fragments(), expected.num_fragments());
      for (int f = 0; f < expected.num_fragments(); ++f) {
        const auto& expected_variants =
            expected.fragments[static_cast<std::size_t>(f)].variants;
        const auto& actual_variants = actual.fragments[static_cast<std::size_t>(f)].variants;
        ASSERT_EQ(actual_variants.size(), expected_variants.size());
        for (const auto& [packed, dist] : expected_variants) {
          const auto it = actual_variants.find(packed);
          ASSERT_NE(it, actual_variants.end());
          EXPECT_EQ(it->second, dist);
        }
      }

      EXPECT_EQ(reconstruct_distribution(graph, actual, *tc.spec).raw_probabilities,
                reconstruct_distribution(graph, expected, *tc.spec).raw_probabilities);
    }
  }
}

/// The service on a backend and on the same backend behind the per-variant
/// reference, across every GoldenMode x {sampled, exact} x
/// {StatevectorBackend, NoisyBackend fallback}: identical CutResponse
/// reconstructions and logical totals.
TEST(BatchedExecution, ServiceSharedPrefixBatchesAreBitForBitUnderAllGoldenModes) {
  const Circuit c = chain5();
  const auto boundaries = chain5_boundaries();

  struct Case {
    const char* name;
    GoldenMode mode;
    bool exact;
  };
  const std::vector<Case> cases = {
      {"None/sampled", GoldenMode::None, false},
      {"None/exact", GoldenMode::None, true},
      {"Provided/sampled", GoldenMode::Provided, false},
      {"Provided/exact", GoldenMode::Provided, true},
      {"DetectExact/sampled", GoldenMode::DetectExact, false},
      {"DetectExact/exact", GoldenMode::DetectExact, true},
      {"DetectOnline/sampled", GoldenMode::DetectOnline, false},
      // DetectOnline/exact is rejected by validation (nothing to detect on
      // exact distributions at finite thresholds): not part of the matrix.
  };

  for (int noisy = 0; noisy < 2; ++noisy) {
    for (const Case& tc : cases) {
      SCOPED_TRACE(std::string(noisy ? "noisy/" : "statevector/") + tc.name);

      CutRequest request(c);
      request.with_boundaries(boundaries).with_golden(tc.mode);
      if (tc.exact) {
        request.with_exact();
      } else {
        request.with_shots(tc.mode == GoldenMode::DetectOnline ? 4000 : 1200);
      }
      if (tc.mode == GoldenMode::Provided) {
        request.with_provided_specs(detect_chain_golden_specs(c, boundaries));
      }

      const auto run_with = [&](bool per_variant) {
        backend::StatevectorBackend sv(71);
        backend::NoisyBackend noisy_backend(small_noise(), 71);
        backend::Backend& inner = noisy ? static_cast<backend::Backend&>(noisy_backend) : sv;
        backend::PerVariantBackend reference(inner);
        service::CutService service(per_variant ? reference : inner);
        return service.run(request);
      };

      const CutResponse expected = run_with(true);
      const CutResponse actual = run_with(false);

      EXPECT_EQ(actual.reconstruction.raw_probabilities,
                expected.reconstruction.raw_probabilities);
      EXPECT_EQ(actual.reconstruction.terms, expected.reconstruction.terms);
      EXPECT_EQ(actual.data.total_jobs, expected.data.total_jobs);
      EXPECT_EQ(actual.data.total_shots, expected.data.total_shots);
      EXPECT_EQ(actual.backend_delta.jobs, expected.backend_delta.jobs);
      EXPECT_EQ(actual.backend_delta.shots, expected.backend_delta.shots);
    }
  }
}

TEST(BatchedExecution, CacheKeysAreUnchangedByBatching) {
  // A batching service replays a repeated request entirely from the cache:
  // prefix sharing never enters the cache key.
  const Circuit c = chain5();
  backend::StatevectorBackend backend(5);
  service::CutService service(backend);

  CutRequest request(c);
  request.with_boundaries(chain5_boundaries()).with_shots(600);
  const CutResponse first = service.run(request);
  const std::uint64_t executions = service.stats().scheduler.executions;
  const CutResponse second = service.run(request);

  EXPECT_EQ(service.stats().scheduler.executions, executions);  // nothing re-ran
  EXPECT_GE(service.stats().scheduler.cache_hits, executions);
  EXPECT_EQ(first.reconstruction.raw_probabilities, second.reconstruction.raw_probabilities);
}

/// DetectOnline inputs on chains of two and three fragments, all boundaries
/// single cuts. Fragment 0 runs 3 settings in both, so a budget whose first
/// wave share (budget / fragments) is below 3 cannot cover that wave.
struct OnlineBudgetCase {
  const char* name;
  Circuit circuit;
  std::vector<std::vector<WirePoint>> boundaries;
  std::size_t too_small_budget;
};

std::vector<OnlineBudgetCase> online_budget_cases() {
  Rng rng(31);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  return {{"two_fragments", ansatz.circuit, {{ansatz.cut}}, 5},
          {"three_fragments", chain5(), chain5_boundaries(), 8}};
}

TEST(OnlineBudget, AmortizedAcrossFragmentWaves) {
  for (const OnlineBudgetCase& c : online_budget_cases()) {
    SCOPED_TRACE(c.name);
    backend::StatevectorBackend backend(9);
    service::CutService service(backend);

    CutRequest request(c.circuit);
    request.with_boundaries(c.boundaries)
        .with_golden(GoldenMode::DetectOnline)
        .with_shot_budget(9000);
    request.options.shots_per_variant = 0;

    const CutResponse response = service.run(request);
    // One budget across all fragment waves, not one per wave.
    EXPECT_LE(response.data.total_shots, 9000u);
    EXPECT_GE(response.data.total_shots, 9000u / 2);  // most of the budget is spent
    EXPECT_EQ(response.backend_delta.shots, response.data.total_shots);
  }
}

TEST(OnlineBudget, TooSmallForWavesIsRejectedWithSpecificError) {
  for (const OnlineBudgetCase& c : online_budget_cases()) {
    SCOPED_TRACE(c.name);
    backend::StatevectorBackend backend(9);
    service::CutService service(backend);

    CutRequest request(c.circuit);
    request.with_boundaries(c.boundaries)
        .with_golden(GoldenMode::DetectOnline)
        .with_shot_budget(c.too_small_budget);
    request.options.shots_per_variant = 0;
    try {
      (void)service.run(request);
      ADD_FAILURE() << "a budget of " << c.too_small_budget << " shots was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("DetectOnline: total_shot_budget too small"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace qcut::cutting
