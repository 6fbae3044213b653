#pragma once
// The sampler the frozen sampled digests were recorded with, for the tests
// that keep them: a Backend decorator that takes each circuit's exact
// probabilities from the backend it wraps and samples run() with
// DiscreteSampler::sample_histogram (the guide table, one draw per shot) on
// Rng(seed).child(seed_stream). That is what StatevectorBackend(seed)
// sampled before sim::sample_histogram drew counts of few outcomes against
// many shots by binomials. run_batch() is Backend's default, which samples
// every job through run(); exact mode forwards exact_probabilities().

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "common/rng.hpp"

namespace qcut::backend {

class GuideTableBackend final : public Backend {
 public:
  /// Decorates `inner` (kept by reference; must outlive this backend) and
  /// samples from seed `seed`'s streams.
  GuideTableBackend(Backend& inner, std::uint64_t seed) : inner_(inner), base_rng_(seed) {}

  [[nodiscard]] std::string name() const override { return "guide-table"; }
  [[nodiscard]] std::string identity() const override {
    return name() + "(seed=" + std::to_string(base_rng_.seed()) + ")[" + inner_.identity() + "]";
  }
  [[nodiscard]] Counts run(const Circuit& circuit, std::size_t shots,
                           std::uint64_t seed_stream) override {
    QCUT_CHECK(shots > 0, "GuideTableBackend::run: shots must be positive");
    const std::vector<double> probs = inner_.exact_probabilities(circuit);
    Rng rng = base_rng_.child(seed_stream);
    const std::vector<std::uint64_t> histogram =
        DiscreteSampler(probs, 1e-9).sample_histogram(shots, rng);
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.jobs;
      stats_.shots += shots;
    }
    return Counts::from_histogram(histogram, circuit.num_qubits());
  }
  [[nodiscard]] std::vector<double> exact_probabilities(const Circuit& circuit) override {
    return inner_.exact_probabilities(circuit);
  }
  [[nodiscard]] BackendStats stats() const override {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_;
  }
  void reset_stats() override {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_ = BackendStats{};
  }

 private:
  Backend& inner_;
  Rng base_rng_;
  mutable std::mutex stats_mutex_;
  BackendStats stats_;
};

}  // namespace qcut::backend
