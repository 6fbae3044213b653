#pragma once
// The per-variant reference for batched execution, shared by tests and
// benches: a Backend decorator that forwards run() and exact_probabilities()
// to the backend it wraps and leaves run_batch() to Backend's default, which
// executes every job of a batch through those two calls and ignores the
// shared-prefix plan. By the run_batch determinism contract, whatever runs
// through it is bit for bit what the wrapped backend's own batch path
// returns, so comparing the two checks that contract end to end.

#include <string>
#include <vector>

#include "backend/backend.hpp"

namespace qcut::backend {

class PerVariantBackend final : public Backend {
 public:
  /// Decorates `inner` (kept by reference; must outlive this backend).
  explicit PerVariantBackend(Backend& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::string identity() const override { return inner_.identity(); }
  [[nodiscard]] Counts run(const Circuit& circuit, std::size_t shots,
                           std::uint64_t seed_stream) override {
    return inner_.run(circuit, shots, seed_stream);
  }
  [[nodiscard]] std::vector<double> exact_probabilities(const Circuit& circuit) override {
    return inner_.exact_probabilities(circuit);
  }
  [[nodiscard]] BackendStats stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }

 private:
  Backend& inner_;
};

}  // namespace qcut::backend
