#pragma once
// Ideal (noiseless) simulator backend with multinomial shot sampling —
// the role Qiskit Aer plays in the paper's simulator experiments.
//
// Simulation runs through the device-agnostic compiled-circuit interface
// (sim/device.hpp): circuits are compiled once into programs (kernel
// classification, gate fusion, SIMD dispatch) and applied to device-owned
// states. The backend holds a CPU device built from its EngineOptions; an
// accelerator device could be slotted in without changing this layer's
// callers.
//
// Identity-bearing vs bit-neutral knobs (the Backend::identity() contract):
//   * Identity-bearing — the sampling seed, gate fusion
//     (EngineOptions::fuse), and the SIMD path's dispatched ISA
//     (EngineOptions::simd): each changes sampled counts or probabilities
//     by floating-point rounding, so each separates cache namespaces.
//   * Bit-neutral — kernel specialization, threading (threshold, grain,
//     pool), and cache blocking: results are bit-for-bit identical at any
//     setting, so they never appear in identity() and caches cannot
//     observe them.

#include <memory>
#include <mutex>

#include "backend/backend.hpp"
#include "common/rng.hpp"
#include "sim/device.hpp"
#include "telemetry/metrics.hpp"

namespace qcut::backend {

class StatevectorBackend : public Backend {
 public:
  explicit StatevectorBackend(std::uint64_t seed = 7, sim::EngineOptions engine = {});

  [[nodiscard]] std::string name() const override { return "statevector"; }

  /// name() plus every result-affecting construction parameter: the
  /// sampling seed and the device's identity token (gate fusion on or off
  /// and the dispatched SIMD ISA). Backends whose identity() strings are equal
  /// return bit-for-bit equal results.
  [[nodiscard]] std::string identity() const override;

  [[nodiscard]] const sim::EngineOptions& engine_options() const noexcept { return engine_; }

  /// The device executing this backend's circuits.
  [[nodiscard]] const sim::Device& device() const noexcept { return *device_; }

  using Backend::run;
  [[nodiscard]] Counts run(const Circuit& circuit, std::size_t shots,
                           std::uint64_t seed_stream) override;

  [[nodiscard]] std::vector<double> exact_probabilities(const Circuit& circuit) override;

  /// Native shared-prefix batch execution: each group's common prefix is
  /// compiled (sim::Device::compile_prefix) and simulated once, then a copy
  /// of the prefix state is forked per member and only the member's suffix
  /// program (compile_suffix, which clones the prefix's fusion frontier) is
  /// applied. Every job's probabilities — and the multinomial sample drawn
  /// from its own seed stream — are therefore bit-for-bit identical to a
  /// per-job run() (the Backend::run_batch contract), fusion on or off,
  /// SIMD on or off. A sample's histogram goes straight into its dense
  /// empirical distribution; no Counts is built.
  [[nodiscard]] BatchResult run_batch(const BatchRequest& request) override;

  [[nodiscard]] BackendStats stats() const override;
  void reset_stats() override;

 private:
  Rng base_rng_;
  sim::EngineOptions engine_;
  std::unique_ptr<sim::Device> device_;
  mutable std::mutex stats_mutex_;
  BackendStats stats_;

  // Batch-execution instruments (global registry): how much the
  // shared-prefix path actually shares.
  std::shared_ptr<telemetry::Counter> batches_;
  std::shared_ptr<telemetry::Counter> batch_jobs_;
  std::shared_ptr<telemetry::Counter> forks_;
  std::shared_ptr<telemetry::Counter> prefix_ops_saved_;
  std::shared_ptr<telemetry::Histogram> group_size_;
};

}  // namespace qcut::backend
