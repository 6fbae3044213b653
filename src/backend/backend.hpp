#pragma once
// Execution backend interface.
//
// A Backend runs a circuit from |0...0> and measures every qubit in the
// computational basis. Implementations must be safe to call concurrently
// from multiple threads (the FragmentExecutor fans variants out over a
// thread pool). Determinism contract: results depend only on
// (circuit, shots, seed_stream) and the backend's construction seed, never
// on thread scheduling.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "backend/counts.hpp"
#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "parallel/thread_pool.hpp"

namespace qcut::backend {

using circuit::Circuit;

// ---- Batched execution ------------------------------------------------------

/// One circuit execution inside a batch. Semantically identical to a
/// Backend::run (or exact_probabilities) call with the same arguments.
struct BatchJob {
  Circuit circuit{1};
  std::size_t shots = 0;          // ignored in exact mode
  std::uint64_t seed_stream = 0;  // ignored in exact mode
};

/// A set of jobs whose circuits begin with the same `prefix_ops` operations
/// verbatim (circuit::same_operation, equal widths). Backends that simulate
/// may run the shared prefix once and fork a state per suffix; the caller
/// guarantees the prefix property (see cutting::group_by_shared_prefix).
struct BatchPrefixGroup {
  std::size_t prefix_ops = 0;
  std::vector<std::size_t> jobs;  // indices into BatchRequest::jobs
};

struct BatchRequest {
  std::vector<BatchJob> jobs;

  /// Optional shared-prefix plan. Groups must be disjoint and in range;
  /// jobs not covered by any group execute standalone. An empty plan is
  /// always valid (no sharing known).
  std::vector<BatchPrefixGroup> groups;

  /// Use exact_probabilities instead of sampling for every job.
  bool exact = false;

  /// Optional pool for intra-batch parallelism. Pass nullptr when calling
  /// from a pool worker thread (a nested parallel wait can deadlock a
  /// saturated pool); implementations must then run the batch serially.
  parallel::ThreadPool* pool = nullptr;
};

/// Per-job results, indexed like BatchRequest::jobs: one dense distribution
/// over 2^width outcomes per job. Exact mode holds exact_probabilities();
/// sampled mode holds the empirical distribution of run()'s Counts, bit for
/// bit its to_probabilities() (count * (1 / shots), +0.0 for outcomes never
/// seen; probabilities_from_histogram in counts.hpp).
struct BatchResult {
  std::vector<std::vector<double>> probabilities;
};

/// Cumulative execution statistics, used by the runtime experiments.
struct BackendStats {
  std::uint64_t jobs = 0;                  // circuit executions submitted
  std::uint64_t shots = 0;                 // total shots across jobs
  double simulated_device_seconds = 0.0;   // device wall time (FakeHardwareBackend only)
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Human-readable backend name.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Cache-key identity: two backends with equal identity() must return
  /// bit-for-bit equal results for every (circuit, shots, seed_stream).
  /// Backends must fold every result-affecting construction parameter in
  /// — seeds, noise models, engine configuration (the statevector backend
  /// includes its sampling seed and whether it fuses gates). The default is
  /// name(), which carries none of that, so a backend that keeps it must
  /// not share a cache with a differently configured twin. A CutService
  /// owns one backend and one cache and folds identity() into every key.
  [[nodiscard]] virtual std::string identity() const { return name(); }

  /// Samples `shots` measurements of all qubits after running `circuit`.
  /// `seed_stream` selects a deterministic random substream; callers that
  /// fan out concurrently pass distinct streams to stay reproducible.
  ///
  /// Failure contract: run() (and run_batch()) may throw
  /// qcut::TransientError for failures worth retrying and
  /// qcut::PermanentError for failures that are not; a throwing call must
  /// be SIDE-EFFECT-FREE - no partial results, no stats() advance, no
  /// internal state change - so that retrying the identical (circuit,
  /// shots, seed_stream) yields bit-for-bit the result a fault-free call
  /// would have produced. The service's retry policy relies on this.
  [[nodiscard]] virtual Counts run(const Circuit& circuit, std::size_t shots,
                                   std::uint64_t seed_stream) = 0;

  /// Convenience overload drawing streams from a per-backend counter.
  /// Deterministic for sequential callers; parallel code should pass
  /// explicit streams instead.
  [[nodiscard]] Counts run(const Circuit& circuit, std::size_t shots) {
    return run(circuit, shots, auto_stream_.fetch_add(1, std::memory_order_relaxed));
  }

  /// Exact measurement distribution (the noiseless part of the backend's
  /// model). Backends that cannot provide it throw qcut::Error.
  [[nodiscard]] virtual std::vector<double> exact_probabilities(const Circuit& circuit) {
    (void)circuit;
    QCUT_CHECK(false, name() + ": exact probabilities are not available on this backend");
  }

  /// Executes a batch of jobs, optionally exploiting a shared-prefix plan.
  ///
  /// Determinism contract: probabilities[j] is BIT-FOR-BIT IDENTICAL to
  /// run(jobs[j].circuit, jobs[j].shots, jobs[j].seed_stream)
  /// .to_probabilities() — or exact_probabilities(jobs[j].circuit) in exact
  /// mode — on a backend in the same state, regardless of the prefix plan,
  /// the pool, and the order jobs appear in the batch. Equal distributions
  /// mean equal counts (n -> n * (1 / shots) is strictly increasing), so no
  /// sampled outcome can differ either. Cumulative stats() advance exactly
  /// as the equivalent per-job calls would. Prefix sharing is therefore a
  /// pure execution-cost optimization: cache keys, distributions, and
  /// downstream reconstructions cannot observe it.
  ///
  /// Failure contract: like run(), a throwing run_batch() must be
  /// side-effect-free (TransientError marks the batch retryable; the
  /// retried batch must reproduce the fault-free results bit-for-bit).
  ///
  /// The default implementation runs each job through
  /// run().to_probabilities() / exact_probabilities() (fanned over `pool`
  /// when provided), so backends without a native batch path keep working
  /// unchanged.
  [[nodiscard]] virtual BatchResult run_batch(const BatchRequest& request);

  /// Cumulative statistics since construction (thread-safe snapshot).
  [[nodiscard]] virtual BackendStats stats() const = 0;

  /// Resets cumulative statistics.
  virtual void reset_stats() = 0;

 private:
  std::atomic<std::uint64_t> auto_stream_{0};
};

}  // namespace qcut::backend
