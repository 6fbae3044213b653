#pragma once
// Traced layer-by-layer replay of CutService jobs.
//
// A sampled request is replayed alone, calling the public function of each
// layer in the order CutService runs them (cut_service.cpp admit /
// issue_wave / launch_variant_groups / reconstruct_and_finish):
//
//   cutting.plan (resolve) -> cutting.chain (make_fragment_chain)
//   -> cutting.golden (detect_*) -> cutting.variants (plan, build)
//   -> service.hash -> service.cache.lookup -> cutting.prefix_group
//   -> parallel.dispatch -> backend.run_batch -> sim.compile / sim.apply /
//      sim.sample -> service.cache.insert -> service.absorb
//   -> cutting.reconstruct
//
// The benchmark records a span around every call: name, start, end,
// parent and job id. Backend work runs on a pool worker, as in the
// service, so kernel threading disengages the same way. Spans stay in
// memory until the run writes them out at exit. A replayed reconstruction
// is bit-for-bit the service's response for the same request: the
// backend's shared-prefix batch is re-enacted through sim::Device with the
// same programs, states and per-variant seed streams.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "backend/statevector_backend.hpp"
#include "cutting/request.hpp"
#include "parallel/thread_pool.hpp"
#include "service/fragment_cache.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  // index into the span list; -1 for a job's root span
  std::uint64_t job = 0;
};

/// Per-layer totals over every recorded job.
struct LayerTotals {
  double self_s = 0.0;   // span time minus the time of its child spans
  std::uint64_t spans = 0;
};

struct ReplayReport {
  std::uint64_t jobs = 0;
  /// Layer name -> totals; the root "job" span is not a layer.
  std::map<std::string, LayerTotals> layers;
  /// Mean wall seconds of one replayed job (its root span).
  double job_wall_s = 0.0;
  /// Mean over jobs of the share of the job's wall time covered by layer
  /// spans; the rest is the replay's own glue.
  double attributed_frac = 0.0;
  std::uint64_t cache_lookups = 0;
  /// Prefix ops the batches simulated once instead of once per member, over
  /// all ops of the executed variant circuits.
  std::uint64_t prefix_ops_saved = 0;
  std::uint64_t ops_submitted = 0;
  /// Computed bytes of every applied compiled op (2 x 16 B x 2^width: each
  /// amplitude read and written once).
  double apply_bytes = 0.0;
};

class Replayer {
 public:
  /// `backend_seed` must be the seed `backend` was constructed with: the
  /// replay draws each variant's samples from the same seed stream.
  Replayer(qcut::backend::StatevectorBackend& backend, qcut::parallel::ThreadPool& pool,
           std::uint64_t backend_seed, std::size_t cache_capacity, std::uint64_t cache_max_bytes);

  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  /// Replays one job and returns its raw reconstruction. With
  /// record = false nothing is traced (used to fill the replay's cache the
  /// way a priming pass fills the service's).
  std::vector<double> replay(const qcut::cutting::CutRequest& request, std::uint64_t job_id,
                             bool record);

  [[nodiscard]] ReplayReport report() const;

  /// Chrome trace-event JSON of every recorded span (one row per job).
  bool write_spans(const std::string& path) const;

 private:
  class Scope;
  struct Wave;

  void run_wave(Wave& wave, int parent);
  void run_group(Wave& wave, const std::vector<std::size_t>& members, std::size_t prefix_ops,
                 int parent);
  int open(const char* name, int parent);
  void close(int span);

  qcut::backend::StatevectorBackend& backend_;
  qcut::parallel::ThreadPool& pool_;
  std::uint64_t backend_seed_;
  std::string backend_identity_;
  qcut::telemetry::MetricsRegistry cache_metrics_;  // before cache_: it registers here
  qcut::service::FragmentResultCache cache_;

  bool recording_ = false;
  std::uint64_t job_ = 0;
  mutable std::mutex spans_mutex_;  // backend spans are recorded on a pool worker
  std::vector<Span> spans_;
  std::uint64_t cache_lookups_ = 0;
  std::uint64_t prefix_ops_saved_ = 0;
  std::uint64_t ops_submitted_ = 0;
  double apply_bytes_ = 0.0;
};

}  // namespace perfbench
