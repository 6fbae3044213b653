#pragma once
// Closed-loop load generation against a CutService.
//
// C virtual clients each keep one request outstanding: a client sends its
// next request as soon as its previous one is observed complete, as an
// optimizer loop waiting on each cost evaluation does. All clients are
// multiplexed on the calling thread.
//
// Completion is observed by a timed wait of at most 100 us on the oldest
// outstanding future, followed by a non-blocking sweep over every
// outstanding future. A job that finishes early is therefore observed
// within 100 us of finishing rather than charged until the oldest job
// completes (a FIFO wait would do that), and the thread sleeps in the
// timed wait instead of spinning.

#include <cstdint>
#include <functional>
#include <vector>

#include "cutting/request.hpp"
#include "service/cut_service.hpp"

namespace perfbench {

struct LoopOptions {
  int clients = 1;
  std::uint64_t first_index = 0;
  std::uint64_t jobs = 0;
  int segments = 1;
  /// Stop submitting once this many seconds have passed (0 = never). A
  /// safety cap for hosts so loaded that a run would outlast its budget;
  /// the jobs completed so far still count.
  double max_seconds = 0.0;
};

/// One equal-count slice of the timed part, in completion order.
struct Segment {
  std::uint64_t jobs = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_frac = 0.0;  // host steal over the segment (diagnostic)
  std::vector<double> latencies_s;
};

struct LoopResult {
  /// Latencies are submit-to-observed seconds (infinite for a job refused
  /// at submit or failed by the service).
  std::vector<Segment> segments;
  /// Wall seconds spent inside CutService::submit per accepted request.
  std::vector<double> submit_s;
  double wall_s = 0.0;
  double steal_frac = 0.0;
  bool capped = false;  // max_seconds ended the run early
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

using RequestFn = std::function<qcut::cutting::CutRequest(std::uint64_t index)>;

/// Output check of one completed job, run on the generating thread; false
/// marks the job failed.
using CheckFn = std::function<bool(std::uint64_t index, const qcut::cutting::CutResponse&)>;

/// Runs jobs [first_index, first_index + jobs) through `service` with
/// `clients` closed-loop clients and returns when every one has completed.
[[nodiscard]] LoopResult run_closed_loop(qcut::service::CutService& service,
                                         const RequestFn& make_request, const CheckFn& check,
                                         const LoopOptions& options);

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// Median of unsorted samples (0 for none).
[[nodiscard]] double median(std::vector<double> samples);

}  // namespace perfbench
