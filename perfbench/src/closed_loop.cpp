#include "closed_loop.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>

#include "run_record.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Longest a finished job can wait to be observed (see closed_loop.hpp).
constexpr std::chrono::microseconds kPoll{100};

namespace {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

LoopResult run_closed_loop(qcut::service::CutService& service, const RequestFn& make_request,
                           const CheckFn& check, const LoopOptions& options) {
  struct Outstanding {
    std::uint64_t index = 0;
    Clock::time_point submitted;
    std::future<qcut::cutting::CutResponse> future;
  };

  LoopResult result;
  const int segments = std::max(1, options.segments);
  result.segments.resize(static_cast<std::size_t>(segments));
  result.submit_s.reserve(options.jobs);

  const std::uint64_t end = options.first_index + options.jobs;
  std::uint64_t next = options.first_index;
  std::uint64_t completed = 0;
  std::size_t segment = 0;
  const auto segment_end = [&](std::size_t s) {
    return (static_cast<std::uint64_t>(s) + 1) * options.jobs /
           static_cast<std::uint64_t>(segments);
  };

  const Clock::time_point start = Clock::now();
  const CpuJiffies jiffies_start = read_cpu_jiffies();
  Clock::time_point segment_start = start;
  Clock::time_point last_completion = start;
  double segment_cpu = process_cpu_seconds();
  CpuJiffies segment_jiffies = jiffies_start;

  const auto record_completion = [&](double latency_s, bool ok, Clock::time_point at) {
    ++result.attempted;
    if (!ok) ++result.failed;
    result.segments[segment].latencies_s.push_back(latency_s);
    ++result.segments[segment].jobs;
    ++completed;
    while (segment < result.segments.size() && completed >= segment_end(segment)) {
      const double cpu_now = process_cpu_seconds();
      const CpuJiffies jiffies_now = read_cpu_jiffies();
      result.segments[segment].wall_s = seconds_between(segment_start, at);
      result.segments[segment].cpu_s = cpu_now - segment_cpu;
      result.segments[segment].steal_frac = steal_fraction(segment_jiffies, jiffies_now);
      segment_start = at;
      segment_cpu = cpu_now;
      segment_jiffies = jiffies_now;
      if (segment + 1 == result.segments.size()) break;
      ++segment;
    }
  };

  std::vector<Outstanding> live;
  live.reserve(static_cast<std::size_t>(options.clients));
  // Submits the next request of a client whose previous one completed. A
  // request refused at submit completes at once, failed, and the client
  // moves on to its next request.
  const auto submit_next = [&] {
    if (options.max_seconds > 0.0 && next < end &&
        seconds_between(start, Clock::now()) >= options.max_seconds) {
      result.capped = true;
      next = end;
    }
    while (next < end) {
      const std::uint64_t index = next++;
      qcut::cutting::CutRequest request = make_request(index);
      const Clock::time_point submitted = Clock::now();
      try {
        std::future<qcut::cutting::CutResponse> future = service.submit(std::move(request));
        result.submit_s.push_back(seconds_between(submitted, Clock::now()));
        live.push_back(Outstanding{index, submitted, std::move(future)});
        return;
      } catch (...) {
        record_completion(std::numeric_limits<double>::infinity(), false, Clock::now());
      }
    }
  };

  for (int c = 0; c < options.clients; ++c) submit_next();
  while (!live.empty()) {
    live.front().future.wait_for(kPoll);
    for (std::size_t i = 0; i < live.size();) {
      if (live[i].future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++i;
        continue;
      }
      const Clock::time_point observed = Clock::now();
      double latency_s = seconds_between(live[i].submitted, observed);
      bool ok = false;
      try {
        const qcut::cutting::CutResponse response = live[i].future.get();
        ok = check(live[i].index, response);
      } catch (...) {
        latency_s = std::numeric_limits<double>::infinity();
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      record_completion(latency_s, ok, observed);
      last_completion = observed;
      submit_next();  // appended at the back: live.front() stays the oldest
    }
  }
  // A capped run leaves its last segment partly filled; close it at the
  // last completion.
  Segment& open_segment = result.segments[segment];
  if (open_segment.jobs > 0 && open_segment.wall_s == 0.0) {
    open_segment.wall_s = seconds_between(segment_start, last_completion);
    open_segment.cpu_s = process_cpu_seconds() - segment_cpu;
    open_segment.steal_frac = steal_fraction(segment_jiffies, read_cpu_jiffies());
  }

  result.wall_s = seconds_between(start, Clock::now());
  result.steal_frac = steal_fraction(jiffies_start, read_cpu_jiffies());
  return result;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double position = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  if (fraction == 0.0 || samples[lower] == samples[upper]) return samples[lower];
  return samples[lower] + (samples[upper] - samples[lower]) * fraction;
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

}  // namespace perfbench
