#pragma once
// Per-call timing for the micro benchmarks: medians over rounds long enough
// for the clock, and interleaved rounds for the ratio gates.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/stopwatch.hpp"

namespace qcut::bench {

/// The number of calls that takes at least `window` seconds.
template <typename Call>
std::size_t calls_per_window(Call& call, double window) {
  std::size_t calls = 1;
  for (;;) {
    Stopwatch watch;
    for (std::size_t i = 0; i < calls; ++i) call();
    if (watch.elapsed_seconds() >= window) return calls;
    calls *= 2;
  }
}

template <typename Call>
double seconds_per_call(Call& call, std::size_t calls) {
  Stopwatch watch;
  for (std::size_t i = 0; i < calls; ++i) call();
  return watch.elapsed_seconds() / static_cast<double>(calls);
}

inline double median(std::vector<double> values) {
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

/// Median seconds per call over 7 rounds, each round long enough (>= 20 ms)
/// for the clock.
template <typename Call>
double median_seconds_per_call(Call&& call) {
  const std::size_t calls = calls_per_window(call, 0.02);
  std::vector<double> rounds;
  for (int r = 0; r < 7; ++r) rounds.push_back(seconds_per_call(call, calls));
  return median(rounds);
}

/// Median seconds per call of `a` and of `b` over 15 rounds that time one
/// window (>= 10 ms) of each in turn, so drift in the host's speed reaches
/// both sides alike.
template <typename CallA, typename CallB>
std::pair<double, double> interleaved_median_seconds(CallA&& a, CallB&& b) {
  const std::size_t calls_a = calls_per_window(a, 0.01);
  const std::size_t calls_b = calls_per_window(b, 0.01);
  std::vector<double> rounds_a;
  std::vector<double> rounds_b;
  for (int r = 0; r < 15; ++r) {
    rounds_a.push_back(seconds_per_call(a, calls_a));
    rounds_b.push_back(seconds_per_call(b, calls_b));
  }
  return {median(rounds_a), median(rounds_b)};
}

}  // namespace qcut::bench
