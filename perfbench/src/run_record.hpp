#pragma once
// Process measurements (CPU time, peak RSS, host steal) and the run record:
// a JSON file per run holding the machine/build fingerprint, the settings
// and every figure the run printed, so a noisy run can be explained later.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Process user + system CPU seconds (getrusage RUSAGE_SELF).
[[nodiscard]] double process_cpu_seconds();

/// Peak resident set size of the program so far, MiB (VmHWM).
[[nodiscard]] double peak_rss_mib();

/// Aggregate CPU jiffies from /proc/stat; zeros where it is unreadable.
struct CpuJiffies {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuJiffies read_cpu_jiffies();

/// Share of all CPU time between two readings that the hypervisor stole.
/// A diagnostic for noisy runs, never a benchmark metric.
[[nodiscard]] double steal_fraction(const CpuJiffies& before, const CpuJiffies& after);

/// A flat-or-nested JSON object built in insertion order.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double value);
  JsonObject& add(const std::string& key, const std::string& value);
  JsonObject& add(const std::string& key, const char* value);
  JsonObject& add(const std::string& key, bool value);
  JsonObject& add(const std::string& key, std::uint64_t value);
  JsonObject& add(const std::string& key, int value);
  JsonObject& add(const std::string& key, const JsonObject& value);
  JsonObject& add(const std::string& key, const std::vector<double>& values);
  JsonObject& add_raw(const std::string& key, std::string json);

  [[nodiscard]] std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Machine and build fingerprint of the record.
[[nodiscard]] JsonObject fingerprint(const std::string& dispatched_isa,
                                     const std::string& best_isa, bool simd_enabled,
                                     int pool_workers, int clients, std::uint64_t seed);

/// Writes `record` to `path`. Returns false when the file cannot be
/// written.
bool write_record(const std::string& path, const JsonObject& record);

}  // namespace perfbench
