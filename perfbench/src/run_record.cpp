#include "run_record.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <fstream>

namespace perfbench {

namespace {

/// Shortest round-trip decimal form of `value`; non-finite values become
/// null so the record stays valid JSON.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  // VmHWM is the high-water mark of this program's own address space.
  // ru_maxrss also keeps the peak of the image the process replaced at
  // exec, so a launcher bigger than the benchmark (a Python interpreter)
  // would set it.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoull(line.substr(6))) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuJiffies read_cpu_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuJiffies out;
  if (!(stat >> label) || label != "cpu") return out;
  // user nice system idle iowait irq softirq steal [guest guest_nice]:
  // guest time is already inside user, so the total stops at steal.
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(stat >> value)) return CpuJiffies{};
    out.total += value;
    if (field == 7) out.steal = value;
  }
  return out;
}

double steal_fraction(const CpuJiffies& before, const CpuJiffies& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

JsonObject& JsonObject::add(const std::string& key, double value) {
  return add_raw(key, json_number(value));
}
JsonObject& JsonObject::add(const std::string& key, const std::string& value) {
  return add_raw(key, json_string(value));
}
JsonObject& JsonObject::add(const std::string& key, const char* value) {
  return add_raw(key, json_string(value));
}
JsonObject& JsonObject::add(const std::string& key, bool value) {
  return add_raw(key, value ? "true" : "false");
}
JsonObject& JsonObject::add(const std::string& key, std::uint64_t value) {
  return add_raw(key, std::to_string(value));
}
JsonObject& JsonObject::add(const std::string& key, int value) {
  return add_raw(key, std::to_string(value));
}
JsonObject& JsonObject::add(const std::string& key, const JsonObject& value) {
  return add_raw(key, value.str());
}
JsonObject& JsonObject::add(const std::string& key, const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(values[i]);
  }
  return add_raw(key, out + "]");
}
JsonObject& JsonObject::add_raw(const std::string& key, std::string json) {
  fields_.emplace_back(key, std::move(json));
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

JsonObject fingerprint(const std::string& dispatched_isa, const std::string& best_isa,
                       bool simd_enabled, int pool_workers, int clients, std::uint64_t seed) {
  JsonObject out;
  out.add("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .add("cpu_model", cpu_model())
      .add("dispatched_isa", dispatched_isa)
      .add("best_isa", best_isa)
      .add("engine_simd", simd_enabled)
      .add("compiler", PERFBENCH_COMPILER)
      .add("build_type", PERFBENCH_BUILD_TYPE)
      .add("pool_workers", pool_workers)
      .add("clients", clients)
      .add("seed", seed);
  return out;
}

bool write_record(const std::string& path, const JsonObject& record) {
  std::ofstream out(path);
  if (!out) return false;
  out << record.str() << '\n';
  return out.good();
}

}  // namespace perfbench
