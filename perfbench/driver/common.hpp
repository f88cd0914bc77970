/// \file common.hpp
/// Shared pieces of the benchmark driver: run configuration, the
/// metric report, percentile helpers, and the in-memory span tracer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (p in [0, 1]) of `v`; sorts `v` in place.
/// Empty input reads 0 ("no samples").
[[nodiscard]] inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  return v[std::min(v.size() - 1, static_cast<std::size_t>(rank + 0.5))];
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server_bin;  ///< admission_server binary (serve-* only)
  std::string workdir;     ///< scratch directory for data dirs and logs
};

/// Everything one run produces. `metrics` is what the final JSON line
/// prints; `counters` are the deterministic work counts (same seed =>
/// same values) the self-test compares across runs.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::map<std::string, std::uint64_t> counters;
  /// False when the load generator, not the program, fell behind.
  bool valid = true;
  std::string invalid_reason;
  std::vector<std::string> mismatches;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void mismatch(const std::string& what) {
    correct = false;
    if (mismatches.size() < 20) mismatches.push_back(what);
  }
};

/// One timed interval. Spans of one request share `request`; `parent`
/// is the id of the span that caused this one (0 = root).
struct Span {
  const char* name = "";
  double start_us = 0.0;  ///< relative to the tracer's origin
  double end_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::uint32_t tenant = 0;
};

/// Thread-safe span sink: each recording thread appends to its own
/// buffer (obtained once via buffer()), so recording takes no lock.
/// Spans stay in memory until write().
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  struct Buffer {
    std::vector<Span> spans;
  };

  /// A per-thread buffer; valid for the tracer's lifetime.
  Buffer* buffer() {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.emplace_back(new Buffer);
    return buffers_.back().get();
  }

  /// Callers choose span ids (a per-thread tag in the high bits and a
  /// sequence below), so threads share no counter.
  void record(Buffer* b, const char* name, Clock::time_point s,
              Clock::time_point e, std::uint64_t id, std::uint64_t parent,
              std::uint64_t request, std::uint32_t tenant) {
    if (!enabled_) return;
    b->spans.push_back({name, us_between(origin_, s), us_between(origin_, e),
                        id, parent, request, tenant});
  }

  [[nodiscard]] std::vector<Span> all() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (const auto& b : buffers_) {
      out.insert(out.end(), b->spans.begin(), b->spans.end());
    }
    return out;
  }

  /// One JSON object per line: name, start/end (µs from run start),
  /// id, parent, request, tenant.
  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    for (const Span& s : all()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                   "\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                   "\"tenant\":%u}\n",
                   s.name, s.start_us, s.end_us,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.tenant);
    }
    std::fclose(f);
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

int run_serve(const RunConfig& cfg, RunResult& out);
int run_offline(const RunConfig& cfg, RunResult& out);

/// Peak resident set (VmHWM) of `pid` in MiB; 0 when unreadable.
double vm_hwm_mb(long pid);

}  // namespace perfbench
