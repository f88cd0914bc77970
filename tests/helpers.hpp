/// \file helpers.hpp
/// Shared helpers for the edfkit test suite.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "analysis/types.hpp"
#include "gen/scenario.hpp"
#include "model/task_set.hpp"
#include "util/random.hpp"

namespace edfkit::testing {

/// Terse task constructor for hand-written fixtures.
inline Task tk(Time c, Time d, Time t) {
  Task x;
  x.wcet = c;
  x.deadline = d;
  x.period = t;
  return x;
}

inline TaskSet set_of(std::initializer_list<Task> ts) {
  return TaskSet(std::vector<Task>(ts));
}

/// A deterministic family of small random task sets whose hyperperiods
/// are simulable (periods from a divisor-rich pool) — the workhorse of
/// the property suites.
inline std::vector<TaskSet> small_random_sets(int count, double utilization,
                                              std::uint64_t seed = 99) {
  Rng rng(seed);
  std::vector<TaskSet> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(draw_small_set(rng, utilization));
  }
  return out;
}

/// Mid-size random sets at paper-like parameters (not simulable, but all
/// analytical tests handle them).
inline std::vector<TaskSet> paper_random_sets(int count, double utilization,
                                              std::uint64_t seed = 7) {
  Rng rng(seed);
  std::vector<TaskSet> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(draw_fig8_set(rng, utilization));
  }
  return out;
}

/// The pool the golden digests are recorded over: seeded Fig. 8 sets
/// (U 0.90 ... 0.99) and small sets (U 0.50 ... 1.09).
inline std::vector<TaskSet> golden_pool() {
  std::vector<TaskSet> pool;
  Rng rng(20050318);
  for (int i = 0; i < 200; ++i) {
    pool.push_back(draw_fig8_set(rng, 0.90 + 0.01 * (i % 10)));
  }
  for (int i = 0; i < 600; ++i) {
    pool.push_back(draw_small_set(rng, 0.50 + 0.001 * i));
  }
  return pool;
}

/// 64-bit FNV-1a over the little-endian bytes of every folded value —
/// the golden digests that pin results bit for bit.
struct Digest {
  std::uint64_t h = 14695981039346656037ull;

  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void fold_time(Time t) { fold(static_cast<std::uint64_t>(t)); }
  void fold(const FeasibilityResult& r) {
    fold(static_cast<std::uint64_t>(r.verdict));
    fold(r.iterations);
    fold(r.revisions);
    fold_time(r.max_interval_tested);
    fold_time(r.witness);
    fold_time(r.final_level);
    fold(r.degraded ? 1 : 0);
    fold(r.cancelled ? 1 : 0);
  }
};

/// Iteration multiplier for the differential fuzz suites. The nightly
/// long-fuzz CI workflow sets EDFKIT_FUZZ_MULT=20 to run the same
/// fuzzers at 20x depth; interactive runs default to 1.
inline std::uint64_t fuzz_multiplier() {
  const char* env = std::getenv("EDFKIT_FUZZ_MULT");
  if (env == nullptr || *env == '\0') return 1;
  const long v = std::strtol(env, nullptr, 10);
  return v >= 1 ? static_cast<std::uint64_t>(v) : 1;
}

/// Drop a minimized-repro artifact (seed + config + failure context)
/// into $EDFKIT_FUZZ_ARTIFACT_DIR, when set — the nightly workflow
/// uploads that directory on failure. No-op otherwise.
inline void write_fuzz_artifact(const std::string& name,
                                const std::string& content) {
  const char* dir = std::getenv("EDFKIT_FUZZ_ARTIFACT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream out(std::string(dir) + "/" + name);
  out << content;
}

}  // namespace edfkit::testing
