/// \file types.hpp
/// Common result/option types for every feasibility test in edfkit.
#pragma once

#include <cstdint>
#include <string>

#include "util/math.hpp"

namespace edfkit {

/// Outcome of a feasibility test.
enum class Verdict : std::uint8_t {
  Feasible,    ///< Provably schedulable under preemptive EDF.
  Infeasible,  ///< Provably unschedulable (a demand overflow exists).
  Unknown,     ///< Test gave up (sufficient test failed to accept, or a
               ///< resource limit such as a level cap was hit).
};

[[nodiscard]] const char* to_string(Verdict v) noexcept;

/// Per-run instrumentation + verdict. `iterations` counts test intervals
/// at which a demand/capacity comparison was made (the paper's metric,
/// §5); `revisions` counts per-task approximation withdrawals (inner-loop
/// work of the new tests). `effort()` is what the figures plot.
struct FeasibilityResult {
  Verdict verdict = Verdict::Unknown;
  std::uint64_t iterations = 0;
  std::uint64_t revisions = 0;
  /// Largest interval examined (diagnostic).
  Time max_interval_tested = 0;
  /// For Infeasible: an interval I with dbf(I) > I. -1 otherwise.
  Time witness = -1;
  /// For the dynamic test: the final superposition level reached.
  Time final_level = 0;
  /// Set when exact rational arithmetic degraded and a conservative
  /// fallback path ran (verdicts remain sound: an undecided comparison
  /// counts as demand above capacity).
  bool degraded = false;
  /// Set when the test observed a cooperative stop token and returned
  /// early (verdict is then Unknown) — portfolio losers report this.
  bool cancelled = false;

  [[nodiscard]] std::uint64_t effort() const noexcept {
    return iterations + revisions;
  }
  [[nodiscard]] bool feasible() const noexcept {
    return verdict == Verdict::Feasible;
  }
  [[nodiscard]] bool infeasible() const noexcept {
    return verdict == Verdict::Infeasible;
  }

  [[nodiscard]] std::string to_string() const;
};

/// Helpers for composing results.
[[nodiscard]] FeasibilityResult make_verdict(Verdict v) noexcept;

}  // namespace edfkit
