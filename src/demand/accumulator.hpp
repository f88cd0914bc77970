/// \file accumulator.hpp
/// Incremental approximated-demand accumulator under the demand sweep
/// (core/demand_sweep.hpp) of the dynamic-error, all-approximated and
/// superposition tests (paper Figs. 5 & 7, §3.4).
///
/// The algorithms walk test intervals in ascending order and maintain
///   dbf'  +=  C_tau  +  (I_act - I_old) * U_ready
/// where U_ready is the utilization sum of currently-approximated tasks.
/// Revising a task's approximation subtracts the Lemma-6 overestimation
/// app(I, tau).
///
/// Exactness strategy: the running value is kept as a
/// *certified interval* in 2^-62 fixed point — int128 floor/ceil bounds
/// that each operation widens by at most one unit. Comparisons against
/// the capacity line are therefore proofs whenever the interval clears
/// the line. If a comparison is ambiguous (width reached the line —
/// astronomically rare except at exact equality), the caller refreshes
/// the bounds from scratch and finally falls back to exact rational
/// arithmetic, which resolves equality for all realistic denominators.
/// Verdicts never rest on an uncertain comparison.
#pragma once

#include <vector>

#include "model/task_set.hpp"
#include "util/fixedpoint.hpp"
#include "util/rational.hpp"

namespace edfkit {

class DemandAccumulator {
 public:
  /// Advance the frontier by dt, accruing the linear demand of
  /// approximated tasks. \pre dt >= 0
  void advance(Time dt);

  /// Account the WCET of one job whose deadline is at the frontier.
  void add_job(Time wcet);

  /// Mark a task approximated from the current frontier on; `util` is
  /// its certified utilization (scaled_task_util), prepared once per
  /// task. The frontier must sit on a job deadline of the task (where
  /// app == 0), so no value correction is needed — only the slope
  /// changes.
  void approximate(const ScaledPair& util);

  /// Withdraw the approximation of a task at the frontier: subtract its
  /// overestimation `app` there (scaled_app) and stop accruing `util`.
  void revise(const ScaledPair& util, const ScaledPair& app);

  /// dbf' vs interval. Greater means "demand exceeds capacity" (proof);
  /// Less/Equal means it fits (proof); Unknown means the certified
  /// interval straddles the line — use compare_with_refresh.
  [[nodiscard]] Ordering compare_demand(Time interval) const noexcept;

  /// Three-stage comparison: incremental bounds, then a fresh recompute
  /// of the bounds from (ts, approximated), then exact rationals. Sets
  /// *degraded when even the rationals could not decide (the returned
  /// Greater is then conservative, which only costs extra revisions).
  /// \pre `interval` is the accumulator's current frontier, every job due
  /// at `interval` has been added, and `approximated` describes the state
  /// the incremental value models.
  [[nodiscard]] Ordering compare_with_refresh(
      const TaskSet& ts, const std::vector<bool>& approximated,
      Time interval, bool* degraded);

  /// Best-effort value for diagnostics.
  [[nodiscard]] double demand_estimate() const noexcept;

 private:
  // S-scaled certified bounds: dlo_ <= dbf' * S <= dhi_, and the same
  // for the ready utilization.
  Int128 dlo_ = 0;
  Int128 dhi_ = 0;
  Int128 ulo_ = 0;
  Int128 uhi_ = 0;
};

/// Certified S-scaled bounds on the utilization C/T of `t` ({0, 0} for
/// one-shot tasks).
[[nodiscard]] ScaledPair scaled_task_util(const Task& t) noexcept;

/// Certified S-scaled bounds on app(I, t) = ((I - D) mod T)/T * C
/// (Lemma 6). \pre I >= D
[[nodiscard]] ScaledPair scaled_app(const Task& t, Time interval) noexcept;

/// Fresh S-scaled bounds on dbf'(interval) from per-task state.
struct ScaledDemand {
  Int128 lo = 0;
  Int128 hi = 0;
};
[[nodiscard]] ScaledDemand recompute_demand_scaled(
    const TaskSet& ts, const std::vector<bool>& approximated, Time interval);

/// Exact rational dbf'(interval) (may come back inexact if the int128
/// rationals overflow — callers must check).
[[nodiscard]] Rational recompute_demand(const TaskSet& ts,
                                        const std::vector<bool>& approximated,
                                        Time interval);

}  // namespace edfkit
