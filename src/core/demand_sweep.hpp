/// \file demand_sweep.hpp
/// The one approximated-demand sweep under the dynamic-error test (paper
/// §4.1, Fig. 5), the all-approximated test (§4.2, Fig. 7) and
/// SuperPos(x) (§3.4). At each distinct test interval I it
///   1. advances the frontier to I and adds the job of every entry due
///      at I;
///   2. compares dbf'(I) with I, once every job due at I is in: the
///      accumulator's refresh recomputes dbf'(I) from the `approximated`
///      flags, and a comparison between tied jobs would count a job
///      there that is then added a second time;
///   3. while the demand exceeds I, lets a policy withdraw
///      approximations (Lemma 6), each adding its next job deadline
///      after I to the list (Lemma 5);
///   4. re-arms every entry due at I at its next job deadline while I
///      lies below the task's border, else pops and approximates it.
///
/// A policy provides
///   - `Time border(std::size_t task) const`: the job deadline from
///     which `task` is approximated (0: from its first tested one);
///   - `bool revise(DemandSweep&, Time point)`: withdraw at least one
///     approximation and return true, or return false (Stop::Rejected);
///   - optionally `void compared(Time point, double demand)`, called
///     after each comparison with the best-effort dbf'(point).
/// `revise` is only asked while something is approximated; with nothing
/// approximated the demand is the exact dbf, and the sweep stops on
/// Overflow.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "analysis/prepared.hpp"
#include "analysis/types.hpp"
#include "demand/accumulator.hpp"
#include "demand/intervals.hpp"
#include "demand/task_view.hpp"

namespace edfkit {

class DemandSweep {
 public:
  /// Why `run` returned.
  enum class Stop : std::uint8_t {
    Bound,      ///< the next test interval lies past the bound
    Drained,    ///< the test list is empty; every border is final
    Cancelled,  ///< the stop token was raised
    StepCap,    ///< the steps passed the step cap
    Overflow,   ///< nothing left to revise: exact dbf(witness) > witness
    Degraded,   ///< nothing left to revise, but the comparison degraded
    Rejected,   ///< the policy withdrew nothing while the demand exceeded
  };

  /// A bound no test interval exceeds: run(policy, kNoBound) drains.
  static constexpr Time kNoBound = std::numeric_limits<Time>::max();

  /// Every task enters the test list at its first job deadline. `ps`
  /// must outlive the sweep.
  explicit DemandSweep(const PreparedSet& ps);

  /// The verdict when there is nothing to sweep: Feasible for an empty
  /// set, Infeasible when U > 1 is provable; nullopt otherwise.
  [[nodiscard]] static std::optional<FeasibilityResult> precheck(
      const PreparedSet& ps);

  /// Walk test intervals up to `bound`, checking `stop` before each
  /// interval and `step_cap` after its jobs and before each revision.
  /// Bound, Drained and Cancelled leave the sweep resumable.
  template <class Policy>
  Stop run(Policy& policy, Time bound, const std::atomic<bool>* stop = nullptr,
           std::uint64_t step_cap = std::numeric_limits<std::uint64_t>::max());

  /// An exact test's result after a run stopped on `stop`: Feasible at
  /// the bound or drained, Infeasible with the witness on Overflow,
  /// Unknown otherwise (`cancelled` on Cancelled). `iterations` counts
  /// test-list entries, several per tied interval.
  [[nodiscard]] FeasibilityResult result(Stop stop) const;

  /// True until a run stops on StepCap, Overflow, Degraded or Rejected.
  [[nodiscard]] bool resumable() const noexcept {
    return last_ == Stop::Bound || last_ == Stop::Drained ||
           last_ == Stop::Cancelled;
  }
  /// Entries taken plus revisions: what `step_cap` counts.
  [[nodiscard]] std::uint64_t steps() const noexcept {
    return iterations_ + revisions_;
  }
  /// Per task, the job deadline at which it was last approximated (0
  /// before its first). Once drained, every border is the task's last
  /// verified job deadline — the feasibility certificate's borders.
  [[nodiscard]] const std::vector<Time>& borders() const noexcept {
    return borders_;
  }

  // ---- for policies, inside `revise`
  [[nodiscard]] const PreparedSet& prepared() const noexcept { return ps_; }
  /// The approximated tasks, oldest approximation first.
  [[nodiscard]] const auto& approximations() const noexcept { return approx_; }
  /// Withdraw the approximation at `pos` in approximations().
  void withdraw(std::size_t pos);
  /// Withdraw every approximation whose task satisfies `pred`.
  template <class Pred>
  void withdraw_if(Pred pred) {
    approx_.erase(std::remove_if(approx_.begin(), approx_.end(),
                                 [&](std::size_t task) {
                                   if (!pred(task)) return false;
                                   revise_task(task);
                                   return true;
                                 }),
                  approx_.end());
  }

 private:
  /// Revise `task`'s approximation at the frontier.
  void revise_task(std::size_t task);
  /// Pop the least entry and approximate its task from the frontier on.
  void approximate_top();

  const PreparedSet& ps_;
  const TaskColumns& cols_;
  const std::span<const ScaledPair> utils_;
  TestList list_;
  DemandAccumulator acc_;
  std::vector<bool> approximated_;
  std::deque<std::size_t> approx_;  // the paper's ApproxList
  std::vector<Time> borders_;
  Time frontier_ = 0;
  Time max_interval_ = 0;
  Time witness_ = -1;
  std::uint64_t iterations_ = 0;
  std::uint64_t revisions_ = 0;
  bool degraded_ = false;
  Stop last_ = Stop::Bound;
};

template <class Policy>
DemandSweep::Stop DemandSweep::run(Policy& policy, Time bound,
                                   const std::atomic<bool>* stop,
                                   std::uint64_t step_cap) {
  while (!list_.empty() && list_.peek().interval <= bound) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return last_ = Stop::Cancelled;
    }
    const Time point = list_.peek().interval;
    acc_.advance(point - frontier_);
    frontier_ = point;
    max_interval_ = point;
    iterations_ += list_.for_each_tied(
        [&](const TestList::Entry& e) { acc_.add_job(cols_.wcet[e.task]); });
    if (steps() > step_cap) return last_ = Stop::StepCap;

    while (true) {
      bool cmp_degraded = false;
      const Ordering cmp = acc_.compare_with_refresh(
          ps_.tasks(), approximated_, point, &cmp_degraded);
      degraded_ = degraded_ || cmp_degraded;
      if constexpr (requires { policy.compared(point, 0.0); }) {
        policy.compared(point, acc_.demand_estimate());
      }
      if (cmp != Ordering::Greater) break;
      if (approx_.empty()) {
        // With nothing approximated the demand is an exact integer sum,
        // so a degraded comparison here is defensive.
        if (cmp_degraded) return last_ = Stop::Degraded;
        witness_ = point;
        return last_ = Stop::Overflow;
      }
      if (steps() >= step_cap) return last_ = Stop::StepCap;
      if (!policy.revise(*this, point)) return last_ = Stop::Rejected;
    }

    // Revisions only add deadlines after `point`, so the entries due at
    // `point` are still the least ones.
    while (!list_.empty() && list_.peek().interval == point) {
      const std::size_t task = list_.peek().task;
      if (point < policy.border(task)) {
        list_.rearm_top(cols_.period[task]);
      } else {
        approximate_top();
      }
    }
  }
  return last_ = list_.empty() ? Stop::Drained : Stop::Bound;
}

}  // namespace edfkit
