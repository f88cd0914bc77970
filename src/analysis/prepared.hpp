/// \file prepared.hpp
/// The per-set facts every uniprocessor test reads, derived once per
/// query instead of once per backend.
///
/// Devi's test, the feasibility bound and the approximation all come
/// out of the same few facts about a task set: its utilization class,
/// its test bounds, its flat demand columns and each task's certified
/// utilization C/T. A `PreparedSet` computes each of them on first use
/// and keeps it, so a Batch query over six backends derives them once.
/// Every test takes a `PreparedSet`; its `TaskSet` overload builds one
/// for the call, so both run the same body.
///
/// It also holds the query's resumable all-approximated sweep
/// (core/all_approx.hpp): the first all-approx run claims it, and the
/// feasibility certificate drains that sweep instead of repeating it
/// from scratch.
///
/// Nothing is cached on the `TaskSet` itself: a `PreparedSet` lives as
/// long as one query. The lazy members are unsynchronized — call
/// `prime()` before threads share one (the Portfolio and Batch policies
/// do, before they fork their backends).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "analysis/utilization.hpp"
#include "demand/task_view.hpp"
#include "model/task_set.hpp"
#include "util/fixedpoint.hpp"

namespace edfkit {

class AllApproxSweep;  // core/all_approx.hpp

class PreparedSet {
 public:
  /// `ts` must outlive the prepared set.
  explicit PreparedSet(const TaskSet& ts) noexcept;
  ~PreparedSet();
  PreparedSet(const PreparedSet&) = delete;
  PreparedSet& operator=(const PreparedSet&) = delete;

  [[nodiscard]] const TaskSet& tasks() const noexcept { return ts_; }
  [[nodiscard]] std::size_t size() const noexcept { return ts_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ts_.empty(); }

  /// classify_utilization(tasks()).
  [[nodiscard]] UtilizationClass utilization_class() const;
  /// True iff U > 1 is provable (the only sound basis for Infeasible).
  [[nodiscard]] bool utilization_exceeds_one() const {
    return utilization_class() == UtilizationClass::AboveOne;
  }
  /// default_test_bound(tasks()), without the busy period.
  [[nodiscard]] Time default_test_bound() const;
  /// implicit_test_bound(tasks()): max(D_max, default_test_bound()).
  [[nodiscard]] Time implicit_test_bound() const;
  /// The flat demand columns of tasks(), in task order.
  [[nodiscard]] const TaskColumns& columns() const;
  /// Per task, the certified S-scaled utilization scaled_task_util(t)
  /// that DemandAccumulator::approximate/revise take.
  [[nodiscard]] std::span<const ScaledPair> task_utils() const;
  /// tasks().by_deadline(): task indices by non-decreasing deadline.
  [[nodiscard]] const std::vector<std::size_t>& by_deadline() const;

  /// Compute every lazy fact now.
  void prime() const;

  /// The query's all-approx sweep slot: a fresh sweep for the first
  /// caller (safe to race), nullptr for every later one.
  [[nodiscard]] AllApproxSweep* claim_sweep() const;
  /// The claimed sweep when it can still be resumed (paused at its
  /// bound, cancelled, or drained), else nullptr. \pre no thread is
  /// running the claimed sweep.
  [[nodiscard]] AllApproxSweep* resumable_sweep() const;

 private:
  const TaskSet& ts_;
  mutable std::optional<UtilizationClass> class_;
  mutable std::optional<Time> default_bound_;
  mutable std::optional<Time> implicit_bound_;
  mutable std::optional<TaskColumns> columns_;
  mutable std::optional<std::vector<ScaledPair>> utils_;
  mutable std::optional<std::vector<std::size_t>> by_deadline_;
  mutable std::atomic<bool> sweep_claimed_{false};
  mutable std::unique_ptr<AllApproxSweep> sweep_;
};

}  // namespace edfkit
