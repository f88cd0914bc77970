/// \file task_view.hpp
/// The structure-of-arrays demand kernel shared by every hot demand
/// scan (ROADMAP: "make a hot path measurably faster").
///
/// A `Task` is ~80 bytes (half of it the name string), so walking a
/// `TaskSet` touches one cache line per task even though a demand scan
/// only reads three integers. `TaskColumns` flattens the parameters
/// every kernel actually reads — wcet, effective deadline, period, and
/// the double utilization — into contiguous arrays, so the inner loops
/// of processor_demand_test, superpos_test, qpa_test, and the online
/// admission structure stream dense data (the schedcat layout: flat
/// parameter arrays, branch-lean kernels).
///
/// `TaskView` is the mutable flavor for long-lived resident sets: a
/// slot free-list hands out stable handles while the rows stay densely
/// packed (swap-remove), so iteration never skips holes and the
/// canonical `TaskSet` is available zero-copy for the exact backends.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/task_set.hpp"
#include "util/math.hpp"

namespace edfkit {

/// Contiguous hot-parameter columns of a task list, in row order.
/// `deadline` stores the *effective* deadline D - J (what every demand
/// kernel compares against), not the raw D.
struct TaskColumns {
  std::vector<Time> wcet;
  std::vector<Time> deadline;
  std::vector<Time> period;
  std::vector<double> util;  ///< C/T as double (0 for one-shots)

  TaskColumns() = default;
  explicit TaskColumns(std::span<const Task> tasks) { assign(tasks); }
  explicit TaskColumns(const TaskSet& ts) { assign(ts.tasks()); }

  void assign(std::span<const Task> tasks);
  void push(const Task& t);
  /// O(1) removal: the last row moves into `row`.
  void swap_remove(std::size_t row);
  void clear();
  void reserve(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return wcet.size(); }
  [[nodiscard]] bool empty() const noexcept { return wcet.empty(); }
};

/// Per-row demand primitives, mirroring Task's helpers on flat data.
/// All take the columns by reference plus a row index so the compiler
/// keeps the four base pointers in registers across the scan.

/// dbf(I, row) = (floor((I - D)/T) + 1) * C for I >= D, else 0.
[[nodiscard]] inline Time row_dbf(const TaskColumns& c, std::size_t r,
                                  Time interval) noexcept {
  const Time d = c.deadline[r];
  if (interval < d) return 0;
  if (is_time_infinite(c.period[r])) return c.wcet[r];
  const Time jobs = floor_div(interval - d, c.period[r]) + 1;
  return mul_saturating(jobs, c.wcet[r]);
}

/// First job deadline strictly greater than I (Lemma 5).
[[nodiscard]] inline Time row_next_deadline_after(const TaskColumns& c,
                                                  std::size_t r,
                                                  Time i) noexcept {
  const Time d = c.deadline[r];
  if (i < d) return d;
  if (is_time_infinite(c.period[r])) return kTimeInfinity;
  const Time k = floor_div(i - d, c.period[r]) + 1;
  return add_saturating(mul_saturating(k, c.period[r]), d);
}

/// Deadline of job `k` (k = 0 is the first job): k*T + D.
[[nodiscard]] inline Time row_job_deadline(const TaskColumns& c,
                                           std::size_t r, Time k) noexcept {
  return add_saturating(mul_saturating(k, c.period[r]), c.deadline[r]);
}

/// The task's "Testboarder" at superposition level x: deadline of job x.
[[nodiscard]] inline Time row_approx_border(const TaskColumns& c,
                                            std::size_t r,
                                            Time level) noexcept {
  return row_job_deadline(c, r, level - 1);
}

/// Whole-set exact dbf at one interval — one dense pass (saturating).
[[nodiscard]] Time columns_dbf(const TaskColumns& c, Time interval) noexcept;

/// Largest absolute job deadline strictly below `x`, or -1 when none —
/// QPA's predecessor-deadline step, as one dense pass.
[[nodiscard]] Time columns_max_deadline_below(const TaskColumns& c,
                                              Time x) noexcept;

/// Mutable SoA container for resident task sets: stable slot handles
/// over densely packed rows. Freed slots are recycled (LIFO), so an
/// external index that can outlive a removal — e.g. the admission
/// store's tombstoned id index — must overwrite its copy of the slot
/// with kInvalidSlot instead of retaining it: a recycled slot aliases
/// a different task.
class TaskView {
 public:
  using Slot = std::uint32_t;
  static constexpr Slot kInvalidSlot = 0xffff'ffffu;

  /// Insert, reusing a free slot when available. \throws on invalid
  /// tasks (Task::validate).
  Slot add(const Task& t);
  /// Bulk-load convenience: one capacity reservation, and every task
  /// validates *before* any inserts, so a throw leaves the view
  /// untouched. Returns the slots in group order. (The admission
  /// store's add_group interleaves per-task bookkeeping and inserts
  /// row by row instead — this entry is for callers loading a view
  /// directly.)
  std::vector<Slot> add_batch(std::span<const Task> group);
  /// Withdraw a slot; the last row swaps into its place.
  /// \returns false for unknown/free slots.
  bool remove(Slot s);
  void clear();
  void reserve(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return aos_.size(); }
  [[nodiscard]] bool empty() const noexcept { return aos_.empty(); }
  [[nodiscard]] bool contains(Slot s) const noexcept {
    return s < slot_to_row_.size() && slot_to_row_[s] != kInvalidSlot;
  }

  /// Dense hot columns, rows [0, size()).
  [[nodiscard]] const TaskColumns& columns() const noexcept { return cols_; }
  /// The canonical task set, zero-copy (rows in dense order). Stays
  /// valid across add/remove, its exact utilization kept current.
  [[nodiscard]] const TaskSet& as_task_set() const noexcept { return aos_; }
  /// Dense task rows (full structs, for cold fields).
  [[nodiscard]] std::span<const Task> tasks() const noexcept {
    return aos_.tasks();
  }

  /// \pre contains(s)
  [[nodiscard]] std::size_t row_of(Slot s) const noexcept {
    return slot_to_row_[s];
  }
  /// \pre row < size()
  [[nodiscard]] Slot slot_of(std::size_t row) const noexcept {
    return row_to_slot_[row];
  }
  /// \pre contains(s). The reference is invalidated by add/remove.
  [[nodiscard]] const Task& operator[](Slot s) const noexcept {
    return aos_[slot_to_row_[s]];
  }

 private:
  TaskSet aos_;
  TaskColumns cols_;
  std::vector<std::uint32_t> slot_to_row_;  ///< kInvalidSlot == free
  std::vector<Slot> row_to_slot_;
  std::vector<Slot> free_;  ///< reusable slot ids
};

}  // namespace edfkit
