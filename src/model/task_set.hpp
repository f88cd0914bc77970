/// \file task_set.hpp
/// A task set Gamma = {tau_1 .. tau_n} and the aggregate quantities
/// (exact utilization, max deadline, hyperperiod) every test reads.
/// Const member functions are safe to call from several threads at once.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "model/task.hpp"
#include "util/rational.hpp"

namespace edfkit {

class TaskSet {
 public:
  TaskSet() = default;
  explicit TaskSet(std::vector<Task> tasks);
  // Copies and moves leave the utilization sum behind: the mutex cannot
  // be copied, and the next utilization() call sums again.
  TaskSet(const TaskSet& o) : tasks_(o.tasks_) {}
  TaskSet(TaskSet&& o) noexcept : tasks_(std::move(o.tasks_)) { o.changed(); }
  TaskSet& operator=(const TaskSet& o) {
    tasks_ = o.tasks_;
    changed();
    return *this;
  }
  TaskSet& operator=(TaskSet&& o) noexcept {
    tasks_ = std::move(o.tasks_);
    changed();
    o.changed();
    return *this;
  }

  /// Append one task. \throws on invalid task.
  void add(Task t);

  /// Remove the task at index `i` by swapping the last task into its
  /// place (does not preserve order). The online containers
  /// (demand/task_view.hpp) use this to keep the set dense.
  /// \pre i < size()
  void swap_remove(std::size_t i);

  /// Reserve capacity for `n` tasks (bulk loads / online growth).
  void reserve(std::size_t n) { tasks_.reserve(n); }

  [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }
  [[nodiscard]] bool empty() const noexcept { return tasks_.empty(); }
  [[nodiscard]] const Task& operator[](std::size_t i) const {
    return tasks_[i];
  }
  [[nodiscard]] std::span<const Task> tasks() const noexcept {
    return tasks_;
  }
  [[nodiscard]] auto begin() const noexcept { return tasks_.begin(); }
  [[nodiscard]] auto end() const noexcept { return tasks_.end(); }

  /// Exact total utilization Sigma C_i/T_i, summed on the first call
  /// after a change: an online add or remove pays nothing for it.
  [[nodiscard]] const Rational& utilization() const;
  [[nodiscard]] double utilization_double() const;

  /// Sigma C_i.
  [[nodiscard]] Time total_wcet() const;

  /// max_i D_i (effective deadlines). 0 for the empty set.
  [[nodiscard]] Time max_deadline() const;
  /// min_i D_i (effective deadlines). kTimeInfinity for the empty set.
  [[nodiscard]] Time min_deadline() const;
  /// max_i T_i and min_i T_i.
  [[nodiscard]] Time max_period() const;
  [[nodiscard]] Time min_period() const;

  /// lcm of periods, saturating at kTimeInfinity.
  [[nodiscard]] Time hyperperiod() const;

  /// True iff every task has D_i <= T_i (constrained deadlines). Several
  /// published bounds are only valid under this restriction.
  [[nodiscard]] bool constrained_deadlines() const;

  /// Indices sorted by non-decreasing effective deadline, computed on
  /// each call (a query reads it once through PreparedSet::by_deadline).
  [[nodiscard]] std::vector<std::size_t> by_deadline() const;

  /// Multiply all C, D, T, J by `factor` (model refinement to finer time
  /// granularity). Saturating; \pre factor > 0.
  [[nodiscard]] TaskSet scaled(Time factor) const;

  /// Validate every task and the set as a whole.
  void validate() const;

  /// Multi-line human-readable listing.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] bool operator==(const TaskSet& o) const noexcept {
    return tasks_ == o.tasks_;
  }

 private:
  /// The tasks changed: the next utilization() sums them again.
  void changed() noexcept {
    util_ready_.store(false, std::memory_order_relaxed);
  }

  std::vector<Task> tasks_;
  mutable std::mutex util_mu_;  // guards filling util_
  mutable std::atomic<bool> util_ready_{false};
  mutable Rational util_;
};

}  // namespace edfkit
