/// \file intervals.hpp
/// Test-interval plumbing: the ascending "testlist" of the new algorithms
/// and a merged iterator over all absolute job deadlines of a task set
/// (the classic processor-demand test's interval stream).
#pragma once

#include <cstddef>
#include <vector>

#include "model/task_set.hpp"
#include "util/math.hpp"

namespace edfkit {

/// The paper's `testlist`: a binary min-heap of (interval, task index)
/// pairs over one vector, popped in strict (interval, task) order — ties
/// go in task-index order, so the pop sequence is fixed by the entries
/// alone, whatever order they were added in.
///
/// Every sweep pops a task's job deadline and usually re-arms the same
/// task at its next one. `replace_top` (and `rearm_top` on it) does that
/// in one sift-down where `pop` + `add` would pay a sift-down and a
/// sift-up.
class TestList {
 public:
  struct Entry {
    Time interval;
    std::size_t task;
    /// True when `*this` pops after `o`.
    [[nodiscard]] bool operator>(const Entry& o) const noexcept {
      if (interval != o.interval) return interval > o.interval;
      return task > o.task;
    }
  };

  void add(std::size_t task, Time interval) {
    heap_.push_back(Entry{interval, task});
    sift_up(heap_.size() - 1);
  }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  /// The entry `pop` would return. \pre !empty()
  [[nodiscard]] const Entry& peek() const { return heap_.front(); }
  /// Remove and return the least entry. \pre !empty()
  Entry pop() {
    const Entry top = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    return top;
  }
  /// Same effect as `pop()` followed by `add(task, interval)`, in one
  /// sift-down. \pre !empty()
  void replace_top(std::size_t task, Time interval) {
    sift_down(Entry{interval, task});
  }
  /// Re-arms the least entry at its task's next job deadline, or pops
  /// it when that lies past `bound` or saturates (one-shot tasks).
  /// \pre !empty() and the least entry is a job deadline of its task,
  /// whose period is `period`: the next deadline is then interval +
  /// period, Lemma 5's NextInt without its division.
  void rearm_top(Time period, Time bound = kTimeInfinity) {
    const Entry& top = heap_.front();
    const Time next = add_saturating(top.interval, period);
    if (next <= bound && !is_time_infinite(next)) {
      replace_top(top.task, next);
    } else {
      pop();
    }
  }

 private:
  /// Moves the entry at `hole` up to its place, shifting parents down
  /// into the hole instead of swapping.
  void sift_up(std::size_t hole) {
    const Entry e = heap_[hole];
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!(heap_[parent] > e)) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = e;
  }
  /// Places `e` at the root's place, shifting the lesser child up into
  /// the hole until `e` is no greater than both children.
  void sift_down(const Entry e) {
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n && heap_[child] > heap_[child + 1]) ++child;
      if (!(e > heap_[child])) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = e;
  }

  std::vector<Entry> heap_;
};

/// Ascending stream of *distinct* absolute job deadlines of a task set in
/// (0, bound]. Memory O(n); next() is O(log n).
class DeadlineStream {
 public:
  DeadlineStream(const TaskSet& ts, Time bound);

  /// True if another distinct deadline <= bound exists.
  [[nodiscard]] bool has_next() const noexcept { return !list_.empty(); }

  /// Pop the next distinct deadline. \pre has_next()
  [[nodiscard]] Time next();

 private:
  const TaskSet& ts_;
  Time bound_;
  TestList list_;
};

}  // namespace edfkit
