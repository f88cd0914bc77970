#include "analysis/qpa.hpp"

#include <algorithm>

#include "demand/task_view.hpp"

namespace edfkit {

FeasibilityResult qpa_test(const PreparedSet& ps,
                           const std::atomic<bool>* stop) {
  FeasibilityResult r;
  if (ps.empty()) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  if (ps.utilization_exceeds_one()) {
    r.verdict = Verdict::Infeasible;
    return r;
  }
  const Time bound = ps.default_test_bound();
  const Time dmin = ps.tasks().min_deadline();

  // Each loop step is two dense passes over the flat columns (one dbf
  // evaluation, one predecessor-deadline scan) instead of Task-struct
  // walks.
  const TaskColumns& cols = ps.columns();
  Time t = columns_max_deadline_below(cols, add_saturating(bound, 1));
  if (t < 0) {
    // No deadline inside the bound: nothing can overflow.
    r.verdict = Verdict::Feasible;
    return r;
  }
  r.max_interval_tested = t;
  while (true) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      r.verdict = Verdict::Unknown;
      r.cancelled = true;
      return r;
    }
    ++r.iterations;
    const Time h = columns_dbf(cols, t);
    if (h > t) {
      r.verdict = Verdict::Infeasible;
      r.witness = t;
      return r;
    }
    if (h <= dmin) break;
    t = (h < t) ? h : columns_max_deadline_below(cols, t);
    if (t < dmin) break;  // passed below every deadline
  }
  r.verdict = Verdict::Feasible;
  return r;
}

FeasibilityResult qpa_test(const TaskSet& ts, const std::atomic<bool>* stop) {
  return qpa_test(PreparedSet(ts), stop);
}

}  // namespace edfkit
