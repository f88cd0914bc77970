#include "core/superpos.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "demand/accumulator.hpp"
#include "demand/intervals.hpp"
#include "demand/task_view.hpp"

namespace edfkit {

SuperPosSweep superpos_sweep(const PreparedSet& ps, Time level) {
  if (level < 1) throw std::invalid_argument("superpos_test: level < 1");
  SuperPosSweep out;
  FeasibilityResult& r = out.base;
  const TaskSet& ts = ps.tasks();
  if (ts.empty()) {
    r.verdict = Verdict::Feasible;
    return out;
  }
  if (ps.utilization_exceeds_one()) {
    r.verdict = Verdict::Infeasible;
    r.iterations = 1;
    out.demand_ratio = ts.utilization_double();
    return out;
  }

  const TaskColumns& cols = ps.columns();
  const std::span<const ScaledPair> utils = ps.task_utils();
  TestList list;
  std::vector<bool> approximated(cols.size(), false);
  for (std::size_t i = 0; i < cols.size(); ++i) {
    list.add(i, cols.deadline[i]);
  }
  DemandAccumulator acc;
  Time iold = 0;

  // One testlist entry per iteration, exactly as in the paper's
  // pseudocode. Several tasks may share a test interval; the comparison
  // after the *last* entry of an interval sees the complete demand, and
  // earlier (partial-demand) failures are still true failures because
  // demand only grows within an interval. The per-job reads (wcet,
  // border, next deadline) come from the flat columns.
  while (!list.empty()) {
    const auto e = list.peek();
    const Time point = e.interval;
    acc.advance(point - iold);  // no-op for entries at the same interval
    acc.add_job(cols.wcet[e.task]);
    ++r.iterations;
    r.max_interval_tested = point;

    const Ordering cmp =
        acc.compare_with_refresh(ts, approximated, point, &r.degraded);
    out.demand_ratio = std::max(
        out.demand_ratio, acc.demand_estimate() / static_cast<double>(point));
    if (cmp == Ordering::Greater) {
      // Approximated demand exceeds capacity (or cannot be proven not
      // to): the sufficient test rejects.
      r.verdict = Verdict::Unknown;
      return out;
    }

    // Border = deadline of job #level; at or past it, approximate.
    // Below it, re-arm the task in place at its next deadline.
    if (point < row_approx_border(cols, e.task, level)) {
      list.rearm_top(cols.period[e.task]);
    } else {
      list.pop();
      acc.approximate(utils[e.task]);
      approximated[e.task] = true;
    }
    iold = point;
  }
  // All tasks approximated and every change point passed; with U <= 1 the
  // linear tail can never cross the capacity line (Lemma 1).
  r.verdict = Verdict::Feasible;
  return out;
}

SuperPosSweep superpos_sweep(const TaskSet& ts, Time level) {
  return superpos_sweep(PreparedSet(ts), level);
}

FeasibilityResult superpos_test(const PreparedSet& ps, Time level) {
  return superpos_sweep(ps, level).base;
}

FeasibilityResult superpos_test(const TaskSet& ts, Time level) {
  return superpos_sweep(ts, level).base;
}

}  // namespace edfkit
