#include "analysis/processor_demand.hpp"

#include <algorithm>

#include "analysis/bounds.hpp"
#include "demand/intervals.hpp"
#include "demand/task_view.hpp"

namespace edfkit {

FeasibilityResult processor_demand_test(const PreparedSet& ps,
                                        const ProcessorDemandOptions& opts) {
  FeasibilityResult r;
  if (ps.empty()) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  if (ps.utilization_exceeds_one()) {
    r.verdict = Verdict::Infeasible;
    return r;
  }
  // The busy-period bound is opt-in, so it is not a prepared fact.
  const Time bound = opts.bound ? *opts.bound
                     : opts.use_busy_period
                         ? default_test_bound(ps.tasks(), true)
                         : ps.default_test_bound();

  // Walk all job deadlines <= bound in ascending order, accumulating the
  // demand incrementally: every popped (task, deadline) adds one job's C.
  // The heap carries row indices into the flat columns so the inner loop
  // reads dense wcet/deadline/period arrays, not one Task struct per job.
  const TaskColumns& cols = ps.columns();
  TestList list;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const Time d0 = cols.deadline[i];
    if (d0 <= bound) list.add(i, d0);
  }
  Time demand = 0;
  while (!list.empty()) {
    if (opts.stop != nullptr && opts.stop->load(std::memory_order_relaxed)) {
      r.verdict = Verdict::Unknown;
      r.cancelled = true;
      return r;
    }
    const Time point = list.peek().interval;
    // Drain every job deadline at this point, re-arming each task at
    // its next one in place.
    while (!list.empty() && list.peek().interval == point) {
      const std::size_t task = list.peek().task;
      demand = add_saturating(demand, cols.wcet[task]);
      list.rearm_top(cols.period[task], bound);
    }
    ++r.iterations;
    r.max_interval_tested = point;
    if (demand > point) {
      r.verdict = Verdict::Infeasible;
      r.witness = point;
      return r;
    }
    if (opts.max_iterations != 0 && r.iterations >= opts.max_iterations) {
      r.verdict = Verdict::Unknown;
      return r;
    }
  }
  r.verdict = Verdict::Feasible;
  return r;
}

FeasibilityResult processor_demand_test(const TaskSet& ts,
                                        const ProcessorDemandOptions& opts) {
  return processor_demand_test(PreparedSet(ts), opts);
}

}  // namespace edfkit
