#include "core/demand_sweep.hpp"

namespace edfkit {

DemandSweep::DemandSweep(const PreparedSet& ps)
    : ps_(ps),
      cols_(ps.columns()),
      utils_(ps.task_utils()),
      approximated_(ps.size(), false),
      borders_(ps.size(), 0) {
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    list_.add(i, cols_.deadline[i]);
  }
}

std::optional<FeasibilityResult> DemandSweep::precheck(const PreparedSet& ps) {
  FeasibilityResult r;
  if (ps.empty()) {
    r.verdict = Verdict::Feasible;
  } else if (ps.utilization_exceeds_one()) {
    r.verdict = Verdict::Infeasible;
    r.iterations = 1;
  } else {
    return std::nullopt;
  }
  return r;
}

FeasibilityResult DemandSweep::result(Stop stop) const {
  FeasibilityResult r;
  r.iterations = iterations_;
  r.revisions = revisions_;
  r.max_interval_tested = max_interval_;
  r.degraded = degraded_;
  r.cancelled = stop == Stop::Cancelled;
  if (stop == Stop::Bound || stop == Stop::Drained) {
    r.verdict = Verdict::Feasible;
  } else if (stop == Stop::Overflow) {
    r.verdict = Verdict::Infeasible;
    r.witness = witness_;
  }
  return r;
}

void DemandSweep::withdraw(std::size_t pos) {
  revise_task(approx_[pos]);
  if (pos == 0) {
    approx_.pop_front();  // FIFO revision: cheaper than a general erase
  } else {
    approx_.erase(approx_.begin() + static_cast<std::ptrdiff_t>(pos));
  }
}

void DemandSweep::revise_task(std::size_t task) {
  acc_.revise(utils_[task], scaled_app(ps_.tasks()[task], frontier_));
  approximated_[task] = false;
  ++revisions_;
  const Time next = row_next_deadline_after(cols_, task, frontier_);
  if (!is_time_infinite(next)) list_.add(task, next);
}

void DemandSweep::approximate_top() {
  // The frontier sits on the task's own job deadline, where app == 0:
  // only the slope changes.
  const std::size_t task = list_.pop().task;
  acc_.approximate(utils_[task]);
  approximated_[task] = true;
  approx_.push_back(task);
  borders_[task] = frontier_;
}

}  // namespace edfkit
