#include "core/all_approx.hpp"

#include "demand/task_view.hpp"

namespace edfkit {

AllApproxSweep::AllApproxSweep(const PreparedSet& ps,
                               RevisionPolicy revision)
    : ps_(ps),
      revision_(revision),
      approximated_(ps.size(), false),
      borders_(ps.size(), 0) {
  const TaskColumns& cols = ps.columns();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    list_.add(i, cols.deadline[i]);
  }
}

std::size_t AllApproxSweep::take_revision(Time point) {
  std::size_t k = 0;  // position in the approximation list
  switch (revision_) {
    case RevisionPolicy::Fifo:
      break;
    case RevisionPolicy::Lifo:
      k = approx_list_.size() - 1;
      break;
    case RevisionPolicy::MaxError: {
      // The approximation with the largest current overestimation
      // app(point, tau) = frac((point-D)/T) * C — one dense sweep over
      // the flat columns.
      const TaskColumns& cols = ps_.columns();
      double best_err = -1.0;
      for (std::size_t j = 0; j < approx_list_.size(); ++j) {
        const std::size_t ci = approx_list_[j];
        double err = 0.0;
        if (!is_time_infinite(cols.period[ci])) {
          err = static_cast<double>(floor_mod(point - cols.deadline[ci],
                                              cols.period[ci])) *
                cols.util[ci];
        }
        if (err > best_err) {
          best_err = err;
          k = j;
        }
      }
      break;
    }
  }
  const std::size_t ti = approx_list_[k];
  approx_list_.erase(approx_list_.begin() + static_cast<std::ptrdiff_t>(k));
  return ti;
}

AllApproxSweep::Stop AllApproxSweep::run(Time bound,
                                         const std::atomic<bool>* stop,
                                         std::uint64_t step_cap) {
  const TaskSet& ts = ps_.tasks();
  const TaskColumns& cols = ps_.columns();
  const std::span<const ScaledPair> utils = ps_.task_utils();

  // One testlist entry per iteration (paper Fig. 7).
  while (!list_.empty() && list_.peek().interval <= bound) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return last_ = Stop::Cancelled;
    }
    if (steps() >= step_cap) return last_ = Stop::StepCap;
    const auto entry = list_.pop();
    const Time point = entry.interval;
    acc_.advance(point - iold_);
    acc_.add_job(cols.wcet[entry.task]);
    ++iterations_;
    max_interval_ = point;

    // Revise approximations one task at a time until the demand fits
    // or nothing is approximated (=> the value is the exact dbf).
    while (true) {
      bool cmp_degraded = false;
      const Ordering cmp = acc_.compare_with_refresh(ts, approximated_,
                                                     point, &cmp_degraded);
      degraded_ = degraded_ || cmp_degraded;
      if (cmp != Ordering::Greater) break;
      if (approx_list_.empty()) {
        // Defensive Degraded: with nothing approximated the demand is
        // an exact integer sum.
        if (cmp_degraded) return last_ = Stop::Degraded;
        witness_ = point;
        return last_ = Stop::Overflow;
      }
      if (steps() >= step_cap) return last_ = Stop::StepCap;
      const std::size_t ti = take_revision(point);
      acc_.revise(utils[ti], scaled_app(ts[ti], point));
      approximated_[ti] = false;
      ++revisions_;
      const Time nxt = row_next_deadline_after(cols, ti, point);
      if (!is_time_infinite(nxt)) list_.add(ti, nxt);
    }

    // The popped task re-enters approximation immediately: the frontier
    // sits on its own job deadline, where app == 0. Re-approximating a
    // revised task there raises its border.
    acc_.approximate(utils[entry.task]);
    approximated_[entry.task] = true;
    approx_list_.push_back(entry.task);
    borders_[entry.task] = point;
    iold_ = point;
  }
  return last_ = list_.empty() ? Stop::Drained : Stop::Bound;
}

FeasibilityResult all_approx_test(const PreparedSet& ps,
                                  const AllApproxOptions& opts) {
  FeasibilityResult r;
  if (ps.empty()) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  if (ps.utilization_exceeds_one()) {
    r.verdict = Verdict::Infeasible;
    r.iterations = 1;
    return r;
  }

  std::optional<AllApproxSweep> own;
  AllApproxSweep* sweep =
      opts.revision == RevisionPolicy::Fifo ? ps.claim_sweep() : nullptr;
  if (sweep == nullptr) sweep = &own.emplace(ps, opts.revision);
  const AllApproxSweep::Stop stop =
      sweep->run(opts.bound ? *opts.bound : ps.implicit_test_bound(),
                 opts.stop);

  r.iterations = sweep->iterations();
  r.revisions = sweep->revisions();
  r.max_interval_tested = sweep->max_interval_tested();
  r.degraded = sweep->degraded();
  switch (stop) {
    case AllApproxSweep::Stop::Bound:
    case AllApproxSweep::Stop::Drained:
      r.verdict = Verdict::Feasible;
      break;
    case AllApproxSweep::Stop::Overflow:
      r.verdict = Verdict::Infeasible;
      r.witness = sweep->witness();
      break;
    case AllApproxSweep::Stop::Cancelled:
      r.cancelled = true;
      break;
    case AllApproxSweep::Stop::StepCap:  // no cap here
    case AllApproxSweep::Stop::Degraded:
      break;
  }
  return r;
}

FeasibilityResult all_approx_test(const TaskSet& ts,
                                  const AllApproxOptions& opts) {
  return all_approx_test(PreparedSet(ts), opts);
}

}  // namespace edfkit
