#include "analysis/extensions.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/utilization.hpp"
#include "demand/dbf.hpp"
#include "demand/intervals.hpp"

namespace edfkit {

TaskSet with_context_switch_cost(const TaskSet& ts, Time switch_cost) {
  if (switch_cost < 0)
    throw std::invalid_argument("with_context_switch_cost: negative cost");
  TaskSet out;
  for (Task t : ts) {
    t.wcet = add_saturating(t.wcet, mul_saturating(2, switch_cost));
    out.add(std::move(t));
  }
  return out;
}

TaskSet with_self_suspension(const TaskSet& ts,
                             std::span<const Time> suspension) {
  if (suspension.size() != ts.size())
    throw std::invalid_argument("with_self_suspension: size mismatch");
  TaskSet out;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    Task t = ts[i];
    if (suspension[i] < 0)
      throw std::invalid_argument("with_self_suspension: negative term");
    t.jitter = add_saturating(t.jitter, suspension[i]);
    if (t.jitter >= t.deadline) {
      throw std::invalid_argument(
          "with_self_suspension: suspension consumes the whole deadline of " +
          t.to_string());
    }
    out.add(std::move(t));
  }
  return out;
}

FeasibilityResult srp_blocking_test(const TaskSet& ts,
                                    std::span<const Time> critical) {
  if (critical.size() != ts.size())
    throw std::invalid_argument("srp_blocking_test: size mismatch");
  for (const Time c : critical) {
    if (c < 0) throw std::invalid_argument("srp_blocking_test: negative cs");
  }
  FeasibilityResult r;
  if (ts.empty()) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  if (utilization_exceeds_one(ts)) {
    r.verdict = Verdict::Infeasible;
    return r;
  }

  // B(I) is a non-increasing step function of I: precompute the tasks
  // sorted by deadline so the max over {D_j > I} can be maintained as a
  // suffix maximum while I sweeps upward.
  const auto& order = ts.by_deadline();
  const std::size_t n = order.size();
  std::vector<Time> suffix_max(n + 1, 0);
  for (std::size_t k = n; k-- > 0;) {
    suffix_max[k] =
        std::max(suffix_max[k + 1], critical[order[k]]);
  }
  auto blocking_at = [&](Time interval) {
    // First k with D_{order[k]} > interval (deadlines ascending).
    std::size_t lo = 0, hi = n;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (ts[order[mid]].effective_deadline() > interval) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return suffix_max[lo];
  };

  // Test bound. The George envelope argument extends verbatim to a
  // constant blocking term: any interval with dbf(I) + B(I) > I has
  // dbf(I) + Bmax > I, hence I < (Sigma(1-D/T)C + Bmax)/(1-U). That
  // extended numerator is exactly George's bound of the set augmented
  // with a virtual one-shot task of WCET Bmax (one-shots contribute C to
  // the numerator and 0 to U). The hyperperiod bound also remains valid:
  // B is non-increasing, so the H-periodicity argument carries the
  // blocked criterion past lcm(T) + Dmax.
  const Time bmax = suffix_max[0];
  Time bound;
  if (bmax == 0) {
    bound = default_test_bound(ts);
  } else {
    TaskSet augmented = ts;
    Task virtual_blocker;
    virtual_blocker.wcet = bmax;
    virtual_blocker.deadline = 1;
    virtual_blocker.period = kTimeInfinity;
    augmented.add(std::move(virtual_blocker));
    const auto ext = george_bound(augmented);
    const Time hyper = hyperperiod_bound(ts);
    bound = ext ? std::min(*ext, hyper) : hyper;
    if (is_time_infinite(bound)) {
      r.verdict = Verdict::Unknown;  // no certifiable bound (U ~ 1 and
      return r;                      // unbounded hyperperiod)
    }
  }
  TestList list;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Time d0 = ts[i].effective_deadline();
    if (d0 <= bound) list.add(i, d0);
  }
  Time demand = 0;
  while (!list.empty()) {
    const Time point = list.peek().interval;
    while (!list.empty() && list.peek().interval == point) {
      const std::size_t task = list.peek().task;
      demand = add_saturating(demand, ts[task].wcet);
      list.rearm_top(ts[task].period, bound);
    }
    ++r.iterations;
    r.max_interval_tested = point;
    if (add_saturating(demand, blocking_at(point)) > point) {
      r.verdict = Verdict::Infeasible;
      r.witness = point;
      return r;
    }
  }
  r.verdict = Verdict::Feasible;
  return r;
}

}  // namespace edfkit
