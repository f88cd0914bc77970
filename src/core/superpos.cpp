#include "core/superpos.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/demand_sweep.hpp"

namespace edfkit {
namespace {

/// SuperPos(level): every task is tested exactly up to the deadline of
/// its level-th job and approximated from there on. Nothing is ever
/// revised: demand above an interval rejects.
struct FixedLevel {
  const TaskColumns& cols;
  Time level;
  double demand_ratio = 0.0;

  [[nodiscard]] Time border(std::size_t task) const {
    return row_approx_border(cols, task, level);
  }
  static bool revise(DemandSweep&, Time) { return false; }
  void compared(Time point, double demand) {
    demand_ratio = std::max(demand_ratio, demand / static_cast<double>(point));
  }
};

}  // namespace

SuperPosSweep superpos_sweep(const PreparedSet& ps, Time level) {
  if (level < 1) throw std::invalid_argument("superpos_test: level < 1");
  SuperPosSweep out;
  if (auto r = DemandSweep::precheck(ps)) {
    out.base = *r;
    if (r->infeasible()) out.demand_ratio = ps.tasks().utilization_double();
    return out;
  }
  FixedLevel policy{ps.columns(), level};
  DemandSweep sweep(ps);
  out.base = sweep.result(sweep.run(policy, DemandSweep::kNoBound));
  out.demand_ratio = policy.demand_ratio;
  // Drained: every change point passed; with U <= 1 the linear tail
  // never crosses the capacity line (Lemma 1). Any other stop is demand
  // above an interval, or not provably below it: the sufficient test
  // rejects, even where the demand was exact.
  if (!out.base.feasible()) {
    out.base.verdict = Verdict::Unknown;
    out.base.witness = -1;
  }
  return out;
}

FeasibilityResult superpos_test(const PreparedSet& ps, Time level) {
  return superpos_sweep(ps, level).base;
}

FeasibilityResult superpos_test(const TaskSet& ts, Time level) {
  return superpos_test(PreparedSet(ts), level);
}

}  // namespace edfkit
