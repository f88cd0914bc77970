/// \file superpos.hpp
/// The superposition approximation test SuperPos(x) (paper §3.4,
/// Defs. 4-6, from Albers & Slomka 2004 [1]).
///
/// Each task is evaluated exactly for its first x jobs and approximated
/// by its linear demand envelope afterwards. The test walks all exact job
/// deadlines in ascending order, maintaining the approximated demand
/// incrementally, and accepts iff dbf'(I) <= I at every change point
/// (which, with U <= 1, covers all intervals; Lemmas 1/3/4).
///
/// SuperPos(1) is provably equivalent to Devi's test (Lemma 2) — the
/// cross-validation suite asserts this on random workloads. SuperPos(k)
/// is Chakraborty's epsilon-test at epsilon = 1/k, and
/// `chakraborty_test` runs this same sweep.
#pragma once

#include "analysis/prepared.hpp"
#include "analysis/types.hpp"
#include "model/task_set.hpp"

namespace edfkit {

/// One SuperPos(level) sweep: the verdict and the largest dbf'(I)/I met
/// at a tested point (best effort, from the accumulator's upper bound;
/// U on the U > 1 precheck). `iterations` counts test-list entries.
struct SuperPosSweep {
  FeasibilityResult base;
  double demand_ratio = 0.0;
};

/// \pre level >= 1
[[nodiscard]] SuperPosSweep superpos_sweep(const PreparedSet& ps, Time level);
[[nodiscard]] SuperPosSweep superpos_sweep(const TaskSet& ts, Time level);

/// Run SuperPos(level). Sufficient: Feasible on acceptance, Infeasible
/// only via the exact U > 1 precheck, Unknown on rejection.
/// \pre level >= 1
[[nodiscard]] FeasibilityResult superpos_test(const PreparedSet& ps,
                                              Time level);
[[nodiscard]] FeasibilityResult superpos_test(const TaskSet& ts, Time level);

}  // namespace edfkit
