#include "core/dynamic_test.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/demand_sweep.hpp"

namespace edfkit {
namespace {

/// Fig. 5: every task is tested exactly up to the deadline of its
/// level-th job. When the demand exceeds an interval, the level grows
/// until some approximated task's new border passes it, and every such
/// task's approximation is withdrawn.
struct LevelGrowth {
  const TaskColumns& cols;
  const DynamicTestOptions& opts;
  Time level;

  [[nodiscard]] Time border(std::size_t task) const {
    return row_approx_border(cols, task, level);
  }
  bool revise(DemandSweep& sweep, Time point) {
    const auto passes = [&](std::size_t task) { return border(task) > point; };
    // Bounded: borders grow without limit.
    do {
      level = std::max(level + 1, mul_saturating(level, opts.growth_factor));
      if (opts.max_level != 0 && level > opts.max_level) return false;
    } while (std::none_of(sweep.approximations().begin(),
                          sweep.approximations().end(), passes));
    sweep.withdraw_if(passes);
    return true;
  }
};

}  // namespace

FeasibilityResult dynamic_error_test(const PreparedSet& ps,
                                     const DynamicTestOptions& opts) {
  if (opts.initial_level < 1)
    throw std::invalid_argument("dynamic_error_test: initial_level < 1");
  if (opts.growth_factor < 1)
    throw std::invalid_argument("dynamic_error_test: growth_factor < 1");

  if (auto r = DemandSweep::precheck(ps)) return *r;
  LevelGrowth policy{ps.columns(), opts, opts.initial_level};
  DemandSweep sweep(ps);
  // Bound or drained: every change point passed, or the walk crossed the
  // feasibility bound. Rejected: the level cap's sufficient-mode reject.
  FeasibilityResult r = sweep.result(sweep.run(
      policy, opts.bound ? *opts.bound : ps.implicit_test_bound(), opts.stop));
  r.final_level = policy.level;
  return r;
}

FeasibilityResult dynamic_error_test(const TaskSet& ts,
                                     const DynamicTestOptions& opts) {
  return dynamic_error_test(PreparedSet(ts), opts);
}

}  // namespace edfkit
