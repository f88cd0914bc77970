#include "analysis/utilization.hpp"

#include "analysis/prepared.hpp"

namespace edfkit {
namespace {

constexpr Int128 kScale = kUtilizationScale;

}  // namespace

ScaledUtilization scaled_utilization_bounds(const TaskSet& ts) {
  // With C, T < 2^62 the per-task product C * kScale stays inside int128.
  ScaledUtilization s;
  for (const Task& t : ts) {
    if (is_time_infinite(t.period)) continue;  // one-shot: U contribution 0
    const Int128 num = static_cast<Int128>(t.wcet) * kScale;
    const Int128 den = static_cast<Int128>(t.period);
    const Int128 q = num / den;
    const Int128 r = num % den;
    s.lower += q;
    s.upper += q + (r != 0 ? 1 : 0);
  }
  return s;
}

UtilizationClass classify_utilization(const TaskSet& ts) {
  // Exact rational fast path.
  const Ordering c = ts.utilization().compare(Time{1});
  switch (c) {
    case Ordering::Less: return UtilizationClass::BelowOne;
    case Ordering::Equal: return UtilizationClass::ExactlyOne;
    case Ordering::Greater: return UtilizationClass::AboveOne;
    case Ordering::Unknown: break;  // rationals overflowed; certify below
  }
  const ScaledUtilization s = scaled_utilization_bounds(ts);
  if (s.upper < kScale) return UtilizationClass::BelowOne;
  if (s.lower > kScale) return UtilizationClass::AboveOne;
  return UtilizationClass::Marginal;
}

bool utilization_at_most_one(const TaskSet& ts, bool* degraded_out) {
  switch (classify_utilization(ts)) {
    case UtilizationClass::BelowOne:
    case UtilizationClass::ExactlyOne:
      return true;
    case UtilizationClass::AboveOne:
      return false;
    case UtilizationClass::Marginal:
      if (degraded_out != nullptr) *degraded_out = true;
      return true;  // safe direction: never claim U > 1 without proof
  }
  return true;
}

bool utilization_exceeds_one(const TaskSet& ts) {
  return classify_utilization(ts) == UtilizationClass::AboveOne;
}

FeasibilityResult liu_layland_test(const PreparedSet& ps) {
  FeasibilityResult r;
  r.iterations = 1;
  const UtilizationClass uc = ps.utilization_class();
  if (uc == UtilizationClass::AboveOne) {
    r.verdict = Verdict::Infeasible;
    return r;
  }
  // Marginal: U <= 1 is the caller-safe assumption (see
  // utilization_at_most_one), flagged degraded.
  r.degraded = uc == UtilizationClass::Marginal;
  const TaskSet& ts = ps.tasks();
  // EDF is optimal [12]: U <= 1 is sufficient when every deadline is at
  // least the period (demand never exceeds the implicit-deadline case).
  const bool all_at_least_period = [&] {
    for (const Task& t : ts) {
      if (t.effective_deadline() < t.period) return false;
    }
    return true;
  }();
  r.verdict =
      all_at_least_period ? Verdict::Feasible : Verdict::Unknown;
  return r;
}

FeasibilityResult liu_layland_test(const TaskSet& ts) {
  return liu_layland_test(PreparedSet(ts));
}

}  // namespace edfkit
