#include "analysis/devi.hpp"

#include <algorithm>
#include <span>

#include "util/fixedpoint.hpp"

namespace edfkit {
namespace {

/// Exact-rational evaluation of Devi's k-th condition, used only when
/// the fixed-point bounds are ambiguous (equality-grade margins).
Ordering devi_condition_exact(const TaskSet& ts,
                              std::span<const std::size_t> prefix, Time dk) {
  Rational a;
  Rational b;
  for (const std::size_t idx : prefix) {
    const Task& t = ts[idx];
    a += t.utilization();
    const Time gap = t.period - std::min(t.period, t.effective_deadline());
    if (gap > 0 && !is_time_infinite(t.period)) {
      b += Rational(gap, t.period) * Rational(t.wcet);
    } else if (is_time_infinite(t.period)) {
      b += Rational(t.wcet);  // gap/T -> 1 as T -> inf
    }
  }
  const Rational lhs = a * Rational(dk) + b;
  return lhs.compare(dk);
}

}  // namespace

FeasibilityResult devi_test(const PreparedSet& ps) {
  FeasibilityResult r;
  const TaskSet& ts = ps.tasks();
  if (ts.empty()) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  if (ps.utilization_exceeds_one()) {
    r.verdict = Verdict::Infeasible;
    r.iterations = 1;
    return r;
  }

  // Certified prefix sums over tasks sorted by non-decreasing deadline:
  //   A = Sigma C_i/T_i,  B = Sigma C_i * (T_i - min(T_i, D_i)) / T_i.
  // Condition per k (multiplied by D_k):  A * D_k + B <= D_k.
  ScaledPair a;
  ScaledPair b;
  const auto& order = ts.by_deadline();
  const std::span<const ScaledPair> utils = ps.task_utils();
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Task& t = ts[order[k]];
    const Time d = t.effective_deadline();
    if (is_time_infinite(t.period)) {
      // One-shot: utilization 0, envelope offset C (gap/T -> 1).
      b += scale_integer(t.wcet);
    } else {
      a += utils[order[k]];
      const Time gap = t.period - std::min(t.period, d);
      if (gap > 0) {
        b += scale_fraction(static_cast<Int128>(gap) * t.wcet, t.period);
      }
    }
    ++r.iterations;
    r.max_interval_tested = std::max(r.max_interval_tested, d);

    ScaledPair lhs{a.lo * d + b.lo, a.hi * d + b.hi};
    ScaledCompare cmp = compare_scaled(lhs, d);
    if (cmp == ScaledCompare::Ambiguous) {
      // Margin below 2^-62 per task: settle it with exact rationals.
      const Ordering exact = devi_condition_exact(
          ts, std::span<const std::size_t>(order.data(), k + 1), d);
      if (exact == Ordering::Less || exact == Ordering::Equal) {
        cmp = ScaledCompare::LessOrEqual;
      } else if (exact == Ordering::Greater) {
        cmp = ScaledCompare::Greater;
      } else {
        r.degraded = true;  // rationals overflowed too: reject (sufficient
        cmp = ScaledCompare::Greater;  // test, so rejection is always safe)
      }
    }
    if (cmp == ScaledCompare::Greater) {
      r.verdict = Verdict::Unknown;
      return r;
    }
  }
  r.verdict = Verdict::Feasible;
  return r;
}

FeasibilityResult devi_test(const TaskSet& ts) {
  return devi_test(PreparedSet(ts));
}

}  // namespace edfkit
