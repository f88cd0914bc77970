#include "analysis/bounds.hpp"

#include <algorithm>

#include "analysis/utilization.hpp"
#include "demand/dbf.hpp"

namespace edfkit {
namespace {

/// Certified over-approximation of the George bound when the exact
/// rational path overflows: an S-scaled ceil-sum of the numerator over a
/// certified lower bound of (1 - U). Any value >= the true bound is a
/// sound test bound, so rounding up everywhere is safe.
std::optional<Time> george_bound_scaled(const TaskSet& ts,
                                       const ScaledUtilization& u) {
  if (u.upper >= kUtilizationScale) return std::nullopt;  // U might be >= 1
  const Int128 denom_low = kUtilizationScale - u.upper;   // <= (1-U)*S
  Int128 num_up = 0;                                      // >= Sigma(..)*S
  constexpr Int128 kNumCap = static_cast<Int128>(1) << 120;
  for (const Task& t : ts) {
    const Time d = t.effective_deadline();
    Int128 term;
    if (is_time_infinite(t.period)) {
      term = static_cast<Int128>(t.wcet) * kUtilizationScale;
    } else if (d <= t.period) {
      // ceil((T-d)*C/T * S) in two stages so intermediates stay < 2^125.
      const Int128 prod = static_cast<Int128>(t.period - d) * t.wcet;
      const Int128 den = static_cast<Int128>(t.period);
      const Int128 q1 = prod / den;
      const Int128 r1 = prod % den;
      term = q1 * kUtilizationScale +
             (r1 * kUtilizationScale + den - 1) / den;
    } else {
      continue;  // D > T contributes nothing to George's sum
    }
    num_up += term;
    if (num_up > kNumCap) return std::nullopt;  // give up, caller falls back
  }
  const Int128 b = num_up / denom_low + 1;  // ceil and one tick of slack
  if (b >= static_cast<Int128>(kTimeInfinity)) return std::nullopt;
  return static_cast<Time>(b);
}

/// 1 - U as an exact rational, or nullopt when U >= 1 (or exactness
/// was lost, in which case no closed-form bound is claimed).
std::optional<Rational> one_minus_util(const TaskSet& ts) {
  Rational slack(Time{1});
  slack -= ts.utilization();
  if (!slack.exact()) return std::nullopt;
  if (slack.compare(Time{0}) != Ordering::Greater) return std::nullopt;
  return slack;
}

/// Convert a non-negative rational bound to an inclusive integer test
/// bound. Counterexamples are strictly below the rational value, and all
/// test intervals are integers, so ceil(r) - 1 suffices; we use floor(r)
/// which is >= ceil(r) - 1 (equal except at integers, where it is safely
/// larger by one point).
Time to_inclusive_bound(const Rational& r) {
  if (!r.exact()) return kTimeInfinity;
  if (r.is_negative()) return 0;
  if (!r.certainly_le(kTimeInfinity)) return kTimeInfinity;  // saturate
  return std::min(r.floor(), kTimeInfinity);
}

/// What the three closed-form bounds share, each derived at most once
/// per call: 1 - U as an exact rational and, for when that overflows,
/// the S-scaled utilization bounds and the certified George bound.
class BoundInputs {
 public:
  explicit BoundInputs(const TaskSet& ts)
      : ts_(ts), slack_(one_minus_util(ts)) {}

  [[nodiscard]] const TaskSet& tasks() const { return ts_; }
  [[nodiscard]] const std::optional<Rational>& slack() const {
    return slack_;
  }
  [[nodiscard]] const ScaledUtilization& scaled() {
    if (!scaled_) scaled_ = scaled_utilization_bounds(ts_);
    return *scaled_;
  }
  [[nodiscard]] std::optional<Time> george_scaled() {
    if (!george_scaled_) george_scaled_ = george_bound_scaled(ts_, scaled());
    return *george_scaled_;
  }

 private:
  const TaskSet& ts_;
  std::optional<Rational> slack_;
  std::optional<ScaledUtilization> scaled_;
  std::optional<std::optional<Time>> george_scaled_;
};

std::optional<Time> baruah(BoundInputs& in) {
  const TaskSet& ts = in.tasks();
  if (!ts.constrained_deadlines()) return std::nullopt;
  Time max_gap = 0;
  for (const Task& t : ts) {
    if (is_time_infinite(t.period)) return std::nullopt;  // one-shot:
    // max(T - D) degenerates; George's bound covers these sets instead.
    max_gap = std::max(max_gap, t.period - t.effective_deadline());
  }
  if (max_gap == 0) {
    // All deadlines equal periods: with U <= 1 Liu & Layland applies and
    // no interval needs checking; with U possibly > 1 claim nothing.
    if (utilization_at_most_one(ts)) return 0;
    return std::nullopt;
  }
  if (const auto& slack = in.slack()) {
    Rational b = ts.utilization() * Rational(max_gap) / *slack;
    if (b.exact()) return to_inclusive_bound(b);
  }
  // Certified fallback: ceil(U_up * max_gap / (1 - U_up)) with the
  // S-scaled utilization upper bound (over-approximation is sound).
  const ScaledUtilization& u = in.scaled();
  if (u.upper >= kUtilizationScale) return std::nullopt;
  const Int128 denom = kUtilizationScale - u.upper;
  if (is_time_infinite(max_gap)) return std::nullopt;
  const Int128 num = u.upper * max_gap;
  const Int128 b = num / denom + 1;
  if (b >= static_cast<Int128>(kTimeInfinity)) return std::nullopt;
  return static_cast<Time>(b);
}

std::optional<Time> george(BoundInputs& in) {
  const TaskSet& ts = in.tasks();
  const auto& slack = in.slack();
  if (!slack) return in.george_scaled();
  Rational num;
  for (const Task& t : ts) {
    const Time d = t.effective_deadline();
    if (is_time_infinite(t.period)) {
      num += Rational(t.wcet);  // (1 - D/T) -> 1 as T -> inf
    } else if (d <= t.period) {
      num += Rational(t.period - d, t.period) * Rational(t.wcet);
    }
  }
  Rational b = num / *slack;
  if (!b.exact()) return in.george_scaled();
  return to_inclusive_bound(b);
}

std::optional<Time> superposition(BoundInputs& in) {
  const TaskSet& ts = in.tasks();
  const auto& slack = in.slack();
  if (!slack) {
    // Certified fallback: George's sum only over-approximates the signed
    // superposition sum (negative D > T terms are dropped), so it stays a
    // sound stand-in.
    const auto g = in.george_scaled();
    if (!g) return std::nullopt;
    return std::max(ts.max_deadline(), *g);
  }
  Rational num;
  for (const Task& t : ts) {
    const Time d = t.effective_deadline();
    if (is_time_infinite(t.period)) {
      num += Rational(t.wcet);  // (1 - D/T) -> 1 as T -> inf
      continue;
    }
    // Signed: tasks with D > T contribute negatively (paper §4.3).
    num += Rational(t.period - d, t.period) * Rational(t.wcet);
  }
  Rational b = num / *slack;
  if (!b.exact()) {
    const auto g = in.george_scaled();
    if (!g) return std::nullopt;
    return std::max(ts.max_deadline(), *g);
  }
  return std::max(ts.max_deadline(), to_inclusive_bound(b));
}

}  // namespace

std::optional<Time> baruah_bound(const TaskSet& ts) {
  BoundInputs in(ts);
  return baruah(in);
}

std::optional<Time> george_bound(const TaskSet& ts) {
  BoundInputs in(ts);
  return george(in);
}

std::optional<Time> superposition_bound(const TaskSet& ts) {
  BoundInputs in(ts);
  return superposition(in);
}

std::optional<Time> busy_period(const TaskSet& ts, Time cap) {
  if (ts.empty()) return 0;
  if (ts.utilization().certainly_gt(Time{1})) return std::nullopt;
  Time w = ts.total_wcet();
  // Fixpoint iteration; each step is monotone non-decreasing. Bail out
  // past `cap` or on saturation.
  for (int guard = 0; guard < 1'000'000; ++guard) {
    const Time next = rbf(ts, w);
    if (next == w) return w;
    if (next > cap || is_time_infinite(next)) return std::nullopt;
    w = next;
  }
  return std::nullopt;
}

Time hyperperiod_bound(const TaskSet& ts) {
  return add_saturating(ts.hyperperiod(), ts.max_deadline());
}

Time implicit_test_bound(const TaskSet& ts) {
  return std::max(ts.max_deadline(), default_test_bound(ts));
}

Time default_test_bound(const TaskSet& ts, bool include_busy_period) {
  BoundInputs in(ts);
  Time best = kTimeInfinity;
  if (const auto b = baruah(in)) best = std::min(best, *b);
  if (const auto g = george(in)) best = std::min(best, *g);
  if (const auto s = superposition(in)) best = std::min(best, *s);
  if (include_busy_period) {
    if (const auto l = busy_period(ts, best)) best = std::min(best, *l);
  }
  if (is_time_infinite(best)) best = hyperperiod_bound(ts);
  return best;
}

}  // namespace edfkit
