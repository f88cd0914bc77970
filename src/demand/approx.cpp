#include "demand/approx.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "demand/dbf.hpp"

namespace edfkit {

Time approx_level(double epsilon, const char* who) {
  // Bound k in floating point, before the cast: ceil(1/epsilon) for a
  // tiny epsilon is far beyond Time's range.
  const double k = std::ceil(1.0 / epsilon);
  if (!(epsilon > 0.0) || epsilon > 1.0 ||
      !(k <= static_cast<double>(kMaxApproxLevel))) {
    throw std::invalid_argument(
        std::string(who) + ": epsilon in [1/" +
        std::to_string(kMaxApproxLevel) + ", 1] required");
  }
  return static_cast<Time>(k);
}

Time approx_border(const Task& t, Time level) noexcept {
  // level jobs tested exactly; border = deadline of job #level (1-based).
  return t.job_deadline(level - 1);
}

Rational approx_demand(const Task& t, Time interval) {
  // C*((I - D)/T + 1) = C*(I - D + T)/T, exact rational.
  if (is_time_infinite(t.period)) {
    // One-shot task: linear envelope degenerates to the single job.
    return Rational(interval >= t.effective_deadline() ? t.wcet : 0);
  }
  const Int128 num = mul_wide(t.wcet, interval - t.effective_deadline() +
                                          t.period);
  // Keep within Rational's 64-bit constructor domain via manual reduce:
  // numerators fit easily for realistic inputs; guard anyway.
  if (num > static_cast<Int128>(std::numeric_limits<Time>::max()) ||
      num < static_cast<Int128>(std::numeric_limits<Time>::min())) {
    return Rational::inexact(static_cast<double>(num) /
                             static_cast<double>(t.period));
  }
  return Rational(static_cast<Time>(num), t.period);
}

Rational approx_error(const Task& t, Time interval) {
  // app = approx_demand - exact dbf, but only meaningful for I >= D.
  const Time d = t.effective_deadline();
  if (interval < d) {
    throw std::invalid_argument(
        "approx_error: interval precedes first deadline");
  }
  if (is_time_infinite(t.period)) return Rational(0);
  const Time frac_num = floor_mod(interval - d, t.period);
  // ((I-D)/T - floor((I-D)/T)) * C = (I-D mod T)/T * C
  const Int128 num = mul_wide(frac_num, t.wcet);
  if (num > static_cast<Int128>(std::numeric_limits<Time>::max())) {
    return Rational::inexact(static_cast<double>(num) /
                             static_cast<double>(t.period));
  }
  return Rational(static_cast<Time>(num), t.period);
}

Rational approx_dbf(const Task& t, Time interval, Time border) {
  if (interval <= border) return Rational(dbf(t, interval));
  return approx_demand(t, interval);
}

Rational approx_dbf(const TaskSet& ts, Time interval, Time level) {
  if (level < 1) throw std::invalid_argument("approx_dbf: level < 1");
  Rational total;
  for (const Task& t : ts) {
    total += approx_dbf(t, interval, approx_border(t, level));
  }
  return total;
}

}  // namespace edfkit
