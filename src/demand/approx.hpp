/// \file approx.hpp
/// The superposition approximation of the demand bound function
/// (paper Defs. 4 & 5 and Lemma 6).
///
/// With a per-task maximum test interval Im(tau) — the deadline of the
/// x-th job for test level x — the approximated per-task demand is
///   dbf'(I, tau) = dbf(I, tau)                         for I <= Im(tau)
///                = dbf(Im, tau) + C/T * (I - Im(tau))  for I >  Im(tau).
///
/// Because Im is always a job deadline, the approximated branch has the
/// closed form  C * ((I - D)/T + 1)  independent of Im: the linear upper
/// envelope through the dbf corner points. The overestimation against the
/// exact dbf is (Lemma 6)
///   app(I, tau) = ((I - D)/T - floor((I - D)/T)) * C.
#pragma once

#include "model/task_set.hpp"
#include "util/rational.hpp"

namespace edfkit {

/// Ceiling on the approximation level k = ceil(1/epsilon), the number
/// of jobs per task tested exactly. Far above any level in use
/// (epsilon = 0.1 is k = 10); it keeps k, and the 4k refinement
/// ceiling of the admission store, clear of overflow.
inline constexpr Time kMaxApproxLevel = 1'000'000;

/// The level k = ceil(1/epsilon) of an epsilon-approximation.
/// \throws std::invalid_argument (naming `who`) unless 0 < epsilon <= 1
/// and k <= kMaxApproxLevel.
[[nodiscard]] Time approx_level(double epsilon, const char* who);

/// Deadline of the level-th job (level >= 1): Im = (level-1)*T + D.
/// This is the task's "Testboarder" at a given superposition level.
[[nodiscard]] Time approx_border(const Task& t, Time level) noexcept;

/// Linear (approximated-branch) demand C*((I-D)/T + 1) as an exact
/// rational. Valid as an upper bound on dbf(I, tau) for I >= D - T; in
/// the algorithms it is only used for I >= D.
[[nodiscard]] Rational approx_demand(const Task& t, Time interval);

/// Lemma 6 overestimation app(I, tau) >= 0; zero exactly at job deadlines.
[[nodiscard]] Rational approx_error(const Task& t, Time interval);

/// Def. 4: approximated task demand with explicit border Im (must be a
/// job deadline of t).
[[nodiscard]] Rational approx_dbf(const Task& t, Time interval, Time border);

/// Def. 5: approximated set demand with per-task level x (SuperPos(x)).
[[nodiscard]] Rational approx_dbf(const TaskSet& ts, Time interval,
                                  Time level);

}  // namespace edfkit
