/// \file utilization.hpp
/// Liu & Layland's utilization condition [12] (paper §3.1) and the exact
/// "U vs 1" classification every other test builds on.
///
/// The classification is exact-rational when the int128 rationals hold;
/// when a task set's denominators overflow them (hundreds of coprime
/// periods), it falls back to a *certified* fixed-point computation:
/// per-task floor/ceil of C*2^62/T give integer lower/upper bounds on the
/// scaled utilization, so "certainly <= 1" / "certainly > 1" remain
/// proofs. Only when 1 lies inside the (n * 2^-62)-wide uncertainty band
/// does the classifier answer Marginal — callers treat Marginal
/// conservatively and flag the result degraded.
#pragma once

#include "analysis/types.hpp"
#include "model/task_set.hpp"

namespace edfkit {

class PreparedSet;  // analysis/prepared.hpp

/// Fixed-point scale shared by the certified fallbacks (also used by the
/// bound computations in analysis/bounds.cpp).
inline constexpr Int128 kUtilizationScale = static_cast<Int128>(1) << 62;

/// Certified S-scaled bounds: lower <= U * kUtilizationScale <= upper.
struct ScaledUtilization {
  Int128 lower = 0;
  Int128 upper = 0;
};
[[nodiscard]] ScaledUtilization scaled_utilization_bounds(const TaskSet& ts);

enum class UtilizationClass : std::uint8_t {
  BelowOne,    ///< certainly U < 1
  ExactlyOne,  ///< certainly U == 1 (rational path only)
  AboveOne,    ///< certainly U > 1
  Marginal,    ///< within the fixed-point uncertainty band around 1
};

/// Classify total utilization against 1.
[[nodiscard]] UtilizationClass classify_utilization(const TaskSet& ts);

/// True iff U <= 1 can be *asserted* (Below/Exactly). Marginal returns
/// true as well — the caller-safe direction for feasibility tests whose
/// Infeasible verdicts must never rest on an uncertain U > 1 — but sets
/// *degraded_out (if given) so results can carry the flag.
[[nodiscard]] bool utilization_at_most_one(const TaskSet& ts,
                                           bool* degraded_out = nullptr);

/// True iff U > 1 is provable (the only sound basis for Infeasible).
[[nodiscard]] bool utilization_exceeds_one(const TaskSet& ts);

/// Exact utilization test. For implicit deadlines (and D >= T) the
/// verdict is exact; for constrained deadlines it returns Infeasible when
/// U > 1 and Unknown otherwise (the condition is then only necessary).
[[nodiscard]] FeasibilityResult liu_layland_test(const PreparedSet& ps);
[[nodiscard]] FeasibilityResult liu_layland_test(const TaskSet& ts);

}  // namespace edfkit
