/// \file devi.hpp
/// Devi's sufficient feasibility test [9] (paper Def. 1): with tasks
/// arranged by non-decreasing relative deadline, Gamma is feasible if
/// U <= 1 and for every k in 1..n
///
///   Sigma_{i<=k} C_i/T_i
///     + (1/D_k) * Sigma_{i<=k} ((T_i - min(T_i, D_i))/T_i) * C_i  <=  1.
///
/// The paper proves (Lemma 2, §3.5) that this test is exactly
/// SuperPos(1); the property is verified in tests/cross_validation.
///
/// The check is evaluated in exact rational arithmetic (multiply through
/// by D_k), so no floating-point acceptance errors are possible.
#pragma once

#include "analysis/prepared.hpp"
#include "analysis/types.hpp"
#include "model/task_set.hpp"

namespace edfkit {

/// Run Devi's test. Verdicts: Feasible (accepted), Infeasible only via
/// the exact U > 1 precheck, otherwise Unknown (the test is sufficient —
/// rejection proves nothing).
[[nodiscard]] FeasibilityResult devi_test(const PreparedSet& ps);
[[nodiscard]] FeasibilityResult devi_test(const TaskSet& ts);

}  // namespace edfkit
