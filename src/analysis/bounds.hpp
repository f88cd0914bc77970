/// \file bounds.hpp
/// Feasibility bounds (paper §4.3): upper limits on the intervals an
/// exact test must examine. For a task set with U <= 1, every interval I
/// with dbf(I) > I lies below each *applicable* bound, so the processor
/// demand test may stop at the smallest of them.
///
/// | Bound          | Formula                                   | Valid when |
/// |----------------|-------------------------------------------|------------|
/// | Baruah [3]     | U/(1-U) * max(T_i - D_i)                  | U < 1 and D_i <= T_i for all i |
/// | George [10]    | Sigma_{D_i <= T_i}(1 - D_i/T_i)C_i / (1-U)| U < 1 |
/// | Superposition  | max(D_max, Sigma(1 - D_i/T_i)C_i / (1-U)) | U < 1 (paper §4.3; see note) |
/// | Busy period    | fixpoint of L = rbf(L)                    | U <= 1 |
/// | Hyperperiod    | lcm(T_i) + D_max                          | U <= 1 |
///
/// Note on the superposition bound: the paper prints
/// `min(Dmax, ...)`, but its own derivation requires I >= D_max, so the
/// sound closed form is `max` (for constrained deadlines the sum equals
/// George's bound and dominates D_max in all non-trivial cases, so the
/// distinction never matters in the paper's experiments).
#pragma once

#include <optional>

#include "model/task_set.hpp"
#include "util/math.hpp"
#include "util/rational.hpp"

namespace edfkit {

/// Baruah et al. bound (Def. 3). nullopt when inapplicable
/// (U >= 1 or some D_i > T_i). A returned 0 means "nothing to test".
[[nodiscard]] std::optional<Time> baruah_bound(const TaskSet& ts);

/// George et al. bound. nullopt when U >= 1.
[[nodiscard]] std::optional<Time> george_bound(const TaskSet& ts);

/// Superposition bound (paper §4.3, soundly max'ed with D_max).
/// nullopt when U >= 1.
[[nodiscard]] std::optional<Time> superposition_bound(const TaskSet& ts);

/// Synchronous busy period: least L > 0 with rbf(L) == L, computed by
/// fixpoint iteration from Sigma C_i. nullopt when U > 1 or the fixpoint
/// exceeds `cap` (iteration diverging toward the saturation region).
[[nodiscard]] std::optional<Time> busy_period(const TaskSet& ts,
                                              Time cap = kTimeInfinity);

/// Hyperperiod-based bound lcm(T) + D_max (saturating).
[[nodiscard]] Time hyperperiod_bound(const TaskSet& ts);

/// The bound the exact tests use by default: the minimum of all
/// applicable closed-form bounds (Baruah, George, superposition),
/// falling back to the hyperperiod bound when U == 1. Busy period is
/// excluded by default — the paper notes computing it "has exponential
/// complexity and may need more effort than the test" (§4.3) — but can be
/// requested via `include_busy_period`.
[[nodiscard]] Time default_test_bound(const TaskSet& ts,
                                      bool include_busy_period = false);

/// The bound the *new* tests (dynamic-error, all-approximated) stop at:
/// max(D_max, default bound). Processing every task's first deadline is
/// what makes the tests behave exactly like Devi's on Devi-acceptable
/// sets (§4.2), and the superposition bound derivation needs I >= D_max
/// anyway (§4.3).
[[nodiscard]] Time implicit_test_bound(const TaskSet& ts);

}  // namespace edfkit
