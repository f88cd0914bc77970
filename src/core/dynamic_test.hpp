/// \file dynamic_test.hpp
/// The dynamic-error exact feasibility test (paper §4.1, Fig. 5).
///
/// The test starts at superposition level 1 (every task approximated
/// after its first job — exactly Devi's test). Whenever the approximated
/// demand dbf' exceeds the current test interval, the level is raised
/// (doubled by default) and the approximations of all tasks whose new
/// border lies beyond the current interval are withdrawn: their
/// overestimation app(I, tau) is subtracted (Lemma 6) and their next job
/// deadline after I enters the test list (Lemma 5). Nothing already
/// computed is thrown away.
///
/// If the demand still exceeds the interval once *no* task is
/// approximated, the value is the exact dbf and the set is provably
/// infeasible. If the walk passes the feasibility bound Imax, or the test
/// list drains with every task approximated, the set is feasible
/// (Lemmas 1/3/4).
///
/// Task sets accepted by Devi's test complete entirely on level 1 with
/// one iteration per task — the paper's headline property.
///
/// The walk is the shared demand sweep (core/demand_sweep.hpp): one
/// interval per iteration, every job due there counted before the
/// comparison. `iterations` still counts test-list entries.
#pragma once

#include <atomic>
#include <optional>

#include "analysis/prepared.hpp"
#include "analysis/types.hpp"
#include "model/task_set.hpp"

namespace edfkit {

struct DynamicTestOptions {
  /// Starting superposition level (paper: 1).
  Time initial_level = 1;
  /// Level growth on failure: next = max(level * growth_factor,
  /// level + 1). The paper doubles; the ablation bench varies this.
  Time growth_factor = 2;
  /// Hard cap on the level; 0 = unlimited (exact test). A non-zero cap
  /// yields the paper's "strictly limited worst-case run-time" variant,
  /// returning Unknown when the cap is insufficient.
  Time max_level = 0;
  /// Override for the feasibility bound Imax.
  std::optional<Time> bound;
  /// Cooperative cancellation (see ProcessorDemandOptions::stop).
  const std::atomic<bool>* stop = nullptr;
};

[[nodiscard]] FeasibilityResult dynamic_error_test(
    const PreparedSet& ps, const DynamicTestOptions& opts = {});

/// The same test on a set prepared for this call alone.
[[nodiscard]] FeasibilityResult dynamic_error_test(
    const TaskSet& ts, const DynamicTestOptions& opts = {});

}  // namespace edfkit
