/// \file all_approx.hpp
/// The all-approximated exact feasibility test (paper §4.2, Fig. 7).
///
/// Instead of a global level, every task is approximated immediately
/// after its first tested job deadline, and approximations are revised
/// *individually*, on demand, at exactly those test intervals where the
/// approximated demand exceeds the capacity. Revision order is FIFO over
/// the approximation list (the paper's `getAndRemoveFirstTask`). Each
/// revised task contributes one new test interval — its next job deadline
/// after the failing interval (Lemma 5) — and is re-approximated as soon
/// as that interval is processed.
///
/// The test terminates implicitly at the superposition feasibility bound
/// (§4.3): once the slack at a test interval absorbs every task's
/// overestimation, no further intervals are generated. When the initial
/// interval of every task is accepted without revisions, the behaviour
/// and cost equal Devi's test — the paper's key property.
///
/// The sweep is one resumable object, `AllApproxSweep`: the shared
/// demand sweep (core/demand_sweep.hpp) under the FIFO policy.
/// `all_approx_test` runs it to the bound; the feasibility certificate
/// (query/certificate.hpp) drains it to an empty test list, recording
/// each task's border. The sweep is deterministic, so draining the sweep
/// an all_approx_test left in the query's `PreparedSet` gives the same
/// borders as draining a fresh one — the certificate resumes it instead
/// of repeating it.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>

#include "analysis/prepared.hpp"
#include "analysis/types.hpp"
#include "core/demand_sweep.hpp"
#include "model/task_set.hpp"

namespace edfkit {

struct AllApproxOptions {
  /// Safety net for U == 1 workloads: there the approximated demand
  /// grows as fast as the capacity, the slack never comes to absorb every
  /// overestimation, and the implicit termination argument does not
  /// apply. Intervals beyond this bound are feasible by construction.
  /// Default: the library's combined feasibility bound.
  std::optional<Time> bound;
  /// Cooperative cancellation (see ProcessorDemandOptions::stop).
  const std::atomic<bool>* stop = nullptr;
};

/// The Fig. 7 sweep over one prepared set, one interval per step
/// (`iterations` still counts test-list entries), paused and resumed by
/// `run`.
class AllApproxSweep : public DemandSweep {
 public:
  using DemandSweep::DemandSweep;

  /// DemandSweep::run under FIFO revision.
  Stop run(Time bound, const std::atomic<bool>* stop = nullptr,
           std::uint64_t step_cap = std::numeric_limits<std::uint64_t>::max());
};

/// Run the test to `opts.bound` (default: the prepared implicit test
/// bound). The run claims the prepared set's sweep slot, so a
/// certificate built on `ps` afterwards resumes it.
[[nodiscard]] FeasibilityResult all_approx_test(
    const PreparedSet& ps, const AllApproxOptions& opts = {});

/// The same test on a set prepared for this call alone.
[[nodiscard]] FeasibilityResult all_approx_test(
    const TaskSet& ts, const AllApproxOptions& opts = {});

}  // namespace edfkit
