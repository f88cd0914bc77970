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
/// The sweep is one resumable object, `AllApproxSweep`. `all_approx_test`
/// runs it to the bound; the feasibility certificate
/// (query/certificate.hpp) drains it to an empty test list, recording
/// each task's border. The sweep is deterministic, so draining the sweep
/// a FIFO all_approx_test left in the query's `PreparedSet` gives the
/// same borders as draining a fresh one — the certificate resumes it
/// instead of repeating it.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "analysis/prepared.hpp"
#include "analysis/types.hpp"
#include "demand/accumulator.hpp"
#include "demand/intervals.hpp"
#include "model/task_set.hpp"

namespace edfkit {

/// Which approximated task to revise when the demand exceeds a test
/// interval. The paper's getAndRemoveFirstTask is FIFO; the alternatives
/// exist for the ablation bench (verdicts are policy-independent — the
/// test stays exact — only the effort changes).
enum class RevisionPolicy : std::uint8_t {
  Fifo,      ///< paper: oldest approximation first
  Lifo,      ///< newest approximation first
  MaxError,  ///< largest current overestimation app(I, tau) first
};

struct AllApproxOptions {
  /// Safety net for U == 1 workloads where the implicit termination
  /// argument does not apply (see DESIGN.md §4): intervals beyond this
  /// bound are feasible by construction. Default: the library's combined
  /// feasibility bound.
  std::optional<Time> bound;
  RevisionPolicy revision = RevisionPolicy::Fifo;
  /// Cooperative cancellation (see ProcessorDemandOptions::stop).
  const std::atomic<bool>* stop = nullptr;
};

/// The Fig. 7 loop over one prepared set, one test-list entry per
/// iteration, paused and resumed by `run`.
class AllApproxSweep {
 public:
  /// Why `run` returned.
  enum class Stop : std::uint8_t {
    Bound,      ///< the next test interval lies past the bound
    Drained,    ///< the test list is empty; every border is final
    Cancelled,  ///< the stop token was raised
    StepCap,    ///< the next step would pass the step cap
    Overflow,   ///< nothing left to revise: exact dbf(witness) > witness
    Degraded,   ///< nothing left to revise, but the comparison degraded
  };

  /// A bound no test interval exceeds: run(kNoBound) drains the list.
  static constexpr Time kNoBound = std::numeric_limits<Time>::max();

  /// `ps` must outlive the sweep.
  AllApproxSweep(const PreparedSet& ps, RevisionPolicy revision);

  /// Walk test intervals up to `bound`. Before each pop and each
  /// revision it checks `stop`, then whether `steps()` has reached
  /// `step_cap`. Bound, Drained and Cancelled leave the sweep
  /// resumable by a later call.
  Stop run(Time bound, const std::atomic<bool>* stop = nullptr,
           std::uint64_t step_cap = std::numeric_limits<std::uint64_t>::max());

  /// True until a run stops on StepCap, Overflow or Degraded.
  [[nodiscard]] bool resumable() const noexcept {
    return last_ == Stop::Bound || last_ == Stop::Drained ||
           last_ == Stop::Cancelled;
  }
  /// Test-list entries popped so far.
  [[nodiscard]] std::uint64_t iterations() const noexcept {
    return iterations_;
  }
  [[nodiscard]] std::uint64_t revisions() const noexcept {
    return revisions_;
  }
  /// Pops plus revisions: what `step_cap` counts.
  [[nodiscard]] std::uint64_t steps() const noexcept {
    return iterations_ + revisions_;
  }
  [[nodiscard]] Time max_interval_tested() const noexcept {
    return max_interval_;
  }
  /// The overflow interval after Stop::Overflow, else -1.
  [[nodiscard]] Time witness() const noexcept { return witness_; }
  /// True once any comparison needed the degraded fallback.
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }
  /// Per task, the job deadline at which it was last approximated (0
  /// before its first). Once drained, every border is the task's last
  /// verified job deadline — the certificate's borders.
  [[nodiscard]] const std::vector<Time>& borders() const noexcept {
    return borders_;
  }

 private:
  /// Remove and return the approximated task to revise at `point`.
  std::size_t take_revision(Time point);

  const PreparedSet& ps_;
  RevisionPolicy revision_;
  TestList list_;
  std::vector<bool> approximated_;
  std::deque<std::size_t> approx_list_;  // paper's ApproxList
  std::vector<Time> borders_;
  DemandAccumulator acc_;
  Time iold_ = 0;
  Time max_interval_ = 0;
  Time witness_ = -1;
  std::uint64_t iterations_ = 0;
  std::uint64_t revisions_ = 0;
  bool degraded_ = false;
  Stop last_ = Stop::Bound;
};

/// Run the test to `opts.bound` (default: the prepared implicit test
/// bound). A FIFO run claims the prepared set's sweep slot, so a
/// certificate built on `ps` afterwards resumes it.
[[nodiscard]] FeasibilityResult all_approx_test(
    const PreparedSet& ps, const AllApproxOptions& opts = {});

/// The same test on a set prepared for this call alone.
[[nodiscard]] FeasibilityResult all_approx_test(
    const TaskSet& ts, const AllApproxOptions& opts = {});

}  // namespace edfkit
