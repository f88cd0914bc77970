/// \file chakraborty.hpp
/// Approximate schedulability analysis of Chakraborty, Künzli & Thiele
/// (RTSS 2002) [8] — the other approximation the paper names in §3.4 as
/// bridging Devi's fast test and the slow exact test.
///
/// The CKT scheme evaluates the demand bound exactly for the first
/// k = ceil(1/epsilon) jobs of each task and bounds the remainder by its
/// linear envelope. Acceptance is sound (the set is feasible); rejection
/// certifies infeasibility only on a processor of capacity (1 - epsilon).
/// That demand is SuperPos(k)'s dbf', so — as the paper claims, the
/// approximation derives from its tests — this entry point runs the
/// superposition sweep at level k (`superpos_sweep`, core/superpos.hpp)
/// and adds the epsilon/error-capacity contract of [8]. Its certified
/// fixed-point demand with an exact-rational refresh decides
/// realistic-period sets without overflowing to `degraded`, and
/// `base.iterations` counts test-list entries — one per (task, job
/// deadline) pair walked — as superpos_test does.
#pragma once

#include "analysis/prepared.hpp"
#include "analysis/types.hpp"
#include "model/task_set.hpp"

namespace edfkit {

struct ChakrabortyResult {
  FeasibilityResult base;
  /// epsilon actually used (1/k after rounding k up).
  double epsilon = 0.0;
  /// max over tested intervals of dbf'(I)/I — the processor speed at
  /// which the demand provably fits (best effort, in doubles). <= 1 on
  /// acceptance, > 1 on a rejection that is not `degraded`; U when U > 1.
  double demand_ratio = 0.0;
};

/// Run the epsilon-approximate test. \throws std::invalid_argument
/// unless 1/kMaxApproxLevel <= epsilon <= 1 (demand/approx.hpp).
[[nodiscard]] ChakrabortyResult chakraborty_test(const PreparedSet& ps,
                                                 double epsilon);
[[nodiscard]] ChakrabortyResult chakraborty_test(const TaskSet& ts,
                                                 double epsilon);

}  // namespace edfkit
