/// \file test_multi_edf.cpp
/// The multiprocessor acceptance suite: every global-EDF sufficient test
/// cross-validated against the m-processor simulation oracle, the
/// global-vs-partitioned admission differentials, and mutation fuzzing
/// of MultiprocessorCertificates.
///
/// Soundness direction: a sufficient test answering Feasible on a set
/// the oracle refutes (a miss under the synchronous-periodic arrival
/// pattern, which is a legal sporadic arrival sequence) is a
/// contradiction — the fuzz loop asserts it never happens. The reverse
/// direction is NOT asserted for the window tests: they are sufficient
/// only, and Unknown against an oracle-feasible set is expected.
#include "analysis/multi/global_tests.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "../helpers.hpp"
#include "admission/controller.hpp"
#include "admission/placement.hpp"
#include "query/certificate.hpp"
#include "query/query.hpp"
#include "sim/oracle.hpp"

namespace edfkit {
namespace {

using testing::fuzz_multiplier;
using testing::set_of;
using testing::small_random_sets;
using testing::tk;
using testing::write_fuzz_artifact;

// ---------------------------------------------------------------------------
// Hand fixtures per ladder rung.
// ---------------------------------------------------------------------------

TEST(GlobalLadder, GfbAcceptsLowDensitySets) {
  // delta_sum = 1.8 <= m - (m-1) * delta_max = 4 - 3 * 0.6 = 2.2.
  const TaskSet ts = set_of({tk(6, 10, 10), tk(6, 10, 10), tk(6, 10, 10)});
  const Platform p{4};
  EXPECT_TRUE(multi::gfb_density_test(ts, p).feasible());
}

TEST(GlobalLadder, GfbRefutesOverUtilization) {
  // U = 3.0 > m = 2: unconditionally infeasible for any work-conserving
  // scheduler on 2 processors.
  const TaskSet ts =
      set_of({tk(10, 10, 10), tk(10, 10, 10), tk(10, 10, 10)});
  EXPECT_TRUE(multi::gfb_density_test(ts, Platform{2}).infeasible());
}

TEST(GlobalLadder, GfbRefutesJobExceedingDeadline) {
  // C > D: a single job can never meet its deadline, m irrelevant.
  const TaskSet ts = set_of({tk(9, 8, 20)});
  EXPECT_TRUE(multi::gfb_density_test(ts, Platform{8}).infeasible());
}

TEST(GlobalLadder, GfbIsUnknownOnDenseButFeasibleSets) {
  // delta_sum = 1.6 > 2 - 1 * 0.8 = 1.2, so GFB cannot decide — yet two
  // tasks on two processors are trivially feasible. GFB must not guess.
  const TaskSet ts = set_of({tk(4, 5, 5), tk(4, 5, 5)});
  const FeasibilityResult r = multi::gfb_density_test(ts, Platform{2});
  EXPECT_FALSE(r.feasible());
  EXPECT_FALSE(r.infeasible());
}

TEST(GlobalLadder, WindowRungsDeclineUnconstrainedOrJittery) {
  // D > T falls outside the window rungs' model: they must answer
  // Unknown rather than apply a formula out of its preconditions.
  const TaskSet unconstrained = set_of({tk(2, 30, 10)});
  EXPECT_FALSE(multi::window_rungs_applicable(unconstrained));
  const Platform p{2};
  for (const FeasibilityResult& r :
       {multi::global_bcl_test(unconstrained, p),
        multi::global_bcl_iterative_test(unconstrained, p),
        multi::global_load_test(unconstrained, p),
        multi::global_rta_test(unconstrained, p)}) {
    EXPECT_FALSE(r.feasible());
    EXPECT_FALSE(r.infeasible());
  }
}

TEST(GlobalLadder, RtaEmitsResponseBoundsWithinDeadlines) {
  const TaskSet ts = set_of({tk(2, 10, 10), tk(3, 10, 10), tk(4, 20, 20)});
  std::vector<Time> bounds;
  const FeasibilityResult r =
      multi::global_rta_test(ts, Platform{2}, {}, &bounds);
  ASSERT_TRUE(r.feasible());
  ASSERT_EQ(bounds.size(), ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_GE(bounds[i], ts[i].wcet);
    EXPECT_LE(bounds[i], ts[i].effective_deadline());
  }
}

TEST(GlobalLadder, SimRefutesDhallEffectSet) {
  // Two light tasks occupy both processors for 1 tick every 5; the
  // heavy task gets at most 24 of the 25 ticks it needs by t = 30.
  const TaskSet ts = set_of({tk(1, 5, 5), tk(1, 5, 5), tk(25, 30, 30)});
  EXPECT_TRUE(simulate_global_feasibility(ts, 2).infeasible());
  // The same set on 3 processors leaves a processor free for the heavy
  // task throughout: feasible.
  EXPECT_TRUE(simulate_global_feasibility(ts, 3).feasible());
}

// ---------------------------------------------------------------------------
// Oracle cross-validation fuzz: no sufficient test accepts a set the
// m-processor simulation refutes.
// ---------------------------------------------------------------------------

TEST(GlobalOracleFuzz, NoSufficientTestContradictsTheSimulation) {
  const std::size_t mult = fuzz_multiplier();
  std::size_t decided = 0;
  for (const std::uint32_t m : {2u, 3u, 4u}) {
    // Scale utilization with m so the fuzz straddles the boundary:
    // some sets saturate the platform, some leave headroom.
    for (const double u_per_proc : {0.35, 0.6, 0.85}) {
      const double u = u_per_proc * static_cast<double>(m);
      const std::size_t count = 10 * mult;
      const unsigned seed = 1000u * m + static_cast<unsigned>(u * 100);
      for (const TaskSet& ts : small_random_sets(count, u, seed)) {
        if (ts.empty()) continue;
        const Platform p{m};
        const FeasibilityResult oracle = simulate_global_feasibility(ts, m);
        struct Rung {
          const char* name;
          FeasibilityResult r;
        };
        const Rung rungs[] = {
            {"gfb", multi::gfb_density_test(ts, p)},
            {"gbl-bcl", multi::global_bcl_test(ts, p)},
            {"gbl-bcl-iter", multi::global_bcl_iterative_test(ts, p)},
            {"gbl-load", multi::global_load_test(ts, p)},
            {"gbl-rta", multi::global_rta_test(ts, p)},
        };
        for (const Rung& rung : rungs) {
          if (rung.r.feasible()) ++decided;
          if (rung.r.feasible() && oracle.infeasible()) {
            write_fuzz_artifact("multi_oracle_contradiction", ts.to_string());
            FAIL() << rung.name << " accepted on m=" << m
                   << " but the simulation missed a deadline:\n"
                   << ts.to_string();
          }
        }
      }
    }
  }
  // The family must actually exercise accepting rungs to mean anything.
  EXPECT_GT(decided, 0u);
}

// ---------------------------------------------------------------------------
// Admission differentials: global vs partitioned are incomparable —
// each admits a workload the other rejects.
// ---------------------------------------------------------------------------

/// Partitioned first-fit on `cpus`: the processor that admitted `t`, or
/// UINT32_MAX when none did.
std::pair<std::uint32_t, TaskId> place_first_fit(
    std::vector<AdmissionController>& cpus, const Task& t) {
  for (const std::uint32_t i : placement_order(
           PlacementPolicy::FirstFit, cpus, t.utilization_double())) {
    const AdmissionDecision d = cpus[i].try_admit(t);
    if (d.admitted) return {i, d.id};
  }
  return {UINT32_MAX, kInvalidTaskId};
}

TEST(GlobalAdmission, GlobalAdmitsWhatFragmentedPartitionsReject) {
  // Churn fragmentation: two heavy tasks fill two processors, a light
  // task lands beside each; removing the heavies strands 0.1
  // utilization on each. A re-arriving {heavy, light, light} group then
  // fits on no single processor (0.1 + 1.1 > 1) — but the global view
  // of the same two processors schedules it: lights run [0, 2) on both
  // processors, the heavy takes the remaining 18 ticks of its window.
  const Task heavy = tk(18, 20, 20);
  const Task light = tk(2, 20, 20);

  std::vector<AdmissionController> cpus(2);
  const auto [h1, h1_id] = place_first_fit(cpus, heavy);
  const auto [h2, h2_id] = place_first_fit(cpus, heavy);
  ASSERT_NE(h1, UINT32_MAX);
  ASSERT_NE(h2, UINT32_MAX);
  ASSERT_NE(place_first_fit(cpus, light).first, UINT32_MAX);
  ASSERT_NE(place_first_fit(cpus, light).first, UINT32_MAX);
  ASSERT_NE(h1, h2);  // the heavies cannot share a processor
  ASSERT_TRUE(cpus[h1].remove(h1_id));
  ASSERT_TRUE(cpus[h2].remove(h2_id));

  const std::vector<Task> group = {heavy, light, light};
  const double group_util = heavy.utilization_double() +
                            2 * light.utilization_double();
  for (const std::uint32_t i :
       placement_order(PlacementPolicy::FirstFit, cpus, group_util)) {
    EXPECT_FALSE(cpus[i].admit_group(group).admitted)
        << "processor " << i;  // no processor holds U = 1.2
  }

  // The global controller sees the same arrival history against the
  // same two processors and admits the group.
  AdmissionOptions ao;
  ao.platform = Platform{2};
  ao.return_certificate = true;
  AdmissionController global(ao);
  const AdmissionDecision gh1 = global.try_admit(heavy);
  const AdmissionDecision gh2 = global.try_admit(heavy);
  ASSERT_TRUE(gh1.admitted);
  ASSERT_TRUE(gh2.admitted);
  ASSERT_TRUE(global.try_admit(light).admitted);
  ASSERT_TRUE(global.try_admit(light).admitted);
  ASSERT_TRUE(global.remove(gh1.id));
  ASSERT_TRUE(global.remove(gh2.id));

  const GroupDecision gd = global.admit_group(group);
  EXPECT_TRUE(gd.admitted);
  // Every global-mode accept carries a verifying certificate.
  ASSERT_TRUE(gd.certificate.present());
  EXPECT_TRUE(gd.certificate.multiprocessor());
  EXPECT_EQ(gd.certificate.processors, 2u);
  const CertificateCheck check = verify(global.resident(), gd.certificate);
  EXPECT_TRUE(check.valid) << check.reason;
}

TEST(GlobalAdmission, PartitionedAdmitsWhatGlobalRejects) {
  // The Dhall effect: under global EDF the two light tasks preempt both
  // processors together, starving the heavy task (24 < 25 by t = 30).
  // Partitioned placement isolates the heavy task on its own processor.
  const Task light = tk(1, 5, 5);
  const Task heavy = tk(25, 30, 30);

  AdmissionOptions ao;
  ao.platform = Platform{2};
  ao.return_certificate = true;
  AdmissionController global(ao);
  ASSERT_TRUE(global.try_admit(light).admitted);
  ASSERT_TRUE(global.try_admit(light).admitted);
  const AdmissionDecision rejected = global.try_admit(heavy);
  EXPECT_FALSE(rejected.admitted);
  // A proven (simulation-refuted) reject also carries its certificate.
  if (rejected.certificate.present()) {
    EXPECT_TRUE(rejected.certificate.multiprocessor());
  }
  EXPECT_EQ(global.resident().size(), 2u);  // rollback left the set intact

  std::vector<AdmissionController> cpus(2);
  ASSERT_NE(place_first_fit(cpus, light).first, UINT32_MAX);
  ASSERT_NE(place_first_fit(cpus, light).first, UINT32_MAX);
  EXPECT_NE(place_first_fit(cpus, heavy).first, UINT32_MAX);
}

TEST(GlobalAdmission, OneControllerAdmitsOnPlatform) {
  // Global admission is one controller on Platform{4} (placement refuses
  // such a controller: tests/admission/test_placement.cpp). Density
  // 1.8 <= 4 - 3 * 0.6: GFB admits all three, where 4-processor
  // partitioned placement would have spread them out.
  AdmissionOptions ao;
  ao.platform = Platform{4};
  ao.return_certificate = true;
  AdmissionController global(ao);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(global.try_admit(tk(6, 10, 10)).admitted);
  }
  EXPECT_EQ(global.size(), 3u);
}

// ---------------------------------------------------------------------------
// Certificate mutation fuzz: corrupted multiprocessor certificates must
// fail the independent checker.
// ---------------------------------------------------------------------------

TEST(MultiCertificate, MutationsAreRejected) {
  std::size_t mutated_checked = 0;
  AdmissionOptions ao;
  ao.platform = Platform{2};
  ao.return_certificate = true;

  const std::size_t count = 8 * fuzz_multiplier();
  for (const TaskSet& ts : small_random_sets(count, 1.2, /*seed=*/90125)) {
    if (ts.empty()) continue;
    AdmissionController ctl(ao);
    GroupDecision gd = ctl.admit_group(std::vector<Task>(ts.begin(), ts.end()));
    if (!gd.admitted || !gd.certificate.multiprocessor()) continue;
    const TaskSet resident = ctl.resident();
    ASSERT_TRUE(verify(resident, gd.certificate).valid);

    // Mutation 1: claim a narrower platform than the accept was proven
    // on — the recomputation must not hold at the reduced width for a
    // set this dense (skip the rare sets that are feasible on m = 1).
    Certificate narrower = gd.certificate;
    narrower.processors = 1;
    const FeasibilityResult uni = simulate_global_feasibility(ts, 1);
    if (uni.infeasible()) {
      EXPECT_FALSE(verify(resident, narrower).valid)
          << "narrowed platform accepted:\n" << resident.to_string();
    }

    // Mutation 2: a window certificate that names no window test is
    // unverifiable — the checker recomputes the *named* condition and
    // must refuse when there is nothing to recompute.
    Certificate mismatched = gd.certificate;
    mismatched.kind = CertificateKind::MultiFeasibleWindow;
    mismatched.multi_test = MultiTest::None;
    EXPECT_FALSE(verify(resident, mismatched).valid);

    // Mutation 3: transplant onto a heavier set (every wcet = period):
    // utilization exceeds m, nothing feasible can be re-established.
    std::vector<Task> heavier(resident.begin(), resident.end());
    for (Task& t : heavier) t.wcet = 3 * t.period;
    EXPECT_FALSE(verify(TaskSet(heavier), gd.certificate).valid);

    // Mutation 4 (RTA form): shrink a claimed response bound below the
    // recomputed one / inflate past the deadline.
    if (gd.certificate.multi_test == MultiTest::Rta &&
        !gd.certificate.borders.empty()) {
      Certificate inflated = gd.certificate;
      inflated.borders[0] = resident[0].effective_deadline() + 1;
      EXPECT_FALSE(verify(resident, inflated).valid);
    }
    ++mutated_checked;
  }
  EXPECT_GT(mutated_checked, 0u);
}

TEST(MultiCertificate, QueryPlatformOutcomesVerify) {
  // The query-path equivalent of the admission test above: decided
  // multiprocessor outcomes through Query carry verifying certificates.
  std::size_t decided = 0;
  for (const TaskSet& ts : small_random_sets(10, 1.4, /*seed=*/3344)) {
    if (ts.empty()) continue;
    const Outcome out =
        Query::cascade(Platform{2}).run(Workload::periodic(ts));
    if (!out.decided) continue;
    ASSERT_TRUE(out.certificate.present()) << ts.to_string();
    const CertificateCheck check = verify(ts, out.certificate);
    EXPECT_TRUE(check.valid) << check.reason << "\n" << ts.to_string();
    ++decided;
  }
  EXPECT_GT(decided, 0u);
}

}  // namespace
}  // namespace edfkit
