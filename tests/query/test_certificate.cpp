#include "query/certificate.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>

#include "../helpers.hpp"
#include "core/all_approx.hpp"
#include "demand/dbf.hpp"
#include "query/query.hpp"

namespace edfkit {
namespace {

using testing::paper_random_sets;
using testing::set_of;
using testing::small_random_sets;
using testing::tk;

TEST(Certificate, EveryExactDecisiveOutcomeCarriesAValidCertificate) {
  // The acceptance criterion of the query API: fuzzed task sets, every
  // exact backend, every decisive outcome ships evidence the independent
  // checker signs off on.
  std::size_t feasible_seen = 0;
  std::size_t infeasible_seen = 0;
  for (const double u : {0.7, 0.95, 1.05}) {
    for (const TaskSet& ts : small_random_sets(12, u, /*seed=*/421)) {
      if (ts.empty()) continue;
      for (const TestKind k : BackendRegistry::instance().exact_kinds()) {
        const Outcome out = Query::single(k).run(Workload::periodic(ts));
        ASSERT_TRUE(out.decided) << to_string(k);
        ASSERT_TRUE(out.certificate.present()) << to_string(k);
        const CertificateCheck check = verify(ts, out.certificate);
        EXPECT_TRUE(check.valid)
            << to_string(k) << ": " << check.reason << "\n" << ts.to_string();
        (out.feasible() ? feasible_seen : infeasible_seen) += 1;
      }
    }
  }
  // The fuzz family must exercise both verdicts to mean anything.
  EXPECT_GT(feasible_seen, 0u);
  EXPECT_GT(infeasible_seen, 0u);
}

TEST(Certificate, PaperSizedSetsCertifyToo) {
  for (const TaskSet& ts : paper_random_sets(6, 0.9, /*seed=*/77)) {
    const Outcome out =
        Query::single(TestKind::AllApprox).run(Workload::periodic(ts));
    ASSERT_TRUE(out.decided);
    ASSERT_TRUE(out.certificate.present());
    const CertificateCheck check = verify(ts, out.certificate);
    EXPECT_TRUE(check.valid) << check.reason;
  }
}

TEST(Certificate, MutatedFeasibleBordersAreRejected) {
  std::size_t mutated_checked = 0;
  for (const TaskSet& ts : small_random_sets(10, 0.85, /*seed=*/11)) {
    const Outcome out =
        Query::single(TestKind::Qpa).run(Workload::periodic(ts));
    if (!out.feasible() ||
        out.certificate.kind != CertificateKind::FeasibleBorders) {
      continue;
    }
    ASSERT_TRUE(verify(ts, out.certificate).valid);

    // Mutation 1: push a border below the task's first deadline — no
    // longer a job deadline, whatever the period lattice.
    Certificate off = out.certificate;
    off.borders[0] = ts[0].effective_deadline() - 1;
    EXPECT_FALSE(verify(ts, off).valid);

    // Mutation 2: drop a border (count mismatch).
    Certificate dropped = out.certificate;
    dropped.borders.pop_back();
    EXPECT_FALSE(verify(ts, dropped).valid);

    // Mutation 3: transplant the certificate onto a heavier workload —
    // the replayed demand comparison must catch it.
    std::vector<Task> heavier(ts.begin(), ts.end());
    for (Task& t : heavier) t.wcet = t.period;  // drive demand to U >= 1
    Certificate transplanted = out.certificate;
    EXPECT_FALSE(verify(TaskSet(heavier), transplanted).valid);
    ++mutated_checked;
  }
  EXPECT_GT(mutated_checked, 0u);
}

TEST(Certificate, MutatedWitnessIsRejected) {
  // U = 3/8 + 5/12 < 1 but dbf(6) = 3 + 5 = 8 > 6: a genuine demand
  // overflow, so the witness (not the overload) form is emitted.
  const TaskSet ts = set_of({tk(3, 4, 8), tk(5, 6, 12)});
  const Outcome out =
      Query::single(TestKind::ProcessorDemand).run(Workload::periodic(ts));
  ASSERT_TRUE(out.infeasible());
  ASSERT_EQ(out.certificate.kind, CertificateKind::InfeasibleWitness);
  ASSERT_TRUE(verify(ts, out.certificate).valid);

  // An interval where demand fits is no witness.
  Certificate bogus = out.certificate;
  bogus.witness = 1;  // dbf(1) == 0 <= 1
  EXPECT_FALSE(verify(ts, bogus).valid);
  bogus.witness = -5;
  EXPECT_FALSE(verify(ts, bogus).valid);
}

TEST(Certificate, OverloadCertificateChecksUtilization) {
  const TaskSet over = set_of({tk(7, 8, 8), tk(3, 10, 10)});  // U > 1
  const Outcome out =
      Query::single(TestKind::Qpa).run(Workload::periodic(over));
  ASSERT_TRUE(out.infeasible());
  ASSERT_EQ(out.certificate.kind, CertificateKind::InfeasibleOverload);
  EXPECT_TRUE(verify(over, out.certificate).valid);

  // The same claim against a U < 1 set must be rejected.
  const TaskSet light = set_of({tk(1, 8, 8)});
  EXPECT_FALSE(verify(light, out.certificate).valid);
}

TEST(Certificate, ExhaustiveFormVerifiesAndDetectsShrunkBound) {
  const TaskSet ts = set_of({tk(2, 6, 8), tk(3, 10, 12), tk(4, 20, 24)});
  // Force the exhaustive fallback with a zero-step cap.
  const auto cert = build_feasibility_certificate(ts, /*step_cap=*/0);
  ASSERT_TRUE(cert.has_value());
  ASSERT_EQ(cert->kind, CertificateKind::FeasibleExhaustive);
  EXPECT_TRUE(verify(ts, *cert).valid);

  Certificate shrunk = *cert;
  shrunk.bound = 1;  // below the checker's own sound horizon
  EXPECT_FALSE(verify(ts, shrunk).valid);

  // Transplanting onto an infeasible set fails the replay.
  const TaskSet bad = set_of({tk(3, 4, 8), tk(5, 6, 12)});
  EXPECT_FALSE(verify(bad, *cert).valid);
}

TEST(Certificate, BuilderRefusesInfeasibleSets) {
  // Demand overflow under U < 1: the sweep runs out of approximations at
  // the failing interval and must refuse to certify.
  const TaskSet bad = set_of({tk(3, 4, 8), tk(5, 6, 12)});
  EXPECT_FALSE(build_feasibility_certificate(bad).has_value());
  const TaskSet over = set_of({tk(9, 8, 8)});  // U > 1
  EXPECT_FALSE(build_feasibility_certificate(over).has_value());
}

TEST(Certificate, EmptySetHasTrivialBordersCertificate) {
  const TaskSet empty;
  const auto cert = build_feasibility_certificate(empty);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->kind, CertificateKind::FeasibleBorders);
  EXPECT_TRUE(verify(empty, *cert).valid);
}

TEST(Certificate, NoneNeverVerifies) {
  const TaskSet ts = set_of({tk(1, 4, 8)});
  EXPECT_FALSE(verify(ts, Certificate{}).valid);
}

TEST(Certificate, StreamWorkloadCertificatesVerifyAgainstExpansion) {
  std::vector<EventStreamTask> streams;
  streams.push_back(
      EventStreamTask{EventStream::bursty(200, 4, 5), 8, 40, "irq"});
  streams.push_back(
      EventStreamTask{EventStream::periodic(50), 11, 45, "worker"});
  const Workload w = Workload::event_streams(streams);
  const Outcome out = Query::single(TestKind::AllApprox).run(w);
  ASSERT_TRUE(out.decided);
  ASSERT_TRUE(out.certificate.present());
  EXPECT_TRUE(verify(w, out.certificate).valid);
}

// ------------------------------------------- resumed all-approx sweeps

/// Same presence, kind, bound, witness and borders.
void expect_same(const std::optional<Certificate>& got,
                 const std::optional<Certificate>& want,
                 const TaskSet& ts) {
  ASSERT_EQ(got.has_value(), want.has_value()) << ts.to_string();
  if (!got) return;
  EXPECT_EQ(got->kind, want->kind) << ts.to_string();
  EXPECT_EQ(got->bound, want->bound) << ts.to_string();
  EXPECT_EQ(got->witness, want->witness) << ts.to_string();
  EXPECT_EQ(got->borders, want->borders) << ts.to_string();
}

/// Fig. 8-sized and small sets near U = 1, where revisions are common.
std::vector<TaskSet> resume_pool() {
  std::vector<TaskSet> pool = paper_random_sets(24, 0.97, /*seed=*/5);
  for (const double u : {0.9, 0.99}) {
    for (TaskSet& ts : small_random_sets(24, u, /*seed=*/13)) {
      pool.push_back(std::move(ts));
    }
  }
  return pool;
}

/// Steps a fresh FIFO sweep takes to drain `ts`, when it drains within
/// the default certificate step cap.
std::optional<std::uint64_t> drain_steps(const TaskSet& ts) {
  const PreparedSet ps(ts);
  AllApproxSweep sweep(ps, RevisionPolicy::Fifo);
  if (sweep.run(AllApproxSweep::kNoBound, nullptr,
                ResourceLimits{}.certificate_step_cap) !=
      AllApproxSweep::Stop::Drained) {
    return std::nullopt;
  }
  return sweep.steps();
}

TEST(CertificateResume, BoundStoppedSweepDrainsToTheFromScratchCertificate) {
  std::size_t resumed = 0;
  for (const TaskSet& ts : resume_pool()) {
    // A small user bound stops the run early; the default bound stops
    // it where the query's all-approx backend does.
    for (const std::optional<Time> bound :
         {std::optional<Time>(ts.min_deadline()), std::optional<Time>()}) {
      const PreparedSet ps(ts);
      AllApproxOptions opts;
      opts.bound = bound;
      const FeasibilityResult r = all_approx_test(ps, opts);
      if (!r.feasible()) continue;
      const AllApproxSweep* sweep = ps.resumable_sweep();
      ASSERT_NE(sweep, nullptr);
      EXPECT_EQ(sweep->steps(), r.effort());
      resumed += r.effort() > 0 ? 1 : 0;
      const auto fresh = build_feasibility_certificate(ts);
      expect_same(build_feasibility_certificate(ps), fresh, ts);
      // A bound below the first overflow reads Feasible on an infeasible
      // set; its drain overflows and certifies nothing, like a fresh one.
      if (!fresh || fresh->kind != CertificateKind::FeasibleBorders) continue;
      // The certificate drained the run's own sweep, not a second one.
      EXPECT_EQ(sweep, ps.resumable_sweep());
      EXPECT_EQ(sweep->steps(), drain_steps(ts));
    }
  }
  EXPECT_GT(resumed, 20u);
}

TEST(CertificateResume, CancelledSweepResumesWhereItStopped) {
  std::size_t cancelled = 0;
  for (const TaskSet& ts : resume_pool()) {
    // Cancelled before its first step, through the test's stop token.
    {
      const PreparedSet ps(ts);
      const std::atomic<bool> stop{true};
      AllApproxOptions opts;
      opts.stop = &stop;
      const FeasibilityResult r = all_approx_test(ps, opts);
      if (ps.utilization_exceeds_one()) continue;
      ASSERT_TRUE(r.cancelled);
      ASSERT_NE(ps.resumable_sweep(), nullptr);
      expect_same(build_feasibility_certificate(ps),
                  build_feasibility_certificate(ts), ts);
    }
    // Cancelled mid-sweep: paused at a bound, then stopped on resume.
    const PreparedSet ps(ts);
    AllApproxSweep* sweep = ps.claim_sweep();
    ASSERT_NE(sweep, nullptr);
    if (sweep->run(ps.implicit_test_bound() / 2) !=
        AllApproxSweep::Stop::Bound) {
      continue;
    }
    const std::atomic<bool> stop{true};
    ASSERT_EQ(sweep->run(AllApproxSweep::kNoBound, &stop),
              AllApproxSweep::Stop::Cancelled);
    ++cancelled;
    expect_same(build_feasibility_certificate(ps),
                build_feasibility_certificate(ts), ts);
  }
  EXPECT_GT(cancelled, 10u);
}

TEST(CertificateResume, PortfolioCertificatesMatchFromScratch) {
  // Whatever point the race cancels the all-approx backend at, the
  // certificate it resumes is the from-scratch one.
  const Query q = Query::portfolio();
  for (const TaskSet& ts : resume_pool()) {
    const Outcome out = q.run(ts);
    ASSERT_TRUE(out.decided);
    if (!out.feasible()) continue;
    expect_same(out.certificate, build_feasibility_certificate(ts), ts);
  }
}

TEST(CertificateResume, StepCapTripsMidResumeToTheExhaustiveForm) {
  std::size_t mid_resume = 0;
  for (const TaskSet& ts : resume_pool()) {
    const FeasibilityResult r = all_approx_test(ts);
    const auto drained = drain_steps(ts);
    if (!r.feasible() || !drained) continue;
    const std::uint64_t run_steps = r.effort();
    const std::uint64_t total = *drained;
    // Caps below the run's own steps, between its steps and the drain's,
    // and at the drain's total (the last one certifies by borders).
    for (const std::uint64_t cap :
         {run_steps / 2, run_steps + (total - run_steps) / 2, total}) {
      ResourceLimits limits;
      limits.certificate_step_cap = cap;
      const Outcome out =
          Query::single(TestKind::AllApprox).with_limits(limits).run(ts);
      const auto fresh = build_feasibility_certificate(ts, cap);
      expect_same(out.certificate, fresh, ts);
      const bool trips_mid_resume = run_steps < cap && cap < total;
      if (trips_mid_resume) {
        EXPECT_EQ(out.certificate.kind, CertificateKind::FeasibleExhaustive);
        mid_resume += 1;
      }
      if (cap == total) {
        EXPECT_EQ(out.certificate.kind, CertificateKind::FeasibleBorders);
      }
      EXPECT_TRUE(verify(ts, out.certificate).valid);
    }
  }
  // Most runs drain before their bound; the pool must still hold sets
  // that revise past it.
  EXPECT_GT(mid_resume, 0u);
}

TEST(CertificateResume, LifoAndMaxErrorRunsAreNotResumed) {
  for (const TaskSet& ts : resume_pool()) {
    for (const RevisionPolicy policy :
         {RevisionPolicy::Lifo, RevisionPolicy::MaxError}) {
      const PreparedSet ps(ts);
      AllApproxOptions opts;
      opts.revision = policy;
      (void)all_approx_test(ps, opts);
      EXPECT_EQ(ps.resumable_sweep(), nullptr);
      expect_same(build_feasibility_certificate(ps),
                  build_feasibility_certificate(ts), ts);

      const Outcome out =
          Query::single(TestKind::AllApprox, opts).run(ts);
      if (out.feasible()) {
        expect_same(out.certificate, build_feasibility_certificate(ts), ts);
      }
    }
  }
}

}  // namespace
}  // namespace edfkit
