#include "analysis/chakraborty.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../helpers.hpp"
#include "analysis/processor_demand.hpp"
#include "core/superpos.hpp"
#include "demand/approx.hpp"
#include "util/random.hpp"

namespace edfkit {
namespace {

using testing::set_of;
using testing::tk;

TEST(Chakraborty, EpsilonValidation) {
  const TaskSet ts = set_of({tk(1, 4, 8)});
  EXPECT_THROW((void)chakraborty_test(ts, 0.0), std::invalid_argument);
  EXPECT_THROW((void)chakraborty_test(ts, 1.5), std::invalid_argument);
  EXPECT_NO_THROW((void)chakraborty_test(ts, 1.0));
  // The level ceiling: k = ceil(1/epsilon) <= kMaxApproxLevel. One step
  // below the floor, and far below it, are refused before any cast.
  const double floor = 1.0 / static_cast<double>(kMaxApproxLevel);
  EXPECT_DOUBLE_EQ(chakraborty_test(ts, floor).epsilon, floor);
  EXPECT_THROW((void)chakraborty_test(ts, std::nextafter(floor, 0.0)),
               std::invalid_argument);
  EXPECT_THROW((void)chakraborty_test(ts, 1e-300), std::invalid_argument);
}

TEST(Chakraborty, EpsilonRoundsToReciprocalInteger) {
  const TaskSet ts = set_of({tk(1, 4, 8)});
  EXPECT_DOUBLE_EQ(chakraborty_test(ts, 0.3).epsilon, 0.25);  // k = 4
  EXPECT_DOUBLE_EQ(chakraborty_test(ts, 0.5).epsilon, 0.5);   // k = 2
}

TEST(Chakraborty, AcceptsEasySet) {
  const TaskSet ts = set_of({tk(1, 6, 8), tk(1, 10, 12)});
  const ChakrabortyResult r = chakraborty_test(ts, 0.25);
  EXPECT_EQ(r.base.verdict, Verdict::Feasible);
  EXPECT_LE(r.demand_ratio, 1.0);
}

TEST(Chakraborty, RejectionIsUnknownNotInfeasible) {
  const TaskSet ts = set_of({tk(9, 5, 10), tk(5, 55, 100)});
  const ChakrabortyResult r = chakraborty_test(ts, 0.5);
  EXPECT_EQ(r.base.verdict, Verdict::Unknown);
  EXPECT_GT(r.demand_ratio, 1.0);
}

TEST(Chakraborty, UtilizationOverload) {
  const ChakrabortyResult r =
      chakraborty_test(set_of({tk(9, 8, 8)}), 0.25);
  EXPECT_EQ(r.base.verdict, Verdict::Infeasible);
}

/// The epsilon-test is SuperPos(ceil(1/epsilon)) on the shared sweep:
/// same verdict, effort and reach, on coarse periods and on the paper's
/// tick-resolution ones alike.
TEST(Chakraborty, RunsTheSuperpositionSweepAtLevelK) {
  Rng rng(3);
  for (int i = 0; i < 80; ++i) {
    const TaskSet ts = i % 2 == 0 ? draw_small_set(rng, rng.uniform(0.5, 1.0))
                                  : draw_fig8_set(rng, rng.uniform(0.9, 0.99));
    for (const double eps : {1.0, 0.5, 0.25, 0.1}) {
      const ChakrabortyResult c = chakraborty_test(ts, eps);
      const FeasibilityResult s =
          superpos_test(ts, static_cast<Time>(std::ceil(1.0 / eps)));
      EXPECT_EQ(c.base.verdict, s.verdict) << "eps=" << eps << "\n"
                                           << ts.to_string();
      EXPECT_EQ(c.base.iterations, s.iterations) << "eps=" << eps;
      EXPECT_EQ(c.base.max_interval_tested, s.max_interval_tested)
          << "eps=" << eps;
    }
  }
}

/// Realistic periods (Fig. 8: 5-100 tasks, periods 1e4-1e6, U 0.90-0.99)
/// are decided without degrading, and every acceptance is exact-feasible.
TEST(Chakraborty, DecidesPaperSetsWithoutDegrading) {
  Rng rng(1);
  int accepted = 0;
  for (int i = 0; i < 200; ++i) {
    const TaskSet ts = draw_fig8_set(rng, rng.uniform(0.9, 0.99));
    const ChakrabortyResult r = chakraborty_test(ts, 0.25);
    EXPECT_FALSE(r.base.degraded) << ts.to_string();
    if (r.base.feasible()) {
      ++accepted;
      EXPECT_LE(r.demand_ratio, 1.0);
      EXPECT_EQ(processor_demand_test(ts).verdict, Verdict::Feasible)
          << ts.to_string();
    } else {
      EXPECT_GT(r.demand_ratio, 1.0);
    }
  }
  EXPECT_GT(accepted, 0);
}

/// Soundness + monotonicity: acceptance implies exact feasibility and a
/// smaller epsilon never loses acceptance.
class ChakrabortyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChakrabortyProperty, SoundAndMonotoneInEpsilon) {
  Rng rng(GetParam());
  for (int i = 0; i < 25; ++i) {
    const TaskSet ts = draw_small_set(rng, rng.uniform(0.5, 1.0));
    const bool coarse = chakraborty_test(ts, 0.5).base.feasible();
    const bool mid = chakraborty_test(ts, 0.25).base.feasible();
    const bool fine = chakraborty_test(ts, 0.125).base.feasible();
    if (coarse) {
      EXPECT_TRUE(mid) << ts.to_string();
    }
    if (mid) {
      EXPECT_TRUE(fine) << ts.to_string();
    }
    if (coarse || mid || fine) {
      EXPECT_EQ(processor_demand_test(ts).verdict, Verdict::Feasible)
          << ts.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChakrabortyProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace edfkit
