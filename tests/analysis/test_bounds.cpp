#include "analysis/bounds.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "demand/dbf.hpp"
#include "util/random.hpp"

namespace edfkit {
namespace {

using testing::set_of;
using testing::tk;

TEST(Bounds, GeorgeKnownValue) {
  // Single task C=2, D=6, T=10: B = (1 - 6/10)*2 / (1 - 0.2) = 0.8/0.8 = 1.
  const TaskSet ts = set_of({tk(2, 6, 10)});
  const auto g = george_bound(ts);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(*g, 1);
}

TEST(Bounds, BaruahKnownValue) {
  // U/(1-U) * max(T-D) = 0.2/0.8 * 4 = 1.
  const TaskSet ts = set_of({tk(2, 6, 10)});
  const auto b = baruah_bound(ts);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, 1);
}

TEST(Bounds, BaruahInapplicableForArbitraryDeadlines) {
  const TaskSet ts = set_of({tk(2, 15, 10)});
  EXPECT_FALSE(baruah_bound(ts).has_value());
  EXPECT_TRUE(george_bound(ts).has_value());
}

TEST(Bounds, NoneAtFullUtilization) {
  const TaskSet ts = set_of({tk(5, 8, 8), tk(3, 6, 6)});  // U > 1
  EXPECT_FALSE(george_bound(ts).has_value());
  EXPECT_FALSE(baruah_bound(ts).has_value());
  EXPECT_FALSE(superposition_bound(ts).has_value());
}

TEST(Bounds, SuperpositionAtLeastDmax) {
  const TaskSet ts = set_of({tk(1, 100, 1000), tk(1, 5000, 100000)});
  const auto s = superposition_bound(ts);
  ASSERT_TRUE(s.has_value());
  EXPECT_GE(*s, 5000);
}

TEST(Bounds, SuperpositionEqualsGeorgePlusDmaxClampWhenConstrained) {
  // For constrained deadlines the signed sum equals George's sum.
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const TaskSet ts = draw_small_set(rng, rng.uniform(0.3, 0.95));
    const auto g = george_bound(ts);
    const auto s = superposition_bound(ts);
    if (!g || !s) continue;
    EXPECT_EQ(*s, std::max(ts.max_deadline(), *g));
  }
}

TEST(Bounds, BusyPeriodFixpoint) {
  // C=2,T=4 and C=3,T=6: w0=5, rbf(5)=2*2+3=7, rbf(7)=4+6=10, rbf(10)=
  // ceil(10/4)*2 + ceil(10/6)*3 = 6+6=12, rbf(12)=6+6=12 -> L=12.
  const TaskSet ts = set_of({tk(2, 4, 4), tk(3, 6, 6)});
  const auto l = busy_period(ts);
  ASSERT_TRUE(l.has_value());
  EXPECT_EQ(*l, 12);
}

TEST(Bounds, BusyPeriodRefusesOverload) {
  const TaskSet ts = set_of({tk(5, 4, 4)});
  EXPECT_FALSE(busy_period(ts).has_value());
}

TEST(Bounds, BusyPeriodRespectsCap) {
  const TaskSet ts = set_of({tk(2, 4, 4), tk(3, 6, 6)});
  EXPECT_FALSE(busy_period(ts, 10).has_value());
}

TEST(Bounds, HyperperiodBound) {
  const TaskSet ts = set_of({tk(1, 4, 8), tk(1, 6, 12)});
  EXPECT_EQ(hyperperiod_bound(ts), 24 + 6);
}

TEST(Bounds, ImplicitBoundAtLeastDmax) {
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    const TaskSet ts = draw_small_set(rng, 0.9);
    EXPECT_GE(implicit_test_bound(ts), ts.max_deadline());
    EXPECT_GE(implicit_test_bound(ts), default_test_bound(ts));
  }
}

TEST(Bounds, ScaledFallbackStaysFinite) {
  // Rational-overflowing set with U < 1: the certified fallback must
  // still deliver a finite George bound.
  Rng rng(13);
  TaskSet ts;
  for (int i = 0; i < 300; ++i) {
    const Time t = rng.uniform_time(1'000'000'000, 2'000'000'000);
    ts.add(tk(t / 1000, (t / 10) * 9, t));
  }
  ASSERT_FALSE(ts.utilization().exact());
  const auto g = george_bound(ts);
  ASSERT_TRUE(g.has_value());
  EXPECT_FALSE(is_time_infinite(*g));
  EXPECT_FALSE(is_time_infinite(default_test_bound(ts)));
}

TEST(Bounds, DefaultBoundIsTheClosedFormMinimumWhenTheRationalOverflows) {
  // default_test_bound derives the scaled utilization and George's
  // certified bound once for all three closed forms; on Fig. 8 sets,
  // whose exact 1 - U overflows, it must still return the minimum of
  // the three standalone bounds.
  Rng rng(20050318);
  int checked = 0;
  for (int i = 0; checked < 200; ++i) {
    ASSERT_LT(i, 2000) << "too few Fig. 8 sets overflow the rational";
    const TaskSet ts = draw_fig8_set(rng, 0.90 + 0.01 * (i % 10));
    Rational slack(Time{1});
    slack -= ts.utilization();
    if (slack.exact()) continue;
    ++checked;
    Time expected = kTimeInfinity;
    for (const std::optional<Time>& b :
         {baruah_bound(ts), george_bound(ts), superposition_bound(ts)}) {
      if (b) expected = std::min(expected, *b);
    }
    if (is_time_infinite(expected)) expected = hyperperiod_bound(ts);
    EXPECT_EQ(default_test_bound(ts), expected) << ts.to_string();
  }
}

/// The defining property of a feasibility bound: no demand overflow at or
/// beyond it. Verified against brute force on a window past the bound.
class BoundSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundSoundness, NoOverflowBeyondDefaultBound) {
  Rng rng(GetParam());
  const TaskSet ts = draw_small_set(rng, rng.uniform(0.6, 1.0));
  if (ts.utilization().certainly_gt(Time{1})) return;
  const Time bound = default_test_bound(ts);
  // Any overflow the brute force finds within 4x the bound must lie
  // within the bound itself.
  const Time probe_to = std::min<Time>(4 * bound + 100, 5000);
  const Time w = first_overflow_brute(ts, probe_to);
  if (w >= 0) {
    EXPECT_LE(w, bound) << "counterexample past the claimed bound!\n"
                        << ts.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundSoundness,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace edfkit
