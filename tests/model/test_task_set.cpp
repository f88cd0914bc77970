#include "model/task_set.hpp"

#include <gtest/gtest.h>

#include <array>

#include "../helpers.hpp"

namespace edfkit {
namespace {

using testing::set_of;
using testing::tk;

TEST(TaskSet, AggregatesBasics) {
  const TaskSet ts = set_of({tk(1, 4, 8), tk(2, 6, 12), tk(3, 20, 24)});
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.total_wcet(), 6);
  EXPECT_EQ(ts.max_deadline(), 20);
  EXPECT_EQ(ts.min_deadline(), 4);
  EXPECT_EQ(ts.max_period(), 24);
  EXPECT_EQ(ts.min_period(), 8);
  EXPECT_EQ(ts.hyperperiod(), 24);
  // 1/8 + 2/12 + 3/24 = 3/24 + 4/24 + 3/24 = 5/12
  EXPECT_EQ(ts.utilization().to_string(), "5/12");
}

TEST(TaskSet, EmptySet) {
  const TaskSet ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_TRUE(ts.utilization().is_zero());
  EXPECT_EQ(ts.max_deadline(), 0);
  EXPECT_EQ(ts.min_deadline(), kTimeInfinity);
  EXPECT_EQ(ts.hyperperiod(), 1);
}

TEST(TaskSet, AddValidatesAndInvalidatesCaches) {
  TaskSet ts;
  ts.add(tk(1, 4, 8));
  EXPECT_EQ(ts.utilization().to_string(), "1/8");
  ts.add(tk(1, 8, 8));
  EXPECT_EQ(ts.utilization().to_string(), "1/4");  // cache refreshed
  Task bad = tk(0, 1, 1);
  EXPECT_THROW(ts.add(bad), std::invalid_argument);
}

TEST(TaskSet, ConstructorRejectsInvalidTask) {
  EXPECT_THROW(TaskSet({tk(1, 2, 3), tk(0, 1, 1)}), std::invalid_argument);
}

TEST(TaskSet, HyperperiodSaturatesOnCoprimeGiants) {
  const TaskSet ts =
      set_of({tk(1, 999'999'937, 999'999'937),   // large prime
              tk(1, 999'999'893, 999'999'893),   // another large prime
              tk(1, 999'999'761, 999'999'761)});
  EXPECT_TRUE(is_time_infinite(ts.hyperperiod()));
}

TEST(TaskSet, ConstrainedDetection) {
  EXPECT_TRUE(set_of({tk(1, 8, 8), tk(1, 3, 9)}).constrained_deadlines());
  EXPECT_FALSE(set_of({tk(1, 10, 8)}).constrained_deadlines());
}

TEST(TaskSet, ByDeadlineIsStableSorted) {
  const TaskSet ts = set_of({tk(1, 9, 10), tk(2, 3, 10), tk(3, 9, 20)});
  const auto& idx = ts.by_deadline();
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 0u);  // ties keep original order (stable)
  EXPECT_EQ(idx[2], 2u);
}

TEST(TaskSet, ScaledMultipliesEverything) {
  TaskSet ts = set_of({tk(1, 4, 8)});
  const TaskSet s = ts.scaled(10);
  EXPECT_EQ(s[0].wcet, 10);
  EXPECT_EQ(s[0].deadline, 40);
  EXPECT_EQ(s[0].period, 80);
  // Utilization is invariant under scaling.
  EXPECT_EQ(s.utilization().to_string(), ts.utilization().to_string());
  EXPECT_THROW((void)ts.scaled(0), std::invalid_argument);
}

TEST(TaskSet, EqualityAndToString) {
  const TaskSet a = set_of({tk(1, 2, 3)});
  const TaskSet b = set_of({tk(1, 2, 3)});
  EXPECT_EQ(a, b);
  EXPECT_NE(a.to_string().find("n=1"), std::string::npos);
}

TEST(TaskSet, UtilizationStaysExactForManySharedFactorPeriods) {
  TaskSet ts;
  for (int i = 0; i < 100; ++i) {
    ts.add(tk(1, 50 + i % 20, 100 + 10 * (i % 10)));
  }
  EXPECT_TRUE(ts.utilization().exact());
}

TEST(TaskSet, UtilizationStaysCurrentThroughChurn) {
  // add and swap_remove keep the exact sum equal to a fresh one.
  Rng rng(5);
  TaskSet ts;
  for (int op = 0; op < 2000; ++op) {
    if (!ts.empty() && rng.bernoulli(0.45)) {
      ts.swap_remove(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(ts.size()) - 1)));
    } else {
      // Periods divide 240, so the exact sum never overflows.
      constexpr std::array<Time, 6> kPeriods = {40, 48, 60, 80, 120, 240};
      ts.add(tk(rng.uniform_time(1, 5), 40,
                kPeriods[static_cast<std::size_t>(rng.uniform_int(0, 5))]));
    }
    const TaskSet fresh(std::vector<Task>(ts.begin(), ts.end()));
    ASSERT_TRUE(ts.utilization().exact());
    ASSERT_EQ(ts.utilization(), fresh.utilization()) << "op " << op;
  }
}

TEST(TaskSet, UtilizationTurnsExactAgainAfterOverflow) {
  // Four near-coprime periods around 10^6 overflow the exact sum (its
  // denominator passes 2^63); after a removal the three that are left
  // sum exactly again.
  constexpr Time kBase = 1'000'000;
  TaskSet ts;
  for (Time k = 1; k <= 4; ++k) ts.add(tk(1, kBase + k, kBase + k));
  ASSERT_FALSE(ts.utilization().exact());
  ts.swap_remove(0);
  ASSERT_TRUE(ts.utilization().exact());
  EXPECT_EQ(ts.utilization(),
            TaskSet(std::vector<Task>(ts.begin(), ts.end())).utilization());
}

}  // namespace
}  // namespace edfkit
