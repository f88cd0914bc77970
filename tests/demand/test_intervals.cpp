#include "demand/intervals.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <set>

#include "../helpers.hpp"
#include "util/random.hpp"

namespace edfkit {
namespace {

TEST(TestList, PopsInAscendingOrderWithTaskTiebreak) {
  TestList list;
  list.add(2, 30);
  list.add(0, 10);
  list.add(1, 30);
  list.add(3, 20);
  ASSERT_EQ(list.size(), 4u);
  auto e = list.pop();
  EXPECT_EQ(e.interval, 10);
  EXPECT_EQ(e.task, 0u);
  e = list.pop();
  EXPECT_EQ(e.interval, 20);
  e = list.pop();
  EXPECT_EQ(e.interval, 30);
  EXPECT_EQ(e.task, 1u);  // ties by task index
  e = list.pop();
  EXPECT_EQ(e.interval, 30);
  EXPECT_EQ(e.task, 2u);
  EXPECT_TRUE(list.empty());
}

TEST(TestList, ReplaceTopOnOneElementList) {
  TestList list;
  list.add(4, 100);
  list.replace_top(7, 250);
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list.peek().interval, 250);
  EXPECT_EQ(list.peek().task, 7u);
  const auto e = list.pop();
  EXPECT_EQ(e.interval, 250);
  EXPECT_EQ(e.task, 7u);
  EXPECT_TRUE(list.empty());
}

/// Differential: seeded random interleavings of add / pop / peek /
/// replace_top / rearm_top against a std::priority_queue reference,
/// with heavy interval ties (task index breaks them), sizes up to 200
/// and intervals next to kTimeInfinity. Every pop must match.
class TestListDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(TestListDifferential, MatchesPriorityQueue) {
  using Entry = TestList::Entry;
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const int target = rng.uniform_int(1, 200);
    // Few distinct intervals force ties; the high band sits just below
    // kTimeInfinity.
    const Time spread = rng.bernoulli(0.5) ? 3 : 1000;
    const Time base = rng.bernoulli(0.3) ? kTimeInfinity - spread : 0;
    const auto draw = [&]() {
      return Entry{base + rng.uniform_time(0, spread),
                   static_cast<std::size_t>(rng.uniform_int(0, 63))};
    };
    TestList list;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ref;
    for (int op = 0; op < 6 * target; ++op) {
      ASSERT_EQ(list.size(), ref.size());
      const int grow = static_cast<int>(list.size()) < target ? 3 : 1;
      const int kind = rng.uniform_int(0, 4 + grow);
      if (list.empty() || kind >= 5) {
        const Entry e = draw();
        list.add(e.task, e.interval);
        ref.push(e);
      } else if (kind == 0) {
        const Entry got = list.pop();
        ASSERT_EQ(got.interval, ref.top().interval) << "op " << op;
        ASSERT_EQ(got.task, ref.top().task) << "op " << op;
        ref.pop();
      } else if (kind == 1) {
        ASSERT_EQ(list.peek().interval, ref.top().interval) << "op " << op;
        ASSERT_EQ(list.peek().task, ref.top().task) << "op " << op;
      } else if (kind == 4) {
        // Re-arm at interval + T: a one-shot, a period that saturates
        // near kTimeInfinity, or one that may pass the bound.
        const Entry top = ref.top();
        const Time period = rng.bernoulli(0.2)   ? kTimeInfinity
                            : rng.bernoulli(0.5) ? spread
                                                 : rng.uniform_time(1, 4);
        const Time bound = rng.bernoulli(0.5) ? kTimeInfinity
                                              : base + spread;
        list.rearm_top(period, bound);
        ref.pop();
        const Time next = add_saturating(top.interval, period);
        if (next <= bound && !is_time_infinite(next)) {
          ref.push(Entry{next, top.task});
        }
      } else {
        // The sweeps' re-arm: the same task or another, at or after the
        // popped interval or (for a general heap) before it.
        Entry e = draw();
        if (kind == 2) {
          e.task = list.peek().task;
          e.interval = std::max(e.interval, list.peek().interval);
        }
        list.replace_top(e.task, e.interval);
        ref.pop();
        ref.push(e);
      }
    }
    while (!ref.empty()) {
      const Entry got = list.pop();
      ASSERT_EQ(got.interval, ref.top().interval);
      ASSERT_EQ(got.task, ref.top().task);
      ref.pop();
    }
    ASSERT_TRUE(list.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TestListDifferential,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(DeadlineStream, EnumeratesDistinctDeadlines) {
  const TaskSet ts = testing::set_of(
      {testing::tk(1, 4, 8), testing::tk(1, 4, 12), testing::tk(1, 6, 10)});
  DeadlineStream stream(ts, 30);
  std::vector<Time> got;
  while (stream.has_next()) got.push_back(stream.next());
  // Deadlines: task0: 4,12,20,28; task1: 4,16,28; task2: 6,16,26.
  const std::vector<Time> expect = {4, 6, 12, 16, 20, 26, 28};
  EXPECT_EQ(got, expect);
}

TEST(DeadlineStream, EmptyWhenBoundBelowFirstDeadline) {
  const TaskSet ts = testing::set_of({testing::tk(1, 9, 10)});
  DeadlineStream stream(ts, 8);
  EXPECT_FALSE(stream.has_next());
}

/// Property: the stream equals brute-force enumeration of all job
/// deadlines, deduplicated and sorted.
class DeadlineStreamProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DeadlineStreamProperty, MatchesBruteForce) {
  Rng rng(GetParam());
  const TaskSet ts = draw_small_set(rng, 0.7);
  const Time bound = rng.uniform_time(10, 400);

  std::set<Time> brute;
  for (const Task& t : ts) {
    for (Time k = 0;; ++k) {
      const Time d = t.job_deadline(k);
      if (d > bound) break;
      brute.insert(d);
    }
  }
  DeadlineStream stream(ts, bound);
  std::vector<Time> got;
  while (stream.has_next()) got.push_back(stream.next());
  EXPECT_EQ(got, std::vector<Time>(brute.begin(), brute.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeadlineStreamProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace edfkit
