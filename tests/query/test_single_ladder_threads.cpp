// Its own test binary: the process must run nothing but Single and
// Ladder queries, so no other test may start the fork-join pool first.
#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>

#include "../helpers.hpp"
#include "admission/controller.hpp"
#include "query/query.hpp"

namespace edfkit {
namespace {

using testing::small_random_sets;
using testing::tk;

std::ptrdiff_t thread_count() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator());
}

TEST(SingleLadderThreads, StartNoPoolThread) {
  // The admission server's decisions are Single and Ladder queries; the
  // pool that Batch and Portfolio run on must never start for them.
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task on this host";
  }
  const std::ptrdiff_t before = thread_count();
  for (const TaskSet& ts : small_random_sets(40, 0.9, /*seed=*/3)) {
    EXPECT_TRUE(Query::single(TestKind::Qpa).run(ts).decided);
    (void)Query::ladder().run(ts);
    (void)Query::cascade(Platform{}).run(ts);
  }
  AdmissionController ctl;
  for (int i = 1; i <= 30; ++i) {
    (void)ctl.try_admit(tk(1 + i % 3, 20 + i, 40 + 2 * i));
  }
  EXPECT_EQ(thread_count(), before);
}

}  // namespace
}  // namespace edfkit
