#include "util/fork_join.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace edfkit {
namespace {

TEST(ForkJoin, EveryJobRunsExactlyOnce) {
  for (std::size_t n : {0, 1, 2, 3, 6, 17, 200, 70000}) {
    for (int round = 0; round < 50; ++round) {
      std::vector<std::atomic<int>> runs(n);
      fork_join(n, [&](std::size_t i) { runs[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(runs[i].load(), 1) << "job " << i << " of " << n;
      }
    }
  }
}

TEST(ForkJoin, ThrowsOnlyAfterEveryClaimedJobFinished) {
  // Job 1 throws at once; the others are still running when it does. The
  // caller must see the exception only after all of them have finished,
  // and when several jobs throw, the lowest index wins.
  for (int round = 0; round < 20; ++round) {
    constexpr std::size_t kJobs = 6;
    std::vector<std::atomic<bool>> finished(kJobs);
    try {
      fork_join(kJobs, [&](std::size_t i) {
        if (i == 1 || i == 4) {
          finished[i] = true;
          throw std::runtime_error("job " + std::to_string(i));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        finished[i] = true;
      });
      FAIL() << "no exception reached the caller";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 1");
    }
    for (std::size_t i = 0; i < kJobs; ++i) EXPECT_TRUE(finished[i]) << i;
  }
}

TEST(ForkJoin, NestedRunCompletes) {
  std::vector<std::atomic<int>> inner(4 * 5);
  fork_join(4, [&](std::size_t outer) {
    fork_join(5, [&](std::size_t i) { inner[outer * 5 + i].fetch_add(1); });
  });
  for (const std::atomic<int>& x : inner) EXPECT_EQ(x.load(), 1);
}

TEST(ForkJoin, ConcurrentCallersGetTheirOwnResults) {
  constexpr int kCallers = 8;
  constexpr std::size_t kJobs = 6;
  std::vector<std::vector<std::size_t>> results(
      kCallers, std::vector<std::size_t>(kJobs));
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 200; ++round) {
        std::vector<std::size_t>& mine = results[c];
        fork_join(kJobs, [&](std::size_t i) {
          mine[i] = static_cast<std::size_t>(c) * 1000 + i + round;
        });
        for (std::size_t i = 0; i < kJobs; ++i) {
          if (mine[i] != static_cast<std::size_t>(c) * 1000 + i + round) {
            ADD_FAILURE() << "caller " << c << " job " << i;
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
}

TEST(ForkJoin, BusyPoolMakesTheCallerRunItsJobsAlone) {
  // One thread's fork holds the pool until a second caller is done; the
  // second caller must run every one of its jobs on its own thread.
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread owner([&] {
    fork_join(2, [&](std::size_t i) {
      if (i == 0) {
        holding = true;
        while (!release) std::this_thread::yield();
      }
    });
  });
  while (!holding) std::this_thread::yield();
  const std::thread::id me = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(5);
  fork_join(ran_on.size(),
            [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  release = true;
  owner.join();
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, me);
}

TEST(ForkJoin, ForkedChildRunsItsJobsAlone) {
  // A child after fork() has the pool's memory but none of its helpers;
  // it must run every job itself instead of waiting for a helper.
  fork_join(4, [](std::size_t) {});  // start the pool in the parent
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const std::thread::id me = std::this_thread::get_id();
    bool alone = true;
    fork_join(6, [&](std::size_t) {
      if (std::this_thread::get_id() != me) alone = false;
    });
    _exit(alone ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace edfkit
