/// \file fork_join.hpp
/// One process-wide fork-join pool: the query policies that run several
/// backends over one prepared set (Batch, Portfolio) run them on it.
///
/// `fork_join(n, job)` calls job(0) ... job(n - 1) and returns when all
/// of them have finished.
///
/// - **The caller works too.** The caller and the pool's helper threads
///   claim jobs in index order from one atomic ticket. Once every job is
///   claimed, the caller waits only for the jobs a helper claimed.
/// - **Lazy start.** The pool starts on the first call with n >= 2, with
///   hardware_concurrency() - 1 helpers. It lives until the process
///   exits. Idle helpers spin briefly, then park.
/// - **No deadlock.** One call at a time owns the pool. A call that finds
///   it busy (another thread's call, or a call nested inside a job) runs
///   every job itself, in index order; so does every call on a one-CPU
///   host. In a child after fork() no helper is left to claim a job, so
///   the caller claims them all. No call ever waits for another.
/// - **Exceptions reach the caller.** A job's exception is caught and
///   rethrown on the caller once every claimed job has finished. When
///   several jobs throw, the lowest index wins.
#pragma once

#include <cstddef>

namespace edfkit {

namespace detail {
using ForkJoinJob = void (*)(const void* ctx, std::size_t index);
void fork_join(std::size_t count, ForkJoinJob job, const void* ctx);
}  // namespace detail

/// Run job(i) for every i in [0, count), concurrently where the pool is
/// free. `job` must be callable from any thread. \throws what the
/// lowest-index throwing job threw.
template <typename Job>
void fork_join(std::size_t count, const Job& job) {
  detail::fork_join(
      count,
      [](const void* ctx, std::size_t i) {
        (*static_cast<const Job*>(ctx))(i);
      },
      &job);
}

}  // namespace edfkit
