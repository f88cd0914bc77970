#include "util/fork_join.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

namespace edfkit {
namespace {

/// How long an idle thread polls before it parks: long enough to bridge
/// the gap between two queries of a batch loop (a certificate check is
/// about 100 us), short enough that an idle process soon stops spinning.
constexpr std::chrono::microseconds kSpin{250};

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Wait until `word` no longer holds `old`, polling for kSpin first.
/// Returns the new value.
std::uint32_t await_change(const std::atomic<std::uint32_t>& word,
                           std::uint32_t old) {
  const auto until = std::chrono::steady_clock::now() + kSpin;
  std::uint32_t v;
  while ((v = word.load(std::memory_order_acquire)) == old) {
    if (std::chrono::steady_clock::now() < until) {
      cpu_relax();
    } else {
      word.wait(old, std::memory_order_acquire);
    }
  }
  return v;
}

/// The lowest-index exception of one fork.
class Failure {
 public:
  void record(std::size_t index, std::exception_ptr error) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (index < index_) {
      index_ = index;
      error_ = std::move(error);
    }
  }
  /// \pre every job has finished.
  void rethrow() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mu_;
  std::size_t index_ = SIZE_MAX;
  std::exception_ptr error_;
};

void run_job(detail::ForkJoinJob job, const void* ctx, std::size_t index,
             Failure& failure) {
  try {
    job(ctx, index);
  } catch (...) {
    failure.record(index, std::current_exception());
  }
}

/// The claim ticket: fork generation (32 bits) | job count (16) | next
/// unclaimed index (16). A claim is a compare-exchange on the whole
/// word, so a thread still holding an earlier fork's ticket can never
/// claim a job of a later one.
constexpr std::size_t kMaxJobs = 0xffff;
constexpr std::uint64_t ticket(std::uint32_t generation, std::size_t count) {
  return (static_cast<std::uint64_t>(generation) << 32) |
         (static_cast<std::uint64_t>(count) << 16);
}
constexpr std::uint32_t generation_of(std::uint64_t t) {
  return static_cast<std::uint32_t>(t >> 32);
}
constexpr std::size_t count_of(std::uint64_t t) { return (t >> 16) & 0xffff; }
constexpr std::size_t next_of(std::uint64_t t) { return t & 0xffff; }

class Pool {
 public:
  explicit Pool(unsigned helpers) {
    helpers_.reserve(helpers);
    for (unsigned i = 0; i < helpers; ++i) {
      try {
        helpers_.emplace_back([this] { serve(); });
      } catch (const std::system_error&) {
        break;  // run with the helpers the host would start
      }
    }
  }
  // Never destroyed (see pool()): helpers hold `this`.
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Run the fork on the pool; false (nothing run) when the pool has no
  /// helper or another fork owns it.
  bool try_run(std::size_t count, detail::ForkJoinJob job, const void* ctx,
               Failure& failure) {
    if (helpers_.empty() || busy_.exchange(true, std::memory_order_acquire)) {
      return false;
    }
    job_ = job;
    ctx_ = ctx;
    failure_ = &failure;
    finished_.store(0, std::memory_order_relaxed);
    const std::uint32_t gen =
        generation_.load(std::memory_order_relaxed) + 1;
    ticket_.store(ticket(gen, count), std::memory_order_release);
    generation_.store(gen, std::memory_order_release);
    generation_.notify_all();
    claim_and_run(ticket_.load(std::memory_order_acquire));
    // Every job is claimed now; wait for the ones helpers are running.
    std::uint32_t done;
    while ((done = finished_.load(std::memory_order_acquire)) != count) {
      (void)await_change(finished_, done);
    }
    busy_.store(false, std::memory_order_release);
    return true;
  }

 private:
  void serve() {
    std::uint32_t seen = 0;
    for (;;) {
      seen = await_change(generation_, seen);
      claim_and_run(ticket_.load(std::memory_order_acquire));
    }
  }

  /// Claim and run jobs of the fork `t` belongs to until none is left.
  void claim_and_run(std::uint64_t t) {
    const std::uint32_t gen = generation_of(t);
    while (generation_of(t) == gen && next_of(t) < count_of(t)) {
      if (!ticket_.compare_exchange_weak(t, t + 1, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        continue;
      }
      // The fork cannot end before this job finishes, so its job, context
      // and failure sink stay put until the increment below.
      run_job(job_, ctx_, next_of(t), *failure_);
      if (finished_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          count_of(t)) {
        finished_.notify_one();
      }
      ++t;
    }
  }

  std::atomic<bool> busy_{false};
  std::atomic<std::uint64_t> ticket_{0};
  std::atomic<std::uint32_t> generation_{0};  ///< helpers park on this
  std::atomic<std::uint32_t> finished_{0};    ///< the caller parks on this
  detail::ForkJoinJob job_ = nullptr;
  const void* ctx_ = nullptr;
  Failure* failure_ = nullptr;
  std::vector<std::thread> helpers_;  // last: the helpers use every member
};

/// The process-wide pool, started on first use. It is never destroyed,
/// so no exit path has to stop a helper. A child after fork() has the
/// pool's memory but none of its helpers: nobody else claims a job
/// there, so its caller claims and runs every one.
Pool& pool() {
  static Pool* const p = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return new Pool(hw > 1 ? hw - 1 : 0);
  }();
  return *p;
}

}  // namespace

namespace detail {

void fork_join(std::size_t count, ForkJoinJob job, const void* ctx) {
  Failure failure;
  const bool pooled = count >= 2 && count <= kMaxJobs &&
                      pool().try_run(count, job, ctx, failure);
  if (!pooled) {
    for (std::size_t i = 0; i < count; ++i) run_job(job, ctx, i, failure);
  }
  failure.rethrow();
}

}  // namespace detail
}  // namespace edfkit
