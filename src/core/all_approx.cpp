#include "core/all_approx.hpp"

namespace edfkit {
namespace {

/// Fig. 7: every task is approximated right after its tested job
/// deadline, and the oldest approximation is revised first (the paper's
/// getAndRemoveFirstTask).
struct FifoRevision {
  static Time border(std::size_t) { return 0; }
  static bool revise(DemandSweep& sweep, Time) {
    sweep.withdraw(0);
    return true;
  }
};

}  // namespace

AllApproxSweep::Stop AllApproxSweep::run(Time bound,
                                         const std::atomic<bool>* stop,
                                         std::uint64_t step_cap) {
  FifoRevision fifo;
  return DemandSweep::run(fifo, bound, stop, step_cap);
}

FeasibilityResult all_approx_test(const PreparedSet& ps,
                                  const AllApproxOptions& opts) {
  if (auto r = DemandSweep::precheck(ps)) return *r;
  std::optional<AllApproxSweep> own;
  AllApproxSweep* sweep = ps.claim_sweep();
  if (sweep == nullptr) sweep = &own.emplace(ps);
  return sweep->result(sweep->run(
      opts.bound ? *opts.bound : ps.implicit_test_bound(), opts.stop));
}

FeasibilityResult all_approx_test(const TaskSet& ts,
                                  const AllApproxOptions& opts) {
  return all_approx_test(PreparedSet(ts), opts);
}

}  // namespace edfkit
