/// \file ablation_revision.cpp
/// Ablation of the all-approximated test's revision order. The paper's
/// pseudocode revises the FIFO-oldest approximation
/// (getAndRemoveFirstTask, Fig. 7), which is what the library runs; this
/// bench compares it with LIFO and a greedy max-overestimation order on
/// high-utilization workloads. Both alternatives are policies on the
/// library's demand sweep (core/demand_sweep.hpp), defined here.
///
/// Verdicts must be identical under every order (the test stays exact);
/// only the effort differs. The bench checks each set's verdict against
/// FIFO's and exits 1 on any mismatch.
#include <array>
#include <cstdio>

#include "bench_common.hpp"
#include "core/all_approx.hpp"
#include "core/demand_sweep.hpp"
#include "gen/scenario.hpp"
#include "util/stats.hpp"

namespace {

using namespace edfkit;

/// Newest approximation first.
struct LifoRevision {
  static Time border(std::size_t) { return 0; }
  static bool revise(DemandSweep& sweep, Time) {
    sweep.withdraw(sweep.approximations().size() - 1);
    return true;
  }
};

/// Largest current overestimation app(point, tau) = ((point - D) mod T)
/// * C/T first — one dense pass over the flat columns.
struct MaxErrorRevision {
  static Time border(std::size_t) { return 0; }
  static bool revise(DemandSweep& sweep, Time point) {
    const TaskColumns& cols = sweep.prepared().columns();
    const auto& approx = sweep.approximations();
    std::size_t best = 0;
    double best_err = -1.0;
    for (std::size_t k = 0; k < approx.size(); ++k) {
      const std::size_t ti = approx[k];
      double err = 0.0;
      if (!is_time_infinite(cols.period[ti])) {
        err = static_cast<double>(
                  floor_mod(point - cols.deadline[ti], cols.period[ti])) *
              cols.util[ti];
      }
      if (err > best_err) {
        best_err = err;
        best = k;
      }
    }
    sweep.withdraw(best);
    return true;
  }
};

/// all_approx_test with another revision order.
template <class Policy>
FeasibilityResult all_approx_with(const PreparedSet& ps) {
  if (auto r = DemandSweep::precheck(ps)) return *r;
  Policy policy;
  DemandSweep sweep(ps);
  return sweep.result(sweep.run(policy, ps.implicit_test_bound()));
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  bench::BenchSetup setup(flags, 150);
  bench::banner("Ablation: all-approx revision policy (FIFO/LIFO/max-error)",
                "design choice in §4.2 (getAndRemoveFirstTask)", setup);

  struct Policy {
    const char* name;
    FeasibilityResult (*run)(const PreparedSet&);
  };
  constexpr std::array<Policy, 3> kPolicies = {
      Policy{"fifo",
             [](const PreparedSet& ps) { return all_approx_test(ps); }},
      Policy{"lifo", &all_approx_with<LifoRevision>},
      Policy{"max-error", &all_approx_with<MaxErrorRevision>}};

  setup.csv.header({"utilization", "policy", "avg_effort", "max_effort",
                    "avg_revisions"});
  std::printf("%5s | %-9s %11s %11s %13s\n", "U(%)", "policy", "avg effort",
              "max effort", "avg revisions");
  std::uint64_t mismatches = 0;
  for (int u_pct = 94; u_pct <= 99; ++u_pct) {
    std::array<OnlineStats, kPolicies.size()> effort;
    std::array<OnlineStats, kPolicies.size()> revisions;
    Rng rng(setup.seed + static_cast<std::uint64_t>(u_pct));
    for (std::int64_t i = 0; i < setup.sets; ++i) {
      const TaskSet ts = draw_fig8_set(rng, u_pct / 100.0);
      Verdict fifo = Verdict::Unknown;
      for (std::size_t p = 0; p < kPolicies.size(); ++p) {
        const FeasibilityResult r = kPolicies[p].run(PreparedSet(ts));
        if (p == 0) fifo = r.verdict;
        if (r.verdict != fifo) {
          ++mismatches;
          std::printf("MISMATCH U=%d%% set %lld: %s says %s, fifo %s\n",
                      u_pct, static_cast<long long>(i), kPolicies[p].name,
                      to_string(r.verdict), to_string(fifo));
        }
        effort[p].add(static_cast<double>(r.effort()));
        revisions[p].add(static_cast<double>(r.revisions));
      }
    }
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      std::printf("%5d | %-9s %11.0f %11.0f %13.0f\n", u_pct,
                  kPolicies[p].name, effort[p].mean(), effort[p].max(),
                  revisions[p].mean());
      setup.csv.row_of(u_pct, kPolicies[p].name, effort[p].mean(),
                       effort[p].max(), revisions[p].mean());
    }
  }
  std::printf("\nexpected: all policies exact; effort differences show how "
              "much the revision order matters.\n");
  if (mismatches != 0) {
    std::printf("FAIL: %llu verdicts differ from fifo\n",
                static_cast<unsigned long long>(mismatches));
    return 1;
  }
  return 0;
}
