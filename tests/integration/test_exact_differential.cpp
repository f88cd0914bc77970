/// \file test_exact_differential.cpp
/// The four exact tests at scale: processor-demand, QPA, dynamic-error
/// and all-approx must give the same verdict on every set of three
/// families, and the simulation oracle must agree on a subsample.
///
///   * small sets (`draw_small_set`, U 0.80 ... 1.10): about one in two
///     thousand trips an approximate sweep that compares before every
///     job due at a tied deadline is in;
///   * Fig. 8 sets (`draw_fig8_set`, U 0.90 ... 0.99), the paper's own;
///   * tied sets: D and T drawn from a small divisor-rich pool, so many
///     job deadlines coincide.
///
/// SuperPos(x) is pinned to its definition on the same sets: it accepts
/// exactly when the checker accepts the feasibility certificate whose
/// borders are the level-x job deadlines.
///
/// Sizes scale with EDFKIT_FUZZ_MULT (the nightly long-fuzz job).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "../helpers.hpp"
#include "analysis/processor_demand.hpp"
#include "analysis/qpa.hpp"
#include "core/all_approx.hpp"
#include "core/dynamic_test.hpp"
#include "core/superpos.hpp"
#include "demand/approx.hpp"
#include "gen/scenario.hpp"
#include "gen/uunifast.hpp"
#include "query/certificate.hpp"
#include "sim/oracle.hpp"
#include "util/math.hpp"

namespace edfkit {
namespace {

using testing::fuzz_multiplier;
using testing::write_fuzz_artifact;

/// A set whose deadlines and periods come from {4, 6, 8, 12, 16, 24}
/// (D <= T), so job deadlines of different tasks coincide often.
TaskSet draw_tied_set(Rng& rng, double utilization) {
  static constexpr std::array<Time, 6> kPool = {4, 6, 8, 12, 16, 24};
  const int n = rng.uniform_int(2, 8);
  const std::vector<double> us = uunifast(rng, n, utilization);
  std::vector<Task> tasks;
  for (int i = 0; i < n; ++i) {
    Task t;
    const int ti = rng.uniform_int(0, static_cast<int>(kPool.size()) - 1);
    t.period = kPool[static_cast<std::size_t>(ti)];
    t.deadline = kPool[static_cast<std::size_t>(rng.uniform_int(0, ti))];
    t.wcet = std::clamp<Time>(
        round_to_time(us[static_cast<std::size_t>(i)] *
                          static_cast<double>(t.period),
                      1, t.period),
        1, t.deadline);
    t.name = 't' + std::to_string(i);
    tasks.push_back(std::move(t));
  }
  return TaskSet(std::move(tasks));
}

/// Counts and reports the sets on which the exact tests disagree.
class Differential {
 public:
  explicit Differential(std::string family) : family_(std::move(family)) {}

  void check(const TaskSet& ts, bool with_oracle) {
    ++sets_;
    const Verdict pd = processor_demand_test(ts).verdict;
    const std::array<std::pair<const char*, Verdict>, 3> others = {{
        {"qpa", qpa_test(ts).verdict},
        {"dynamic", dynamic_error_test(ts).verdict},
        {"all-approx", all_approx_test(ts).verdict},
    }};
    for (const auto& [name, v] : others) {
      if (v != pd) report(ts, name, v, pd);
    }
    if (with_oracle) {
      const Verdict sim = simulate_feasibility(ts).verdict;
      if (sim != Verdict::Unknown && sim != pd) report(ts, "oracle", sim, pd);
    }
  }

  void expect_clean() const {
    EXPECT_EQ(disagreements_, 0u)
        << family_ << ": " << disagreements_ << " disagreements over "
        << sets_ << " sets";
  }

 private:
  void report(const TaskSet& ts, const char* who, Verdict got,
              Verdict want) {
    ++disagreements_;
    const std::string msg = family_ + ": " + who + " says " +
                            to_string(got) + ", processor-demand " +
                            to_string(want) + "\n" + ts.to_string();
    if (disagreements_ <= 5) ADD_FAILURE() << msg;
    write_fuzz_artifact(
        "exact_differential_" + family_ + '_' +
            std::to_string(disagreements_) + ".txt",
        msg);
  }

  std::string family_;
  std::uint64_t sets_ = 0;
  std::uint64_t disagreements_ = 0;
};

/// SuperPos(level) accepts iff `verify` accepts the FeasibleBorders
/// certificate at the level-th job deadlines.
void expect_superpos_matches_borders(const TaskSet& ts) {
  for (const Time level : {Time{1}, Time{2}, Time{5}}) {
    Certificate c;
    c.kind = CertificateKind::FeasibleBorders;
    for (const Task& t : ts) c.borders.push_back(approx_border(t, level));
    const bool accepted = superpos_test(ts, level).feasible();
    ASSERT_EQ(accepted, verify(ts, c).valid)
        << "SuperPos(" << level << ")\n" << ts.to_string();
  }
}

TEST(ExactDifferential, SmallSets) {
  const std::uint64_t count = 20'000 * fuzz_multiplier();
  Differential diff("small");
  Rng rng(13);
  for (std::uint64_t i = 0; i < count; ++i) {
    const double u = 0.80 + 0.30 * static_cast<double>(i % 300) / 300.0;
    const TaskSet ts = draw_small_set(rng, u);
    diff.check(ts, /*with_oracle=*/i % 20 == 0);
    expect_superpos_matches_borders(ts);
  }
  diff.expect_clean();
}

TEST(ExactDifferential, Fig8Sets) {
  const std::uint64_t count = 2'000 * fuzz_multiplier();
  Differential diff("fig8");
  Rng rng(8);
  for (std::uint64_t i = 0; i < count; ++i) {
    diff.check(draw_fig8_set(rng, 0.90 + 0.01 * static_cast<double>(i % 10)),
               /*with_oracle=*/false);
  }
  diff.expect_clean();
}

TEST(ExactDifferential, TiedDeadlineSets) {
  const std::uint64_t count = 20'000 * fuzz_multiplier();
  Differential diff("tied");
  Rng rng(21);
  std::uint64_t tied = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const double u = 0.80 + 0.25 * static_cast<double>(i % 250) / 250.0;
    const TaskSet ts = draw_tied_set(rng, u);
    for (std::size_t a = 1; a < ts.size(); ++a) {
      if (ts[a].deadline == ts[0].deadline) {
        ++tied;
        break;
      }
    }
    diff.check(ts, /*with_oracle=*/i % 20 == 0);
    expect_superpos_matches_borders(ts);
  }
  diff.expect_clean();
  // The family exists for its ties: most sets share a first deadline.
  EXPECT_GT(tied, count / 4);
}

}  // namespace
}  // namespace edfkit
