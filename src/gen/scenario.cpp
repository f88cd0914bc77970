#include "gen/scenario.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "gen/uunifast.hpp"

namespace edfkit {
namespace {

constexpr std::array<double, 3> kPaperGaps = {0.2, 0.3, 0.4};

}  // namespace

TaskSet draw_fig1_set(Rng& rng, double utilization) {
  GeneratorConfig cfg;
  cfg.tasks = rng.uniform_int(5, 100);
  cfg.utilization = utilization;
  cfg.gap_mean = kPaperGaps[static_cast<std::size_t>(rng.uniform_int(0, 2))];
  cfg.period_min = 10'000;
  cfg.period_max = 1'000'000;
  return generate_task_set(rng, cfg);
}

TaskSet draw_fig8_set(Rng& rng, double utilization) {
  // Same family as Fig. 1; the paper reuses the generation and sweeps
  // 90-99 % with gaps 20/30/40 %.
  return draw_fig1_set(rng, utilization);
}

TaskSet draw_fig9_set(Rng& rng, Time period_ratio) {
  GeneratorConfig cfg;
  cfg.tasks = rng.uniform_int(5, 100);
  cfg.utilization = rng.uniform(0.90, 0.9999);
  cfg.utilization_tolerance = 0.0005;
  cfg.gap_mean = rng.uniform(0.10, 0.50);
  cfg.gap_halfwidth = 0.05;
  cfg.period_min = 1'000;
  cfg.period_max = mul_saturating(cfg.period_min, period_ratio);
  // Spread periods across the whole ratio so Tmax/Tmin is actually hit.
  cfg.period_dist = PeriodDistribution::LogUniform;
  return generate_task_set(rng, cfg);
}

TaskSet draw_small_set(Rng& rng, double utilization) {
  // Periods come from a divisor-rich pool (lcm == 240) so the hyperperiod
  // stays tiny and the EDF simulator can serve as an exact oracle.
  static constexpr std::array<Time, 14> kPool = {4,  5,  6,  8,  10, 12, 15,
                                                 16, 20, 24, 30, 40, 48, 60};
  const int n = rng.uniform_int(2, 12);
  const std::vector<double> us = uunifast(rng, n, utilization);
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Task t;
    t.period = kPool[static_cast<std::size_t>(rng.uniform_int(0, 13))];
    t.wcet = std::max<Time>(
        1, round_to_time(us[static_cast<std::size_t>(i)] *
                             static_cast<double>(t.period),
                         1, t.period));
    const double gap = rng.uniform(0.0, 0.5);
    const Time d_raw = round_to_time(
        (1.0 - gap) * static_cast<double>(t.period), 1, t.period);
    t.deadline = std::clamp(d_raw, t.wcet, t.period);
    t.name = 's' + std::to_string(i);
    tasks.push_back(std::move(t));
  }
  return TaskSet(std::move(tasks));
}

}  // namespace edfkit
