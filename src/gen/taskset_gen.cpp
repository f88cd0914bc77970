#include "gen/taskset_gen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "gen/uunifast.hpp"

namespace edfkit {
namespace {

double actual_utilization(const std::vector<Task>& tasks) {
  double u = 0.0;
  for (const Task& t : tasks) u += t.utilization_double();
  return u;
}

/// Nudge WCETs (within [1, D]) until the utilization error is inside the
/// tolerance. Works from the largest period down: large T gives the
/// finest step (1/T) and the widest absolute range.
bool repair_utilization(std::vector<Task>& tasks, double target, double tol) {
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].period > tasks[b].period;
  });
  for (int pass = 0; pass < 8; ++pass) {
    const double diff = target - actual_utilization(tasks);
    if (std::abs(diff) <= tol) return true;
    bool moved = false;
    for (const std::size_t i : order) {
      Task& t = tasks[i];
      const double want = diff * static_cast<double>(t.period);
      Time delta = static_cast<Time>(std::llround(want));
      if (delta == 0) delta = (diff > 0) ? 1 : -1;
      const Time new_c = std::clamp<Time>(t.wcet + delta, 1, t.deadline);
      if (new_c != t.wcet) {
        t.wcet = new_c;
        moved = true;
        break;
      }
    }
    if (!moved) return std::abs(target - actual_utilization(tasks)) <= tol;
  }
  return std::abs(target - actual_utilization(tasks)) <= tol;
}

}  // namespace

void GeneratorConfig::validate() const {
  if (tasks < 1) throw std::invalid_argument("GeneratorConfig: tasks < 1");
  if (!(utilization > 0.0))
    throw std::invalid_argument("GeneratorConfig: utilization <= 0");
  if (period_min < 2 || period_max < period_min)
    throw std::invalid_argument("GeneratorConfig: bad period range");
  if (gap_mean < 0.0 || gap_mean > 0.95)
    throw std::invalid_argument("GeneratorConfig: gap_mean out of [0, 0.95]");
  if (gap_halfwidth < 0.0)
    throw std::invalid_argument("GeneratorConfig: negative gap_halfwidth");
  if (max_attempts < 1)
    throw std::invalid_argument("GeneratorConfig: max_attempts < 1");
}

TaskSet generate_task_set(Rng& rng, const GeneratorConfig& cfg) {
  cfg.validate();
  for (int attempt = 0; attempt < cfg.max_attempts; ++attempt) {
    const std::vector<double> us =
        uunifast(rng, cfg.tasks, cfg.utilization);
    std::vector<Task> tasks;
    tasks.reserve(us.size());
    bool ok = true;
    for (std::size_t i = 0; i < us.size(); ++i) {
      Task t;
      t.period = (cfg.period_dist == PeriodDistribution::Uniform)
                     ? rng.uniform_time(cfg.period_min, cfg.period_max)
                     : rng.log_uniform_time(cfg.period_min, cfg.period_max);
      t.wcet = std::max<Time>(
          1, round_to_time(us[i] * static_cast<double>(t.period), 1,
                           t.period));
      const double gap = std::clamp(
          rng.uniform(cfg.gap_mean - cfg.gap_halfwidth,
                      cfg.gap_mean + cfg.gap_halfwidth),
          0.0, 0.98);
      const Time d_raw = round_to_time(
          (1.0 - gap) * static_cast<double>(t.period), 1, t.period);
      t.deadline = std::clamp(d_raw, t.wcet, t.period);
      t.name = 't' + std::to_string(i);
      if (!t.valid()) {
        ok = false;
        break;
      }
      tasks.push_back(std::move(t));
    }
    if (!ok) continue;
    if (!repair_utilization(tasks, cfg.utilization,
                            cfg.utilization_tolerance))
      continue;
    return TaskSet(std::move(tasks));
  }
  throw std::runtime_error(
      "generate_task_set: could not hit the utilization tolerance; relax "
      "the config (larger periods or tolerance)");
}

}  // namespace edfkit
