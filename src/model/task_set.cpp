#include "model/task_set.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace edfkit {

TaskSet::TaskSet(std::vector<Task> tasks) : tasks_(std::move(tasks)) {
  for (const Task& t : tasks_) t.validate();
}

void TaskSet::add(Task t) {
  t.validate();
  tasks_.push_back(std::move(t));
  changed();
}

void TaskSet::swap_remove(std::size_t i) {
  tasks_[i] = std::move(tasks_.back());
  tasks_.pop_back();
  changed();
}

const Rational& TaskSet::utilization() const {
  // Double-checked: concurrent readers of one set sum it once, under the
  // lock; the release store publishes the sum to every later reader.
  if (!util_ready_.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(util_mu_);
    if (!util_ready_.load(std::memory_order_relaxed)) {
      Rational u;
      for (const Task& t : tasks_) u += t.utilization();
      util_ = u;
      util_ready_.store(true, std::memory_order_release);
    }
  }
  return util_;
}

double TaskSet::utilization_double() const {
  return utilization().to_double();
}

Time TaskSet::total_wcet() const {
  Time s = 0;
  for (const Task& t : tasks_) s = add_saturating(s, t.wcet);
  return s;
}

Time TaskSet::max_deadline() const {
  Time m = 0;
  for (const Task& t : tasks_) m = std::max(m, t.effective_deadline());
  return m;
}

Time TaskSet::min_deadline() const {
  Time m = kTimeInfinity;
  for (const Task& t : tasks_) m = std::min(m, t.effective_deadline());
  return m;
}

Time TaskSet::max_period() const {
  Time m = 0;
  for (const Task& t : tasks_) m = std::max(m, t.period);
  return m;
}

Time TaskSet::min_period() const {
  Time m = kTimeInfinity;
  for (const Task& t : tasks_) m = std::min(m, t.period);
  return m;
}

Time TaskSet::hyperperiod() const {
  Time h = 1;
  for (const Task& t : tasks_) {
    h = lcm_saturating(h, t.period);
    if (is_time_infinite(h)) return kTimeInfinity;
  }
  return h;
}

bool TaskSet::constrained_deadlines() const {
  return std::all_of(tasks_.begin(), tasks_.end(), [](const Task& t) {
    return t.effective_deadline() <= t.period;
  });
}

std::vector<std::size_t> TaskSet::by_deadline() const {
  std::vector<std::size_t> order(tasks_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return tasks_[a].effective_deadline() <
                            tasks_[b].effective_deadline();
                   });
  return order;
}

TaskSet TaskSet::scaled(Time factor) const {
  if (factor <= 0) throw std::invalid_argument("TaskSet::scaled: factor <= 0");
  std::vector<Task> out;
  out.reserve(tasks_.size());
  for (Task t : tasks_) {
    t.wcet = mul_saturating(t.wcet, factor);
    t.deadline = mul_saturating(t.deadline, factor);
    t.period = mul_saturating(t.period, factor);
    t.jitter = mul_saturating(t.jitter, factor);
    out.push_back(std::move(t));
  }
  return TaskSet(std::move(out));
}

void TaskSet::validate() const {
  for (const Task& t : tasks_) t.validate();
}

std::string TaskSet::to_string() const {
  std::ostringstream os;
  os << "TaskSet{n=" << tasks_.size()
     << ", U=" << utilization().to_string() << " (~"
     << utilization_double() << ")}\n";
  for (const Task& t : tasks_) os << "  " << t.to_string() << "\n";
  return os.str();
}

}  // namespace edfkit
