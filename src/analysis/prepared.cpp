#include "analysis/prepared.hpp"

#include <algorithm>

#include "analysis/bounds.hpp"
#include "core/all_approx.hpp"
#include "demand/accumulator.hpp"

namespace edfkit {

PreparedSet::PreparedSet(const TaskSet& ts) noexcept : ts_(ts) {}

PreparedSet::~PreparedSet() = default;

UtilizationClass PreparedSet::utilization_class() const {
  if (!class_) class_ = classify_utilization(ts_);
  return *class_;
}

Time PreparedSet::default_test_bound() const {
  if (!default_bound_) default_bound_ = edfkit::default_test_bound(ts_);
  return *default_bound_;
}

Time PreparedSet::implicit_test_bound() const {
  if (!implicit_bound_) {
    implicit_bound_ = std::max(ts_.max_deadline(), default_test_bound());
  }
  return *implicit_bound_;
}

const TaskColumns& PreparedSet::columns() const {
  if (!columns_) columns_.emplace(ts_);
  return *columns_;
}

std::span<const ScaledPair> PreparedSet::task_utils() const {
  if (!utils_) {
    std::vector<ScaledPair>& u = utils_.emplace();
    u.reserve(ts_.size());
    for (const Task& t : ts_) u.push_back(scaled_task_util(t));
  }
  return *utils_;
}

const std::vector<std::size_t>& PreparedSet::by_deadline() const {
  if (!by_deadline_) by_deadline_ = ts_.by_deadline();
  return *by_deadline_;
}

void PreparedSet::prime() const {
  (void)by_deadline();
  (void)utilization_class();
  (void)implicit_test_bound();
  (void)columns();
  (void)task_utils();
}

AllApproxSweep* PreparedSet::claim_sweep() const {
  if (sweep_claimed_.exchange(true, std::memory_order_relaxed)) {
    return nullptr;
  }
  sweep_ = std::make_unique<AllApproxSweep>(*this);
  return sweep_.get();
}

AllApproxSweep* PreparedSet::resumable_sweep() const {
  return sweep_ != nullptr && sweep_->resumable() ? sweep_.get() : nullptr;
}

}  // namespace edfkit
