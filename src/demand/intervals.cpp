#include "demand/intervals.hpp"

namespace edfkit {

DeadlineStream::DeadlineStream(const TaskSet& ts, Time bound)
    : ts_(ts), bound_(bound) {
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Time d0 = ts[i].effective_deadline();
    if (d0 <= bound_) list_.add(i, d0);
  }
}

Time DeadlineStream::next() {
  const Time point = list_.peek().interval;
  while (!list_.empty() && list_.peek().interval == point) {
    list_.rearm_top(ts_[list_.peek().task].period, bound_);
  }
  return point;
}

}  // namespace edfkit
