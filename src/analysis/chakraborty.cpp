#include "analysis/chakraborty.hpp"

#include <cmath>
#include <stdexcept>

#include "core/superpos.hpp"

namespace edfkit {

ChakrabortyResult chakraborty_test(const TaskSet& ts, double epsilon) {
  if (!(epsilon > 0.0) || epsilon > 1.0)
    throw std::invalid_argument("chakraborty_test: epsilon in (0,1] required");
  const Time k = static_cast<Time>(std::ceil(1.0 / epsilon));
  const SuperPosSweep s = superpos_sweep(ts, k);
  return {s.base, 1.0 / static_cast<double>(k), s.demand_ratio};
}

}  // namespace edfkit
