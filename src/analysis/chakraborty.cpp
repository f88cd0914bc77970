#include "analysis/chakraborty.hpp"

#include "core/superpos.hpp"
#include "demand/approx.hpp"

namespace edfkit {

ChakrabortyResult chakraborty_test(const PreparedSet& ps, double epsilon) {
  const Time k = approx_level(epsilon, "chakraborty_test");
  const SuperPosSweep s = superpos_sweep(ps, k);
  return {s.base, 1.0 / static_cast<double>(k), s.demand_ratio};
}

ChakrabortyResult chakraborty_test(const TaskSet& ts, double epsilon) {
  return chakraborty_test(PreparedSet(ts), epsilon);
}

}  // namespace edfkit
