#include "admission/placement.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace edfkit {

const char* to_string(PlacementPolicy p) noexcept {
  switch (p) {
    case PlacementPolicy::FirstFit: return "first-fit";
    case PlacementPolicy::WorstFit: return "worst-fit";
    case PlacementPolicy::BestFit: return "best-fit";
  }
  return "?";
}

std::vector<std::uint32_t> placement_order(
    PlacementPolicy policy, std::span<const AdmissionController> processors,
    double candidate_utilization) {
  std::vector<double> load(processors.size());
  for (std::size_t i = 0; i < processors.size(); ++i) {
    if (processors[i].global_mode()) {
      throw std::invalid_argument(
          "placement_order: processors are uniprocessors; admit globally "
          "with an AdmissionController on Platform{m}");
    }
    load[i] = processors[i].utilization();
  }
  std::vector<std::uint32_t> order(processors.size());
  std::iota(order.begin(), order.end(), 0u);
  if (policy == PlacementPolicy::FirstFit) return order;

  const auto by_load = [&](bool ascending) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return ascending ? load[a] < load[b]
                                        : load[a] > load[b];
                     });
  };
  if (policy == PlacementPolicy::WorstFit) {
    by_load(/*ascending=*/true);
  } else {
    by_load(/*ascending=*/false);
    std::stable_partition(order.begin(), order.end(), [&](std::uint32_t i) {
      return load[i] + candidate_utilization <= 1.0;
    });
  }
  return order;
}

}  // namespace edfkit
