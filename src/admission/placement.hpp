/// \file placement.hpp
/// Partitioned EDF placement: the order in which to try processors.
///
/// Partitioned EDF on m processors is the uniprocessor admission test
/// run once per processor — one AdmissionController each — plus a
/// heuristic that decides which processor to try first (cf. schedcat's
/// partitioned heuristics). placement_order() is that heuristic as a
/// pure function of the processors' current utilization; the caller
/// tries try_admit (or admit_group, for an all-or-nothing group on one
/// processor) in that order and stops at the first that admits:
///
///   for (const std::uint32_t i : placement_order(policy, cpus, t_util))
///     if (cpus[i].try_admit(t).admitted) break;
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "admission/controller.hpp"

namespace edfkit {

enum class PlacementPolicy : std::uint8_t {
  FirstFit,  ///< processors in index order (stable packing)
  WorstFit,  ///< least-loaded processor first (load balancing)
  BestFit,   ///< most-loaded processor that still fits first (tight packing)
};

[[nodiscard]] const char* to_string(PlacementPolicy p) noexcept;

/// Indices of `processors` in the order to try a candidate of
/// `candidate_utilization` (a group's summed utilization for a group).
/// Ties keep index order. BestFit puts processors whose utilization
/// leaves room for the candidate (`u + candidate <= 1`) first; the
/// rest still follow, since utilization is only a heuristic and the
/// controller has the final say.
/// \throws std::invalid_argument if a controller is not uniprocessor
/// (global admission on m processors is one controller on Platform{m}).
[[nodiscard]] std::vector<std::uint32_t> placement_order(
    PlacementPolicy policy, std::span<const AdmissionController> processors,
    double candidate_utilization);

}  // namespace edfkit
