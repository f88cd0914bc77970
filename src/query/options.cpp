#include "query/options.hpp"

#include <stdexcept>
#include <string>

#include "demand/approx.hpp"
#include "query/registry.hpp"

namespace edfkit {
namespace {

[[noreturn]] void reject(TestKind kind, const std::string& what) {
  throw std::invalid_argument(std::string("Query[") + to_string(kind) +
                              "]: " + what);
}

}  // namespace

BackendParams default_params(TestKind kind) {
  switch (kind) {
    case TestKind::LiuLayland: return LiuLaylandParams{};
    case TestKind::Devi: return DeviParams{};
    case TestKind::SuperPos: return SuperPosParams{};
    case TestKind::Chakraborty: return ChakrabortyParams{};
    case TestKind::ProcessorDemand: return ProcessorDemandOptions{};
    case TestKind::Qpa: return QpaParams{};
    case TestKind::Dynamic: return DynamicTestOptions{};
    case TestKind::AllApprox: return AllApproxOptions{};
    case TestKind::RtcCurve: return RtcCurveParams{};
    case TestKind::DeviEnvelope: return DeviEnvelopeParams{};
    case TestKind::GfbDensity: return GfbParams{};
    case TestKind::GlobalBcl: return GlobalBclParams{};
    case TestKind::GlobalBclIterative: return GlobalBclIterParams{};
    case TestKind::GlobalLoad: return GlobalLoadParams{};
    case TestKind::GlobalRta: return GlobalRtaParams{};
    case TestKind::GlobalSim: return GlobalSimParams{};
  }
  throw std::invalid_argument("default_params: unknown TestKind");
}

bool params_match(TestKind kind, const BackendParams& params) noexcept {
  switch (kind) {
    case TestKind::LiuLayland:
      return std::holds_alternative<LiuLaylandParams>(params);
    case TestKind::Devi: return std::holds_alternative<DeviParams>(params);
    case TestKind::SuperPos:
      return std::holds_alternative<SuperPosParams>(params);
    case TestKind::Chakraborty:
      return std::holds_alternative<ChakrabortyParams>(params);
    case TestKind::ProcessorDemand:
      return std::holds_alternative<ProcessorDemandOptions>(params);
    case TestKind::Qpa: return std::holds_alternative<QpaParams>(params);
    case TestKind::Dynamic:
      return std::holds_alternative<DynamicTestOptions>(params);
    case TestKind::AllApprox:
      return std::holds_alternative<AllApproxOptions>(params);
    case TestKind::RtcCurve:
      return std::holds_alternative<RtcCurveParams>(params);
    case TestKind::DeviEnvelope:
      return std::holds_alternative<DeviEnvelopeParams>(params);
    case TestKind::GfbDensity:
      return std::holds_alternative<GfbParams>(params);
    case TestKind::GlobalBcl:
      return std::holds_alternative<GlobalBclParams>(params);
    case TestKind::GlobalBclIterative:
      return std::holds_alternative<GlobalBclIterParams>(params);
    case TestKind::GlobalLoad:
      return std::holds_alternative<GlobalLoadParams>(params);
    case TestKind::GlobalRta:
      return std::holds_alternative<GlobalRtaParams>(params);
    case TestKind::GlobalSim:
      return std::holds_alternative<GlobalSimParams>(params);
  }
  return false;
}

void validate_params(TestKind kind, const BackendParams& params) {
  if (!params_match(kind, params)) {
    reject(kind, "parameter struct does not match the backend (pass the "
                 "alternative belonging to this TestKind)");
  }
  if (const auto* sp = std::get_if<SuperPosParams>(&params)) {
    if (sp->level < 1) reject(kind, "superpos level must be >= 1");
  } else if (const auto* ck = std::get_if<ChakrabortyParams>(&params)) {
    // The floor keeps k = ceil(1/epsilon) within kMaxApproxLevel, which
    // chakraborty_test would otherwise refuse mid-run.
    if (!(ck->epsilon >= 1.0 / static_cast<double>(kMaxApproxLevel)) ||
        !(ck->epsilon < 1.0)) {
      reject(kind, "epsilon must lie in [1/" +
                       std::to_string(kMaxApproxLevel) + ", 1), got " +
                       std::to_string(ck->epsilon));
    }
  } else if (const auto* dy = std::get_if<DynamicTestOptions>(&params)) {
    if (dy->initial_level < 1) reject(kind, "initial_level must be >= 1");
    if (dy->growth_factor < 1) reject(kind, "growth_factor must be >= 1");
    if (dy->max_level < 0) reject(kind, "max_level must be >= 0");
    if (dy->bound && *dy->bound <= 0) reject(kind, "bound must be > 0");
  } else if (const auto* aa = std::get_if<AllApproxOptions>(&params)) {
    if (aa->bound && *aa->bound <= 0) reject(kind, "bound must be > 0");
  } else if (const auto* pd = std::get_if<ProcessorDemandOptions>(&params)) {
    if (pd->bound && *pd->bound <= 0) reject(kind, "bound must be > 0");
  } else if (const auto* bi = std::get_if<GlobalBclIterParams>(&params)) {
    if (bi->max_rounds < 1) reject(kind, "max_rounds must be >= 1");
  } else if (const auto* gl = std::get_if<GlobalLoadParams>(&params)) {
    if (gl->max_points < 1) reject(kind, "max_points must be >= 1");
  } else if (const auto* gr = std::get_if<GlobalRtaParams>(&params)) {
    if (gr->max_rounds < 1) reject(kind, "max_rounds must be >= 1");
    if (gr->max_iterations < 1) reject(kind, "max_iterations must be >= 1");
  } else if (const auto* gs = std::get_if<GlobalSimParams>(&params)) {
    if (gs->max_horizon <= 0) reject(kind, "max_horizon must be > 0");
  }
}

}  // namespace edfkit
