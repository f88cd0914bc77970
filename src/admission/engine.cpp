#include "admission/engine.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"

namespace edfkit {

const char* to_string(PlacementPolicy p) noexcept {
  switch (p) {
    case PlacementPolicy::FirstFit: return "first-fit";
    case PlacementPolicy::WorstFit: return "worst-fit";
    case PlacementPolicy::BestFit: return "best-fit";
  }
  return "?";
}

std::string EngineStats::to_string() const {
  std::ostringstream os;
  os << "resident=" << resident
     << " total-utilization=" << total_utilization << "\n"
     << admission.to_string() << "\nshards:";
  for (std::size_t i = 0; i < shard_utilization.size(); ++i) {
    os << " [" << i << "] n=" << shard_resident[i]
       << " U=" << shard_utilization[i];
  }
  return os.str();
}

std::string EngineStats::to_json() const {
  std::ostringstream os;
  os << "{\"admission\":" << admission.to_json()
     << ",\"resident\":" << resident
     << ",\"total_utilization\":" << total_utilization
     << ",\"stats_read_retries\":" << stats_read_retries << ",\"shards\":[";
  for (std::size_t i = 0; i < shard_utilization.size(); ++i) {
    if (i != 0) os << ',';
    os << "{\"resident\":" << shard_resident[i]
       << ",\"utilization\":" << shard_utilization[i] << '}';
  }
  os << "]}";
  return os.str();
}

void AdmissionEngine::Shard::publish() noexcept {
  // The protocol (odd-epoch, fences, lap check) lives in
  // util/seqlock.hpp; this only fills the named buffer.
  epoch.publish([&](std::size_t idx) {
    Header& h = header[idx];
    const AdmissionStats& s = controller.stats();
    h.arrivals.store(s.arrivals, std::memory_order_relaxed);
    h.admitted.store(s.admitted, std::memory_order_relaxed);
    h.rejected.store(s.rejected, std::memory_order_relaxed);
    h.removals.store(s.removals, std::memory_order_relaxed);
    h.groups.store(s.groups, std::memory_order_relaxed);
    h.effort.store(s.total_effort, std::memory_order_relaxed);
    for (std::size_t r = 0; r < kAdmissionRungs; ++r) {
      h.by_rung[r].store(s.by_rung[r], std::memory_order_relaxed);
    }
    h.resident.store(controller.size(), std::memory_order_relaxed);
    h.utilization.store(controller.utilization(),
                        std::memory_order_relaxed);
  });
}

void AdmissionEngine::Shard::read_stats(
    AdmissionStats& stats, std::size_t& resident, double& utilization,
    std::uint64_t& retries) const noexcept {
  (void)epoch.read(
      [&](std::size_t idx) {
        const Header& h = header[idx];
        stats.arrivals = h.arrivals.load(std::memory_order_relaxed);
        stats.admitted = h.admitted.load(std::memory_order_relaxed);
        stats.rejected = h.rejected.load(std::memory_order_relaxed);
        stats.removals = h.removals.load(std::memory_order_relaxed);
        stats.groups = h.groups.load(std::memory_order_relaxed);
        stats.total_effort = h.effort.load(std::memory_order_relaxed);
        for (std::size_t r = 0; r < kAdmissionRungs; ++r) {
          stats.by_rung[r] = h.by_rung[r].load(std::memory_order_relaxed);
        }
        resident = static_cast<std::size_t>(
            h.resident.load(std::memory_order_relaxed));
        utilization = h.utilization.load(std::memory_order_relaxed);
      },
      retries);
}

AdmissionEngine::AdmissionEngine(EngineOptions opts) : opts_(opts) {
  if (opts_.shards == 0) {
    throw std::invalid_argument("AdmissionEngine: shards >= 1 required");
  }
  if (!opts_.admission.platform.uniprocessor()) {
    throw std::invalid_argument(
        "AdmissionEngine: shards are uniprocessors; admit globally with "
        "an AdmissionController on Platform{m}");
  }
  shards_.reserve(opts_.shards);
  for (std::size_t i = 0; i < opts_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(opts_.admission));
  }
}

std::vector<std::uint32_t> AdmissionEngine::placement_order(
    double candidate_utilization) const {
  std::vector<std::uint32_t> order(shards_.size());
  std::iota(order.begin(), order.end(), 0u);
  if (opts_.placement == PlacementPolicy::FirstFit) return order;

  std::vector<double> load(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    load[i] = shards_[i]->load.load(std::memory_order_relaxed);
  }
  const auto by_load = [&](bool ascending) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return ascending ? load[a] < load[b]
                                        : load[a] > load[b];
                     });
  };
  if (opts_.placement == PlacementPolicy::WorstFit) {
    by_load(/*ascending=*/true);
  } else {
    // BestFit: most-loaded shard whose estimate still leaves room for
    // the candidate first; hopeless-looking shards go last (estimates
    // are only heuristics — the controller still gets the final say).
    by_load(/*ascending=*/false);
    std::stable_partition(order.begin(), order.end(), [&](std::uint32_t i) {
      return load[i] + candidate_utilization <= 1.0;
    });
  }
  return order;
}

PlacementDecision AdmissionEngine::admit(const Task& t) {
  PlacementDecision out;
  obs::EngineInstruments* const m = metrics_;
  const std::uint64_t t0 = m != nullptr ? obs::now_ns() : 0;
  for (const std::uint32_t i : placement_order(t.utilization_double())) {
    Shard& s = *shards_[i];
    AdmissionDecision d;
    const std::uint64_t s0 = m != nullptr ? obs::now_ns() : 0;
    {
      const std::lock_guard<std::mutex> lock(s.mu);
      d = s.controller.try_admit(t);
      s.load.store(s.controller.utilization(), std::memory_order_relaxed);
      s.publish();
    }
    if (m != nullptr) {
      m->shard_decision_ns[i].record(obs::now_ns() - s0);
    }
    ++out.shards_tried;
    out.rung = d.rung;
    out.analysis = d.analysis;
    if (d.admitted) {
      out.admitted = true;
      out.id = {i, d.id};
      break;
    }
  }
  if (m != nullptr) {
    m->placements.add();
    if (!out.admitted) m->placement_rejects.add();
    m->placement_ns.record(obs::now_ns() - t0);
    m->shards_tried.record(out.shards_tried);
  }
  return out;
}

GroupPlacement AdmissionEngine::admit_group(std::span<const Task> group) {
  GroupPlacement out;
  obs::EngineInstruments* const m = metrics_;
  const std::uint64_t t0 = m != nullptr ? obs::now_ns() : 0;
  double group_util = 0.0;
  for (const Task& t : group) group_util += t.utilization_double();
  for (const std::uint32_t i : placement_order(group_util)) {
    Shard& s = *shards_[i];
    GroupDecision d;
    const std::uint64_t s0 = m != nullptr ? obs::now_ns() : 0;
    {
      const std::lock_guard<std::mutex> lock(s.mu);
      d = s.controller.admit_group(group);
      s.load.store(s.controller.utilization(), std::memory_order_relaxed);
      s.publish();
    }
    if (m != nullptr) {
      m->shard_decision_ns[i].record(obs::now_ns() - s0);
    }
    ++out.shards_tried;
    out.rung = d.rung;
    out.analysis = d.analysis;
    if (d.admitted) {
      out.admitted = true;
      out.shard = i;
      out.ids.reserve(d.ids.size());
      for (const TaskId id : d.ids) out.ids.push_back({i, id});
      break;
    }
  }
  if (m != nullptr) {
    m->group_placements.add();
    if (!out.admitted) m->placement_rejects.add();
    m->placement_ns.record(obs::now_ns() - t0);
    m->shards_tried.record(out.shards_tried);
  }
  return out;
}

bool AdmissionEngine::remove(GlobalTaskId id) {
  if (!id.valid() || id.shard >= shards_.size()) return false;
  Shard& s = *shards_[id.shard];
  const std::lock_guard<std::mutex> lock(s.mu);
  const bool removed = s.controller.remove(id.local);
  if (removed) {
    s.load.store(s.controller.utilization(), std::memory_order_relaxed);
    s.publish();
  }
  return removed;
}

double AdmissionEngine::utilization_estimate() const noexcept {
  double u = 0.0;
  for (const auto& shard : shards_) {
    u += shard->load.load(std::memory_order_relaxed);
  }
  return u;
}

namespace {

void reset_stats(EngineStats& out, std::size_t shards) {
  out.admission = AdmissionStats{};
  out.resident = 0;
  out.total_utilization = 0.0;
  out.shard_utilization.clear();
  out.shard_resident.clear();
  out.shard_utilization.reserve(shards);
  out.shard_resident.reserve(shards);
}

void merge_shard(EngineStats& out, const AdmissionStats& s,
                 std::size_t resident, double utilization) {
  out.admission.arrivals += s.arrivals;
  out.admission.admitted += s.admitted;
  out.admission.rejected += s.rejected;
  out.admission.removals += s.removals;
  out.admission.groups += s.groups;
  out.admission.total_effort += s.total_effort;
  for (std::size_t r = 0; r < s.by_rung.size(); ++r) {
    out.admission.by_rung[r] += s.by_rung[r];
  }
  out.shard_resident.push_back(resident);
  out.shard_utilization.push_back(utilization);
  out.resident += resident;
  out.total_utilization += utilization;
}

}  // namespace

void AdmissionEngine::stats_into(EngineStats& out) const {
  reset_stats(out, shards_.size());
  std::uint64_t retries = 0;
  for (const auto& shard : shards_) {
    AdmissionStats s;
    std::size_t resident = 0;
    double utilization = 0.0;
    // No mutex: wait-free (retries counts lapped-reader spins).
    shard->read_stats(s, resident, utilization, retries);
    merge_shard(out, s, resident, utilization);
  }
  std::uint64_t total = stats_retries_.load(std::memory_order_relaxed);
  if (retries != 0) {
    total = stats_retries_.fetch_add(retries, std::memory_order_relaxed) +
            retries;
    if (metrics_ != nullptr) metrics_->stats_read_retries.add(retries);
  }
  out.stats_read_retries = total;
}

void AdmissionEngine::stats_locked_into(EngineStats& out) const {
  reset_stats(out, shards_.size());
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    merge_shard(out, shard->controller.stats(), shard->controller.size(),
                shard->controller.utilization());
  }
  out.stats_read_retries = stats_retries_.load(std::memory_order_relaxed);
}

EngineStats AdmissionEngine::stats() const {
  EngineStats out;
  stats_into(out);
  return out;
}

EngineStats AdmissionEngine::stats_locked() const {
  EngineStats out;
  stats_locked_into(out);
  return out;
}

TaskSet AdmissionEngine::shard_snapshot(std::size_t i) const {
  const Shard& s = *shards_.at(i);
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.controller.snapshot();
}

FeasibilityResult AdmissionEngine::analyze_shard(std::size_t i,
                                                 TestKind kind) const {
  const Shard& s = *shards_.at(i);
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.controller.analyze_resident(kind);
}

void AdmissionEngine::attach_obs(obs::Obs* obs) {
  const bool on = obs != nullptr && obs->config().any();
  metrics_ = on && obs->config().metrics ? obs->engine(shards_.size())
                                         : nullptr;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    const std::lock_guard<std::mutex> lock(s.mu);
    s.controller.attach_obs(on ? obs : nullptr, i);
  }
}

}  // namespace edfkit
