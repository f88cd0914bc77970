/// \file test_placement.cpp
/// Partitioned placement: placement_order over one AdmissionController
/// per processor, tried in order with try_admit / admit_group. Covers
/// each policy's order, capacity, removal, the multiprocessor refusal,
/// the partitioned invariant under churn, and golden digests that pin
/// the decision stream bit for bit.
#include "admission/placement.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "admission/replay.hpp"
#include "helpers.hpp"

namespace edfkit {
namespace {

using testing::tk;

/// One task placed by the caller's loop: the first processor in
/// placement order that admits it.
struct Placed {
  std::uint32_t cpu = UINT32_MAX;  ///< UINT32_MAX = rejected everywhere
  TaskId id = kInvalidTaskId;
  AdmissionRung rung = AdmissionRung::Structural;  ///< last processor tried
  std::uint32_t tried = 0;

  [[nodiscard]] bool admitted() const noexcept { return cpu != UINT32_MAX; }
};

Placed place(PlacementPolicy policy, std::vector<AdmissionController>& cpus,
             const Task& t) {
  Placed out;
  for (const std::uint32_t i :
       placement_order(policy, cpus, t.utilization_double())) {
    const AdmissionDecision d = cpus[i].try_admit(t);
    ++out.tried;
    out.rung = d.rung;
    if (d.admitted) {
      out.cpu = i;
      out.id = d.id;
      break;
    }
  }
  return out;
}

TEST(Placement, FirstFitFillsLowProcessorsFirst) {
  std::vector<AdmissionController> cpus(3);
  // Each processor holds exactly two of these (U = 0.5 each).
  for (int i = 0; i < 4; ++i) {
    const Placed p = place(PlacementPolicy::FirstFit, cpus, tk(5, 10, 10));
    ASSERT_TRUE(p.admitted());
    EXPECT_EQ(p.cpu, static_cast<std::uint32_t>(i / 2));
  }
  EXPECT_EQ(cpus[0].size(), 2u);
  EXPECT_EQ(cpus[1].size(), 2u);
  EXPECT_EQ(cpus[2].size(), 0u);
}

TEST(Placement, WorstFitBalances) {
  std::vector<AdmissionController> cpus(4);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        place(PlacementPolicy::WorstFit, cpus, tk(1, 10, 10)).admitted());
  }
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    EXPECT_EQ(cpus[i].size(), 2u) << "processor " << i;
  }
}

TEST(Placement, OrdersByPolicy) {
  // Loads 0.5, 0.9, 0.2, 0.7 and a candidate of 0.2: best-fit tries the
  // fullest processors that still have room (0.7, 0.5, 0.2), then the
  // one that looks hopeless (0.9).
  std::vector<AdmissionController> cpus(4);
  for (const auto& [cpu, wcet] : {std::pair{0, 5}, std::pair{1, 9},
                                  std::pair{2, 2}, std::pair{3, 7}}) {
    ASSERT_TRUE(cpus[cpu].try_admit(tk(wcet, 10, 10)).admitted);
  }
  using Order = std::vector<std::uint32_t>;
  EXPECT_EQ(placement_order(PlacementPolicy::FirstFit, cpus, 0.2),
            (Order{0, 1, 2, 3}));
  EXPECT_EQ(placement_order(PlacementPolicy::WorstFit, cpus, 0.2),
            (Order{2, 0, 3, 1}));
  EXPECT_EQ(placement_order(PlacementPolicy::BestFit, cpus, 0.2),
            (Order{3, 0, 2, 1}));
  EXPECT_TRUE(placement_order(PlacementPolicy::BestFit, {}, 0.2).empty());
}

TEST(Placement, CapacityScalesWithProcessors) {
  // Four tasks of U = 0.6 cannot share fewer than 4 processors.
  for (const std::size_t m : {std::size_t{2}, std::size_t{4}}) {
    std::vector<AdmissionController> cpus(m);
    std::size_t admitted = 0;
    for (int i = 0; i < 4; ++i) {
      const Placed p = place(PlacementPolicy::FirstFit, cpus, tk(6, 10, 10));
      admitted += p.admitted() ? 1 : 0;
      if (!p.admitted()) {
        EXPECT_EQ(p.tried, m);  // tried everywhere
      }
    }
    EXPECT_EQ(admitted, m);
  }
}

TEST(Placement, RemoveAndUnknownIds) {
  std::vector<AdmissionController> cpus(2);
  const Placed p = place(PlacementPolicy::FirstFit, cpus, tk(1, 5, 10));
  ASSERT_TRUE(p.admitted());
  EXPECT_TRUE(cpus[p.cpu].remove(p.id));
  EXPECT_FALSE(cpus[p.cpu].remove(p.id));  // gone
  EXPECT_FALSE(cpus[p.cpu].remove(kInvalidTaskId));
  EXPECT_FALSE(cpus[1 - p.cpu].remove(p.id));  // never placed there
  EXPECT_EQ(cpus[0].size() + cpus[1].size(), 0u);
}

TEST(Placement, RefusesMultiprocessorControllers) {
  // Processors are uniprocessors: an m-processor controller is refused,
  // not silently treated as one processor.
  AdmissionOptions global;
  global.platform = Platform{2};
  std::vector<AdmissionController> cpus;
  cpus.reserve(2);
  cpus.emplace_back();
  cpus.emplace_back(global);
  for (const PlacementPolicy p : {PlacementPolicy::FirstFit,
                                  PlacementPolicy::WorstFit,
                                  PlacementPolicy::BestFit}) {
    EXPECT_THROW((void)placement_order(p, cpus, 0.1), std::invalid_argument)
        << to_string(p);
  }
}

TEST(Placement, ChurnKeepsEveryProcessorFeasible) {
  // Four seeded clients interleave arrivals and departures against four
  // worst-fit processors.
  std::vector<AdmissionController> cpus(4);
  std::vector<Rng> rngs;
  std::vector<std::vector<Placed>> mine(4);
  for (std::uint64_t s = 1; s <= 4; ++s) rngs.emplace_back(s);
  for (int step = 0; step < 200; ++step) {
    for (std::size_t c = 0; c < rngs.size(); ++c) {
      Rng& rng = rngs[c];
      std::vector<Placed>& live = mine[c];
      if (!live.empty() && rng.bernoulli(0.4)) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_time(0, static_cast<Time>(live.size()) - 1));
        EXPECT_TRUE(cpus[live[pick].cpu].remove(live[pick].id));
        live[pick] = live.back();
        live.pop_back();
      } else {
        const Time period = rng.uniform_time(10, 100);
        const Time deadline = rng.uniform_time(5, period);
        const Time wcet = rng.uniform_time(1, std::max<Time>(1, deadline / 4));
        const Placed p =
            place(PlacementPolicy::WorstFit, cpus, tk(wcet, deadline, period));
        if (p.admitted()) live.push_back(p);
      }
    }
  }

  std::size_t resident = 0;
  for (const std::vector<Placed>& live : mine) resident += live.size();
  std::size_t held = 0;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    const AdmissionStats& s = cpus[i].stats();
    EXPECT_EQ(s.arrivals, s.admitted + s.rejected);
    held += cpus[i].size();
    // The partitioned invariant: every processor's resident set is
    // provably EDF-feasible under an exact from-scratch test. (QPA: the
    // resident utilization can end up arbitrarily close to 1, where the
    // plain processor-demand test's bound explodes.)
    EXPECT_TRUE(cpus[i].empty() ||
                cpus[i].analyze_resident(TestKind::Qpa).feasible())
        << "processor " << i;
  }
  EXPECT_EQ(held, resident);
  EXPECT_GT(resident, 0u);
}

// ------------------------------------------------------------- golden

/// Replays a churn trace across `cpus` — placement_order, then
/// try_admit or admit_group down the order — and folds every event's
/// outcome into a 64-bit FNV-1a digest: for an arrival (admitted,
/// processor, local id(s), rung, processors tried), for a departure the
/// number of tasks withdrawn.
struct PlacedReplay {
  std::uint64_t digest = 14695981039346656037ull;
  std::uint64_t admitted_tasks = 0;

  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xffu;
      digest *= 1099511628211ull;
    }
  }
};

PlacedReplay replay_placed(const std::vector<TraceEvent>& trace,
                           PlacementPolicy policy,
                           std::vector<AdmissionController>& cpus) {
  PlacedReplay out;
  std::unordered_map<std::uint64_t,
                     std::pair<std::uint32_t, std::vector<TaskId>>>
      live;
  for (const TraceEvent& ev : trace) {
    if (ev.op == TraceOp::Depart) {
      std::uint64_t gone = 0;
      if (const auto it = live.find(ev.key); it != live.end()) {
        for (const TaskId id : it->second.second) {
          gone += cpus[it->second.first].remove(id) ? 1 : 0;
        }
        live.erase(it);
      }
      out.fold(2);
      out.fold(gone);
      continue;
    }
    if (ev.op == TraceOp::Crash) continue;
    const bool group = ev.op == TraceOp::ArriveGroup;
    double u = 0.0;
    if (group) {
      for (const Task& t : ev.group) u += t.utilization_double();
    } else {
      u = ev.task.utilization_double();
    }
    std::uint32_t placed = UINT32_MAX;
    std::uint32_t tried = 0;
    AdmissionRung rung = AdmissionRung::Structural;
    std::vector<TaskId> ids;
    for (const std::uint32_t i : placement_order(policy, cpus, u)) {
      ++tried;
      if (group) {
        GroupDecision d = cpus[i].admit_group(ev.group);
        rung = d.rung;
        if (d.admitted) {
          placed = i;
          ids = std::move(d.ids);
          break;
        }
      } else {
        const AdmissionDecision d = cpus[i].try_admit(ev.task);
        rung = d.rung;
        if (d.admitted) {
          placed = i;
          ids = {d.id};
          break;
        }
      }
    }
    const bool admitted = placed != UINT32_MAX;
    out.fold(group ? 1 : 0);
    out.fold(admitted ? 1 : 0);
    out.fold(placed);
    if (group) {
      out.fold(ids.size());
      for (const TaskId id : ids) out.fold(id);
    } else {
      out.fold(admitted ? ids.front() : kInvalidTaskId);
    }
    out.fold(static_cast<std::uint64_t>(rung));
    out.fold(tried);
    if (admitted) {
      out.admitted_tasks += ids.size();
      live.emplace(ev.key, std::pair{placed, std::move(ids)});
    }
  }
  return out;
}

std::vector<TraceEvent> golden_trace(std::uint64_t seed, double depart) {
  ChurnConfig cfg;
  cfg.warmup_arrivals = 24;
  cfg.events = 600;
  cfg.depart_probability = depart;
  cfg.family = ChurnConfig::Family::Small;
  cfg.pool_utilization = 0.9;
  cfg.group_probability = 0.25;
  cfg.group_size = 3;
  Rng rng(seed);
  return generate_churn_trace(rng, cfg);
}

TEST(Placement, GoldenDecisionDigests) {
  // Recorded from the sharded admission engine this function replaced
  // (default AdmissionOptions per processor), by the same fold over the
  // same traces: placement must reproduce its decisions bit for bit.
  struct Golden {
    std::uint64_t seed;
    double depart;
    std::size_t cpus;
    PlacementPolicy policy;
    std::uint64_t digest;
  };
  constexpr PlacementPolicy kFirst = PlacementPolicy::FirstFit;
  constexpr PlacementPolicy kWorst = PlacementPolicy::WorstFit;
  constexpr PlacementPolicy kBest = PlacementPolicy::BestFit;
  const Golden golden[] = {
      {17, 0.55, 2, kFirst, 0x485a8411029098fdull},
      {17, 0.55, 2, kWorst, 0x33853db2268bbdfbull},
      {17, 0.55, 2, kBest, 0x4f4f63a700bd43a4ull},
      {17, 0.55, 4, kFirst, 0x14ef0bdeeb62e1e4ull},
      {17, 0.55, 4, kWorst, 0xf39872a9bc2262d5ull},
      {17, 0.55, 4, kBest, 0xcccd383fac2daaf0ull},
      {29, 0.45, 2, kFirst, 0x8e2f3eb9b8d22a1aull},
      {29, 0.45, 2, kWorst, 0x6035495eb2b285d9ull},
      {29, 0.45, 2, kBest, 0xcb98ade13bad263full},
      {29, 0.45, 4, kFirst, 0xbe1916533de0de64ull},
      {29, 0.45, 4, kWorst, 0x72a046cc2d0fcaa0ull},
      {29, 0.45, 4, kBest, 0x55bbafdd88f65e93ull},
  };
  for (const Golden& g : golden) {
    const std::vector<TraceEvent> trace = golden_trace(g.seed, g.depart);
    std::vector<AdmissionController> cpus(g.cpus);
    const PlacedReplay r = replay_placed(trace, g.policy, cpus);
    EXPECT_EQ(r.digest, g.digest)
        << "seed " << g.seed << ", " << g.cpus << " processors, "
        << to_string(g.policy);
  }
}

TEST(Placement, TwoProcessorsFitMoreThanOne) {
  ChurnConfig churn;
  churn.warmup_arrivals = 20;
  churn.events = 400;
  churn.pool_utilization = 0.9;
  churn.family = ChurnConfig::Family::Fixed;
  churn.fixed_tasks = 30;
  churn.group_probability = 0.5;
  churn.group_size = 4;
  Rng rng(123);
  const std::vector<TraceEvent> trace = generate_churn_trace(rng, churn);
  AdmissionOptions opts;
  opts.skip_exact = true;
  AdmissionController one(opts);
  const ReplayStats single = replay_trace(trace, one);
  std::vector<AdmissionController> two;
  two.reserve(2);
  two.emplace_back(opts);
  two.emplace_back(opts);
  const PlacedReplay placed =
      replay_placed(trace, PlacementPolicy::FirstFit, two);
  EXPECT_GT(single.groups, 0u);
  EXPECT_GE(placed.admitted_tasks, single.admitted);
}

}  // namespace
}  // namespace edfkit
