/// \file test_snapshot_v2.cpp
/// Format-v2 read upgrade. The fixtures under tests/data/snapshot_v2/
/// were written by the last v2 writer (see the README there): each
/// controller `.snap` is a snapshot taken mid-trace, and its
/// `.expected` file lists the continuation operations with the
/// decisions the v2 build made for them. Loaded by the v3 reader, every
/// fixture must reproduce those decisions exactly — the dropped fields
/// upgrade without changing a decision — except the one that sets a
/// non-default exact-rung option, which must refuse to load. (The
/// engine fixture is refused by kind; see test_snapshot.cpp.)
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "admission/snapshot.hpp"
#include "persist/format.hpp"

namespace edfkit {
namespace {

const std::string kDir = std::string(EDFKIT_TEST_DATA_DIR) + "/snapshot_v2/";

std::string analysis_fields(const FeasibilityResult& a) {
  std::ostringstream os;
  os << to_string(a.verdict) << ' ' << a.iterations << ' ' << a.revisions
     << ' ' << a.max_interval_tested << ' ' << a.witness << ' '
     << (a.degraded ? 1 : 0);
  return os.str();
}

Task read_task(std::istream& in) {
  Task t;
  in >> t.wcet >> t.deadline >> t.period >> t.jitter;
  return t;
}

std::vector<Task> read_group(std::istream& in) {
  std::size_t n = 0;
  in >> n;
  std::vector<Task> group;
  for (std::size_t i = 0; i < n; ++i) group.push_back(read_task(in));
  return group;
}

std::string join_ids(const std::vector<TaskId>& ids) {
  if (ids.empty()) return "-";
  std::string out;
  for (const TaskId id : ids) {
    if (!out.empty()) out += ',';
    out += std::to_string(id);
  }
  return out;
}

/// One continuation step: the operation text and the v2 decision.
struct Step {
  std::string op;
  std::string expected;
};

std::vector<Step> read_expected(const std::string& name) {
  std::ifstream in(kDir + name + ".expected");
  std::vector<Step> steps;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t arrow = line.find(" => ");
    if (arrow == std::string::npos) continue;
    steps.push_back({line.substr(0, arrow), line.substr(arrow + 4)});
  }
  return steps;
}

/// Replay the fixture's continuation on a controller loaded from its v2
/// snapshot, comparing every decision field with the v2 build's.
void replay_controller_fixture(const std::string& name) {
  AdmissionController ctl;
  (void)load_snapshot(ctl, kDir + name + ".snap");
  ASSERT_TRUE(ctl.verify_consistency());
  const std::vector<Step> steps = read_expected(name);
  ASSERT_GT(steps.size(), 100u);
  std::size_t exact = 0;
  for (const Step& s : steps) {
    std::istringstream in(s.op);
    std::string op;
    in >> op;
    std::ostringstream got;
    if (op == "admit") {
      const AdmissionDecision d = ctl.try_admit(read_task(in));
      exact += d.rung == AdmissionRung::Exact;
      got << (d.admitted ? 1 : 0) << ' ' << d.id << ' ' << to_string(d.rung)
          << ' ' << analysis_fields(d.analysis);
    } else if (op == "group") {
      const GroupDecision d = ctl.admit_group(read_group(in));
      exact += d.rung == AdmissionRung::Exact;
      got << (d.admitted ? 1 : 0) << ' ' << join_ids(d.ids) << ' '
          << to_string(d.rung) << ' ' << analysis_fields(d.analysis);
    } else if (op == "remove") {
      TaskId id = 0;
      in >> id;
      got << (ctl.remove(id) ? 1 : 0);
    } else if (op == "remove_group") {
      std::size_t n = 0;
      in >> n;
      std::vector<TaskId> ids(n);
      for (TaskId& id : ids) in >> id;
      got << ctl.remove_group(ids);
    } else if (op == "stats") {
      got << ctl.stats().to_string();
    } else {
      ASSERT_EQ(op, "resident");
      got << ctl.size();
    }
    ASSERT_EQ(got.str(), s.expected) << name << ": " << s.op;
  }
  EXPECT_GT(exact, 0u);  // the exact rung ran with its upgraded params
  EXPECT_TRUE(ctl.verify_consistency());
}

TEST(SnapshotV2, DefaultControllerReproducesV2Decisions) {
  replay_controller_fixture("controller_default");
}

TEST(SnapshotV2, IndexOffEagerControllerUpgradesDecisionIdentically) {
  // Written with the v2 slack-index switch off and eager compaction on
  // (and a Dynamic exact fallback): the store loads with never-engage
  // thresholds and tombstones from here on.
  {
    AdmissionController ctl;
    (void)load_snapshot(ctl, kDir + "controller_index_off_eager.snap");
    EXPECT_EQ(ctl.demand_header().segments, 1u);
    EXPECT_EQ(ctl.options().exact_fallback, TestKind::Dynamic);
  }
  replay_controller_fixture("controller_index_off_eager");
}

TEST(SnapshotV2, IndexOffUpgradesToNeverEngageThresholds) {
  // A v2 "index off" store loads exactly as if its thresholds had been
  // pinned with the bench seam; a default-options store does not.
  const auto digest = [](const std::string& name, bool pin) {
    AdmissionController ctl;
    (void)load_snapshot(ctl, kDir + name + ".snap");
    if (pin) ctl.set_index_thresholds(SIZE_MAX, SIZE_MAX);
    return store_digest(ctl);
  };
  EXPECT_EQ(digest("controller_index_off_eager", false),
            digest("controller_index_off_eager", true));
  EXPECT_NE(digest("controller_default", false),
            digest("controller_default", true));
}

TEST(SnapshotV2, NonDefaultExactRungOptionIsRejected) {
  AdmissionController ctl;
  try {
    (void)load_snapshot(ctl, kDir + "controller_nondefault_analyzer.snap");
    FAIL() << "a v2 snapshot with a non-default exact-rung option loaded";
  } catch (const persist::PersistError& e) {
    EXPECT_EQ(e.code(), persist::PersistErrc::BadValue);
  }
}

TEST(SnapshotV2, WritersEmitV3) {
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(AdmissionController{});
  const persist::SectionReader sr(bytes);
  EXPECT_EQ(sr.version(), 3u);
  EXPECT_EQ(persist::kFormatVersion, 3u);
}

}  // namespace
}  // namespace edfkit
