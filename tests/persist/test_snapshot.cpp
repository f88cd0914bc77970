/// \file test_snapshot.cpp
/// Durable admission state, snapshot half: save()/load() must restore a
/// store that makes *bit-identical* decisions to the original. The
/// centerpiece is a differential fuzz (>= 500 churn ops at U -> 1 with
/// group arrivals and removals) that repeatedly round-trips one
/// controller through disk while a never-persisted twin steps the same
/// trace — every decision and every published header field must match.
/// EDFKIT_FUZZ_MULT scales the depth (the nightly long-fuzz workflow
/// runs 20x).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "admission/replay.hpp"
#include "admission/snapshot.hpp"
#include "demand/approx.hpp"
#include "helpers.hpp"
#include "persist/format.hpp"

namespace edfkit {
namespace {

using testing::tk;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "edfkit_" + name + "_" +
         std::to_string(::getpid());
}

AdmissionOptions fuzz_options() {
  AdmissionOptions opts;
  opts.skip_exact = true;  // rung <= 2: pure incremental-store decisions
  return opts;
}

std::vector<TraceEvent> fuzz_trace(std::uint64_t seed, std::size_t events) {
  ChurnConfig churn;
  churn.warmup_arrivals = 40;
  churn.events = events;
  churn.pool_utilization = 0.99;  // ride the admission boundary
  churn.family = ChurnConfig::Family::Fixed;
  churn.fixed_tasks = 40;
  churn.group_probability = 0.35;
  churn.group_size = 5;
  Rng rng(seed);
  return generate_churn_trace(rng, churn);
}

void expect_headers_equal(const StoreHeader& a, const StoreHeader& b,
                          const char* what) {
  // Epochs count publications per process and legitimately differ.
  EXPECT_EQ(a.residents, b.residents) << what;
  EXPECT_EQ(a.constrained, b.constrained) << what;
  EXPECT_EQ(a.live_checkpoints, b.live_checkpoints) << what;
  EXPECT_EQ(a.dead_checkpoints, b.dead_checkpoints) << what;
  EXPECT_EQ(a.segments, b.segments) << what;
  EXPECT_EQ(a.utilization, b.utilization) << what;
  EXPECT_EQ(a.cert_ratio, b.cert_ratio) << what;
}

/// Step one trace event against a controller, tracking key -> ids.
struct Stepper {
  AdmissionController* ctl;
  std::vector<std::pair<std::uint64_t, std::vector<TaskId>>> live;

  bool step(const TraceEvent& ev) {
    if (ev.op == TraceOp::Depart) {
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].first != ev.key) continue;
        (void)ctl->remove_group(live[i].second);
        live[i] = live.back();
        live.pop_back();
        break;
      }
      return true;
    }
    if (ev.op == TraceOp::Crash) return true;
    if (ev.op == TraceOp::ArriveGroup) {
      GroupDecision d = ctl->admit_group(ev.group);
      if (d.admitted) live.emplace_back(ev.key, std::move(d.ids));
      return d.admitted;
    }
    const AdmissionDecision d = ctl->try_admit(ev.task);
    if (d.admitted) live.emplace_back(ev.key, std::vector<TaskId>{d.id});
    return d.admitted;
  }
};

TEST(Snapshot, EmptyControllerRoundTrips) {
  const std::string path = temp_path("empty");
  AdmissionController a(fuzz_options());
  save_snapshot(a, path, 0);
  AdmissionController b;  // different default options get overwritten
  const SnapshotMeta meta = load_snapshot(b, path);
  EXPECT_EQ(meta.kind, SnapshotKind::Controller);
  EXPECT_EQ(meta.journal_lsn, 0u);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.options().skip_exact);
  // Both decide the same arrival the same way.
  const Task t = tk(1, 4, 8);
  EXPECT_EQ(a.try_admit(t).admitted, b.try_admit(t).admitted);
  EXPECT_TRUE(b.verify_consistency());
  std::remove(path.c_str());
}

TEST(Snapshot, RoundTripRestoresStateBitExactly) {
  const std::string path = temp_path("roundtrip");
  AdmissionController live(fuzz_options());
  const std::vector<TraceEvent> trace = fuzz_trace(11, 400);
  Stepper s{&live, {}};
  for (const TraceEvent& ev : trace) (void)s.step(ev);
  ASSERT_GT(live.size(), 0u);

  save_snapshot(live, path, 123);
  AdmissionController loaded;
  const SnapshotMeta meta = load_snapshot(loaded, path);
  EXPECT_EQ(meta.journal_lsn, 123u);

  // Aggregates, options, stats, and per-id refinement levels all match.
  expect_headers_equal(live.demand_header(), loaded.demand_header(),
                       "after load");
  EXPECT_EQ(live.stats().to_string(), loaded.stats().to_string());
  EXPECT_EQ(live.options().epsilon, loaded.options().epsilon);
  const TaskSet a = live.snapshot();
  const TaskSet b = loaded.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "row " << i;
  }
  for (const auto& [key, ids] : s.live) {
    for (const TaskId id : ids) {
      ASSERT_NE(live.find(id), nullptr);
      ASSERT_NE(loaded.find(id), nullptr);
      EXPECT_TRUE(*live.find(id) == *loaded.find(id)) << "id " << id;
    }
  }
  // The loaded store's incremental aggregates equal a from-scratch
  // rebuild of its own rows — the strongest internal-consistency check.
  EXPECT_TRUE(loaded.verify_consistency());
  std::remove(path.c_str());
}

/// The acceptance fuzz: >= 500 churn ops at U -> 1 (groups + removals);
/// one controller round-trips through disk every ~90 events, the twin
/// never touches disk. Bit-identical decisions and headers throughout.
TEST(Snapshot, DifferentialFuzzRestoredVsNeverPersistedTwin) {
  const std::uint64_t mult = testing::fuzz_multiplier();
  const std::string path = temp_path("fuzz");
  const std::size_t events = 600 * static_cast<std::size_t>(mult);
  for (std::uint64_t seed : {3u, 17u}) {
    const std::vector<TraceEvent> trace = fuzz_trace(seed, events);
    auto persisted = std::make_unique<AdmissionController>(fuzz_options());
    AdmissionController twin(fuzz_options());
    Stepper sp{persisted.get(), {}};
    Stepper st{&twin, {}};
    std::size_t round_trips = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const bool dp = sp.step(trace[i]);
      const bool dt = st.step(trace[i]);
      if (dp != dt) {
        std::ostringstream repro;
        repro << "snapshot differential fuzz divergence\nseed=" << seed
              << " event=" << i << " persisted=" << dp << " twin=" << dt
              << "\n";
        testing::write_fuzz_artifact("snapshot_fuzz_divergence.txt",
                                     repro.str());
      }
      ASSERT_EQ(dp, dt) << "seed " << seed << " event " << i;
      expect_headers_equal(persisted->demand_header(), twin.demand_header(),
                           "mid-fuzz");
      if ((i + 1) % 89 == 0) {
        // Round-trip the persisted controller through disk and carry
        // on with the *loaded* store.
        save_snapshot(*persisted, path, 0);
        auto loaded = std::make_unique<AdmissionController>();
        (void)load_snapshot(*loaded, path);
        persisted = std::move(loaded);
        sp.ctl = persisted.get();
        ++round_trips;
      }
    }
    EXPECT_GT(round_trips, 4u) << "the fuzz must actually round-trip";
    EXPECT_GT(persisted->stats().rejected, 0u)
        << "U -> 1 churn must exercise rejects";
    EXPECT_TRUE(persisted->verify_consistency());
    EXPECT_TRUE(twin.verify_consistency());
    EXPECT_EQ(persisted->stats().to_string(), twin.stats().to_string());
  }
  std::remove(path.c_str());
}

/// Global admission mode (format v2's platform field): a controller
/// admitting against m processors must come back from disk *in* global
/// mode — same platform, same aggregates — and keep deciding
/// bit-identically to a never-persisted twin.
TEST(Snapshot, GlobalControllerRoundTripKeepsPlatformAndDecisions) {
  const std::string path = temp_path("global");
  AdmissionOptions opts = fuzz_options();
  opts.platform = Platform{2};
  AdmissionController live(opts);
  AdmissionController twin(opts);
  // Pool ~1.9 utilization: saturates the 2-processor platform, so the
  // trace exercises both global-ladder accepts past U = 1 and rejects.
  ChurnConfig churn;
  churn.warmup_arrivals = 40;
  churn.events = 300;
  churn.pool_utilization = 1.9;
  churn.family = ChurnConfig::Family::Fixed;
  churn.fixed_tasks = 40;
  churn.group_probability = 0.35;
  churn.group_size = 5;
  Rng rng(29);
  const std::vector<TraceEvent> trace = generate_churn_trace(rng, churn);
  Stepper sl{&live, {}};
  Stepper st{&twin, {}};
  const std::size_t half = trace.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    ASSERT_EQ(sl.step(trace[i]), st.step(trace[i])) << "event " << i;
  }
  ASSERT_GT(live.size(), 0u);

  save_snapshot(live, path, 5);
  AdmissionController loaded;  // uniprocessor defaults, overwritten by load
  (void)load_snapshot(loaded, path);
  EXPECT_EQ(loaded.options().platform.m, 2u)
      << "platform must survive the round trip";
  expect_headers_equal(live.demand_header(), loaded.demand_header(),
                       "after global-mode load");

  // Second half of the trace: the loaded store vs the never-persisted
  // twin, decision for decision. (Depart keys map through each
  // stepper's own id table, so the loaded controller reuses live's.)
  sl.ctl = &loaded;
  double max_utilization = 0.0;
  for (std::size_t i = half; i < trace.size(); ++i) {
    ASSERT_EQ(sl.step(trace[i]), st.step(trace[i]))
        << "post-load event " << i;
    expect_headers_equal(loaded.demand_header(), twin.demand_header(),
                         "post-load");
    max_utilization =
        std::max(max_utilization, loaded.demand_header().utilization);
  }
  // The restored controller must have admitted past uniprocessor
  // capacity — the evidence it really came back in global mode — and a
  // 1.9-utilization pool on m = 2 must also see rejects at the boundary.
  EXPECT_GT(max_utilization, 1.0);
  EXPECT_GT(loaded.stats().rejected, 0u);
  EXPECT_TRUE(loaded.verify_consistency());
  EXPECT_TRUE(twin.verify_consistency());
  std::remove(path.c_str());
}

TEST(Snapshot, CrashOpsResumeTransparently) {
  // TraceOp::Crash makes the persistence replay drop state and recover
  // in place; the decision stream must equal a crash-free replay of the
  // same trace.
  const std::string snap = temp_path("crash.snap");
  const std::string wal = temp_path("crash.wal");
  std::remove(snap.c_str());
  std::remove(wal.c_str());
  ChurnConfig churn;
  churn.warmup_arrivals = 30;
  churn.events = 500;
  churn.pool_utilization = 0.99;
  churn.family = ChurnConfig::Family::Fixed;
  churn.fixed_tasks = 30;
  churn.group_probability = 0.3;
  churn.group_size = 4;
  churn.crash_probability = 0.05;
  Rng rng(21);
  const std::vector<TraceEvent> trace = generate_churn_trace(rng, churn);

  AdmissionController durable(fuzz_options());
  ReplayPersistence persistence;
  persistence.snapshot_path = snap;
  persistence.journal_path = wal;
  persistence.snapshot_every = 32;
  const ReplayStats a = replay_trace(trace, durable, persistence);

  AdmissionController plain(fuzz_options());
  const ReplayStats b = replay_trace(trace, plain);

  EXPECT_GT(a.crashes, 0u);  // the resume path actually ran
  EXPECT_GT(a.snapshots, 0u);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.by_rung, b.by_rung);
  expect_headers_equal(durable.demand_header(), plain.demand_header(),
                       "after crash/resume replay");
  EXPECT_TRUE(durable.verify_consistency());

  // Journal-only durability (no snapshot file ever): every crash is a
  // cold full-journal replay — recover() must reset the live state
  // first, not double-apply the records on top of it.
  std::remove(snap.c_str());
  std::remove(wal.c_str());
  AdmissionController journal_only(fuzz_options());
  ReplayPersistence wal_only;
  wal_only.journal_path = wal;
  const ReplayStats c = replay_trace(trace, journal_only, wal_only);
  EXPECT_GT(c.crashes, 0u);
  EXPECT_EQ(c.admitted, b.admitted);
  EXPECT_EQ(c.rejected, b.rejected);
  EXPECT_EQ(c.by_rung, b.by_rung);
  expect_headers_equal(journal_only.demand_header(), plain.demand_header(),
                       "after journal-only crash/resume replay");
  EXPECT_TRUE(journal_only.verify_consistency());
  std::remove(snap.c_str());
  std::remove(wal.c_str());
}

/// Offsets into a format-v3 controller section payload (see
/// SnapshotCodec::encode_controller): 35 bytes of options, 80 of stats
/// and the 8-byte decision sequence, then the demand store's k (8) and
/// index-engagement flag (1), its two engagement thresholds, the next
/// id, and the resident row count.
constexpr std::size_t kLevelOffset = 35 + 80 + 8;
constexpr std::size_t kEngageAtOffset = kLevelOffset + 8 + 1;
constexpr std::size_t kDisengageBelowOffset = kEngageAtOffset + 8;
constexpr std::size_t kRowCountOffset = kDisengageBelowOffset + 16;

/// Overwrite one u64 of the controller section and re-seal the section
/// CRC, so the container stays valid and only the decoder can object.
/// \returns the value it replaced.
std::uint64_t patch_controller_u64(std::vector<std::uint8_t>& bytes,
                                   std::size_t offset, std::uint64_t value) {
  std::size_t pos = 16;  // magic, version, section count
  for (;;) {
    ByteReader h{std::span<const std::uint8_t>(bytes).subspan(pos, 16)};
    const std::uint32_t id = h.u32();
    const std::uint64_t len = h.u64();
    const std::size_t payload = pos + 16;
    if (id != 2) {  // not the controller section
      pos = payload + len;
      continue;
    }
    ByteReader old{std::span<const std::uint8_t>(bytes).subspan(
        payload + offset, 8)};
    const std::uint64_t replaced = old.u64();
    for (int i = 0; i < 8; ++i) {
      bytes[payload + offset + i] =
          static_cast<std::uint8_t>(value >> (8 * i));
    }
    const std::uint32_t crc = crc32(bytes.data() + payload, len);
    for (int i = 0; i < 4; ++i) {
      bytes[pos + 12 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    }
    return replaced;
  }
}

/// Run `load` and expect a PersistError with code `want`.
template <typename Load>
void expect_persist_error(Load load, persist::PersistErrc want,
                          const std::string& what) {
  try {
    load();
    ADD_FAILURE() << what << ": accepted";
  } catch (const persist::PersistError& e) {
    EXPECT_EQ(e.code(), want) << what;
  }
}

void expect_bad_value(std::vector<std::uint8_t> bytes, const char* what) {
  AdmissionController out;
  expect_persist_error(
      [&] { (void)load_snapshot_bytes(out, std::move(bytes)); },
      persist::PersistErrc::BadValue, what);
}

TEST(Snapshot, OversizedCountsAreTypedErrorsNotAllocations) {
  AdmissionController ctl(fuzz_options());
  Stepper s{&ctl, {}};
  for (const TraceEvent& ev : fuzz_trace(5, 60)) (void)s.step(ev);
  const std::vector<std::uint8_t> good = encode_snapshot(ctl);
  // The offsets above must name the fields they claim to.
  {
    std::vector<std::uint8_t> probe = good;
    ASSERT_EQ(patch_controller_u64(probe, kRowCountOffset, 0), ctl.size());
    ASSERT_EQ(patch_controller_u64(probe, kEngageAtOffset, 0), 48u);
    ASSERT_EQ(patch_controller_u64(probe, kDisengageBelowOffset, 0), 32u);
  }
  // A CRC-valid container whose resident count cannot fit in the bytes
  // that follow it: BadValue before any reserve, never bad_alloc or
  // length_error (the standby's REPL_SNAPSHOT path catches only
  // PersistError).
  for (const std::uint64_t n :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 62,
        std::uint64_t{100000000}}) {
    std::vector<std::uint8_t> bad = good;
    (void)patch_controller_u64(bad, kRowCountOffset, n);
    expect_bad_value(std::move(bad), "row count");
  }
  // Journal records bound their group sizes the same way.
  ByteWriter group;
  group.u8(static_cast<std::uint8_t>(JournalOp::AdmitGroup));
  group.u32(0xFFFFFFFFu);
  try {
    apply_record(ctl, group.data());
    ADD_FAILURE() << "oversized group record accepted";
  } catch (const persist::PersistError& e) {
    EXPECT_EQ(e.code(), persist::PersistErrc::BadValue);
  }
}

TEST(Snapshot, ApproxLevelAboveCeilingIsBadValue) {
  AdmissionController ctl(fuzz_options());
  Stepper s{&ctl, {}};
  for (const TraceEvent& ev : fuzz_trace(5, 60)) (void)s.step(ev);
  const std::vector<std::uint8_t> good = encode_snapshot(ctl);
  {
    std::vector<std::uint8_t> probe = good;
    ASSERT_EQ(patch_controller_u64(probe, kLevelOffset, 0),
              static_cast<std::uint64_t>(
                  approx_level(ctl.options().epsilon, "probe")));
  }
  // A CRC-valid snapshot cannot smuggle in a level the constructor would
  // refuse (4k would overflow near 2^62).
  for (const std::uint64_t k :
       {std::uint64_t{1} << 62,
        static_cast<std::uint64_t>(kMaxApproxLevel) + 1}) {
    std::vector<std::uint8_t> bad = good;
    (void)patch_controller_u64(bad, kLevelOffset, k);
    expect_bad_value(std::move(bad), "approximation level");
  }
}

TEST(Snapshot, IndexThresholdsRoundTripAndInvertedOnesAreRejected) {
  AdmissionController ctl(fuzz_options());
  Stepper s{&ctl, {}};
  for (const TraceEvent& ev : fuzz_trace(9, 60)) (void)s.step(ev);
  ctl.set_index_thresholds(SIZE_MAX, SIZE_MAX);  // the bench baseline
  std::vector<std::uint8_t> bytes = encode_snapshot(ctl);
  AdmissionController loaded;
  (void)load_snapshot_bytes(loaded, bytes);
  EXPECT_EQ(encode_snapshot(loaded), bytes);  // thresholds travel along
  EXPECT_EQ(store_digest(loaded), store_digest(ctl));

  // disengage_below > engage_at would flip engagement on every update
  // inside the window; set_index_thresholds refuses it, so must load.
  (void)patch_controller_u64(bytes, kEngageAtOffset, 40);
  (void)patch_controller_u64(bytes, kDisengageBelowOffset, 41);
  expect_bad_value(std::move(bytes), "inverted thresholds");
}

TEST(Snapshot, KindMismatchAndGarbageAreTypedErrors) {
  // A sharded-engine snapshot (kind 2, written by the last format-v2
  // writer) has no reader any more: every controller entry point
  // refuses it as an unknown kind.
  const std::string engine_snap =
      std::string(EDFKIT_TEST_DATA_DIR) + "/snapshot_v2/engine_default.snap";
  const std::vector<std::uint8_t> engine_bytes =
      persist::read_file(engine_snap);
  AdmissionController out;
  expect_persist_error([&] { (void)load_snapshot(out, engine_snap); },
                       persist::PersistErrc::BadValue, "load_snapshot");
  expect_persist_error(
      [&] { (void)load_snapshot_bytes(out, engine_bytes); },
      persist::PersistErrc::BadValue, "load_snapshot_bytes");
  expect_persist_error([&] { (void)read_snapshot_meta(engine_bytes); },
                       persist::PersistErrc::BadValue, "read_snapshot_meta");

  // Garbage bytes: BadMagic, not a silent empty store.
  const std::string path = temp_path("kind");
  persist::write_file_atomic(
      path, std::vector<std::uint8_t>(32, static_cast<std::uint8_t>('n')));
  expect_persist_error([&] { (void)load_snapshot(out, path); },
                       persist::PersistErrc::BadMagic, "garbage");
  std::remove(path.c_str());
}

TEST(Snapshot, SectionLengthNearTwoToTheSixtyFourIsTruncated) {
  // The first section's u64 length sits after the magic, version,
  // section count and section id. A length this close to 2^64 wraps
  // `offset + length` back inside the buffer; the reader must still
  // see that the section runs past the end instead of CRC-ing it.
  std::vector<std::uint8_t> bytes = encode_snapshot(AdmissionController{});
  constexpr std::size_t kFirstLenOffset = 8 + 4 + 4 + 4;
  const std::uint64_t len = UINT64_MAX - 15;
  std::memcpy(bytes.data() + kFirstLenOffset, &len, sizeof len);
  expect_persist_error(
      [&] { (void)persist::SectionReader(bytes); },
      persist::PersistErrc::Truncated, "wrapped section length");
  AdmissionController out;
  expect_persist_error([&] { (void)load_snapshot_bytes(out, bytes); },
                       persist::PersistErrc::Truncated,
                       "load_snapshot_bytes");
}

TEST(Snapshot, RetiredEngineJournalRecordsAreBadValue) {
  // The retired engine records, tags 16-18, in the layout their last
  // writer used: shard, then the assigned id(s), then the task(s).
  const Task t = tk(1, 10, 20);
  const auto engine_record = [&](std::uint8_t tag) {
    ByteWriter w;
    w.u8(tag);
    w.u32(0);  // shard
    if (tag == 17) w.u32(1);  // group size
    w.u64(1);  // assigned (or removed) local id
    if (tag != 18) {
      w.i64(t.wcet);
      w.i64(t.deadline);
      w.i64(t.period);
      w.i64(t.jitter);
      w.str(t.name);
    }
    return std::move(w).take();
  };
  const std::string wal = temp_path("retired.wal");
  for (const std::uint8_t tag : {16, 17, 18}) {
    const std::vector<std::uint8_t> record = engine_record(tag);
    AdmissionController ctl;
    expect_persist_error([&] { apply_record(ctl, record); },
                         persist::PersistErrc::BadValue,
                         "apply_record tag " + std::to_string(tag));
    {
      persist::Journal j = persist::Journal::create(wal);
      (void)j.append(journal_codec::admit(t));
      (void)j.append(record);
    }
    expect_persist_error([&] { (void)recover(ctl, "", wal); },
                         persist::PersistErrc::BadValue,
                         "recover tag " + std::to_string(tag));
  }
  std::remove(wal.c_str());
}

}  // namespace
}  // namespace edfkit
