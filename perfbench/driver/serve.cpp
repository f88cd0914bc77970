/// \file serve.cpp
/// The serve-* workloads: a real admission_server (plus a hot standby
/// on serve-light) driven over loopback through net::Client, two
/// tenants on one connection each, one client thread per connection.
///
/// A run is: set-up (spawn -> listening -> HELLO -> warm-up fill),
/// repeated and timed; an open-loop phase of a fixed request count at
/// the workload's offered rate (latency, timed from each request's
/// scheduled send time); a closed-loop phase of fixed wall time
/// (throughput); then, untimed, an in-process twin AdmissionController
/// per tenant replays the recorded stream and must reproduce every
/// answer. The open-loop phase comes first and has a fixed length, so
/// the server's work counters over it repeat exactly for a seed.
#include <sched.h>

#include <array>
#include <atomic>
#include <cmath>
#include <deque>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <thread>

#include "admission/controller.hpp"
#include "admission/snapshot.hpp"
#include "common.hpp"
#include "gen/scenario.hpp"
#include "gen/taskset_gen.hpp"
#include "net/client.hpp"
#include "obs/obs.hpp"
#include "persist/journal.hpp"
#include "process.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

using namespace edfkit;
namespace fs = std::filesystem;

enum class Family { Fixed, Paper };

struct TenantSpec {
  Family family = Family::Fixed;
  int fixed_tasks = 10;  ///< tasks per drawn pool set (Family::Fixed)
  double pool_utilization = 0.7;
  double group_probability = 0.15;
  std::size_t group_size = 4;
  /// The residency the tenant is held at. A mutation departs when the
  /// resident task count has reached `target` (or, with `target` 0, the
  /// resident utilization has reached `target_utilization`), and after
  /// every refused arrival so a full tenant cannot refuse forever; it
  /// arrives otherwise.
  std::size_t target = 0;
  double target_utilization = 0.0;
  /// Set-up fills the tenant with arrivals until this many tasks are
  /// resident, then runs this many churn requests toward the mix's
  /// steady state.
  std::size_t warm_tasks = 0;
  std::size_t warm_events = 0;
};

/// Every serve workload journals its tenants under --data-dir with the
/// default durability class (no fsync): on the shared disk of the host
/// the benchmark was defined on, fsyncs on the event loop made latency
/// follow the disk rather than the server (perfbench/README.md).
struct ServeSpec {
  std::vector<TenantSpec> tenants;
  std::size_t checkpoint_every = 4096;  ///< the server's default
  bool skip_exact = false;
  bool standby = false;
  /// A STATS read after every this many mutations (0 = none).
  std::size_t stats_every = 0;
  /// Open-loop offered rate, requests/s over both connections: about a
  /// quarter to a third of the closed-loop rate measured when the
  /// benchmark was defined (perfbench/README.md says why not half).
  /// Fixed here, never derived per run.
  double offered_rate = 0.0;
};

/// The server's default ε (examples/admission_server.cpp); the twin
/// must run the same options.
constexpr double kServerEpsilon = 0.1;

ServeSpec spec_for(const std::string& workload) {
  ServeSpec s;
  if (workload == "serve-light") {
    // Residency held at 6 tasks (U ~ 0.42) keeps every decision at
    // rung 1 or 2: the analysis does almost nothing, the wire, journal
    // and shipping do the work.
    TenantSpec t;
    t.family = Family::Fixed;
    t.fixed_tasks = 10;
    t.pool_utilization = 0.7;
    t.group_probability = 0.15;
    t.group_size = 4;
    t.target = 6;
    t.warm_tasks = 6;
    s.tenants = {t, t};
    s.checkpoint_every = 0;
    s.standby = true;
    s.stats_every = 10;
    s.offered_rate = 10000.0;
  } else if (workload == "serve-paper") {
    // The shipped server defaults (epsilon 0.1, QPA exact fallback) on
    // Paper-family pools. Residency is held at U = 0.98: that is where
    // admission_client's shape settles after thousands of events, with
    // rung 3 taking most of the decision time, but without its excursions
    // to U -> 1 whose single QPA decisions take up to ~0.4 s.
    TenantSpec t;
    t.family = Family::Paper;
    t.pool_utilization = 0.9;
    t.group_probability = 0.15;
    t.group_size = 4;
    t.target_utilization = 0.98;
    t.warm_tasks = 20;
    t.warm_events = 500;
    s.tenants = {t, t};
    s.offered_rate = 2000.0;
  } else if (workload == "serve-large") {
    // Pool sets of 102 (1020) tasks at U = 0.99 put ~100 (~1000)
    // residents near U = 0.97: single arrivals and most 8-task groups
    // need the rung-2 scan; a group past U = 1 is refused at rung 1.
    TenantSpec small;
    small.family = Family::Fixed;
    small.fixed_tasks = 102;
    small.pool_utilization = 0.99;
    small.group_probability = 0.5;
    small.group_size = 8;
    small.target = 100;
    small.warm_tasks = 100;
    TenantSpec big = small;
    big.fixed_tasks = 1020;
    big.target = 1000;
    big.warm_tasks = 1000;
    s.tenants = {small, big};
    s.skip_exact = true;
    s.offered_rate = 5000.0;
  } else {
    throw std::invalid_argument("unknown serve workload " + workload);
  }
  return s;
}

// ------------------------------------------------------------- traffic

/// The request stream of one tenant. Deterministic for a seed given
/// the answers it is fed, so the twin regenerates the identical stream
/// by feeding its own answers.
class Traffic {
 public:
  Traffic(const TenantSpec& spec, std::size_t stats_every, std::uint64_t seed)
      : spec_(spec),
        stats_every_(stats_every),
        rng_(seed),
        pool_rng_(seed ^ 0x9E3779B97F4A7C15ull) {}

  /// The next request; `fill` forces an arrival (warm-up). As in
  /// generate_churn_trace (admission/replay.hpp), a departure names any
  /// earlier arrival; one that was rejected sends nothing.
  net::NetRequest next(bool fill) {
    net::NetRequest req;
    if (!fill && stats_every_ != 0 && mutations_ >= stats_every_) {
      mutations_ = 0;
      req.hdr.op = static_cast<std::uint8_t>(net::NetOp::Stats);
      return req;
    }
    ++mutations_;
    for (;;) {
      bool depart = false;
      if (!fill && !live_.empty()) {
        depart = refused_ || (spec_.target != 0
                                  ? resident_ >= spec_.target
                                  : utilization_ >= spec_.target_utilization);
      }
      if (!depart) break;
      const std::size_t pick = static_cast<std::size_t>(
          rng_.uniform_time(0, static_cast<Time>(live_.size()) - 1));
      Entry e = std::move(live_[pick]);
      live_[pick] = std::move(live_.back());
      live_.pop_back();
      if (e.ids.empty()) continue;  // never admitted: nothing to send
      refused_ = false;
      req.hdr.op = static_cast<std::uint8_t>(net::NetOp::RemoveGroup);
      req.ids = std::move(e.ids);
      resident_ -= req.ids.size();
      utilization_ -= e.utilization;
      return req;
    }
    if (rng_.bernoulli(spec_.group_probability)) {
      req.hdr.op = static_cast<std::uint8_t>(net::NetOp::AdmitGroup);
      pending_utilization_ = 0.0;
      for (std::size_t i = 0; i < spec_.group_size; ++i) {
        req.group.push_back(draw());
        pending_utilization_ += req.group.back().utilization_double();
      }
    } else {
      req.hdr.op = static_cast<std::uint8_t>(net::NetOp::Admit);
      req.task = draw();
      pending_utilization_ = req.task.utilization_double();
    }
    return req;
  }

  /// Feed back an arrival's admitted ids (empty when rejected).
  void arrived(std::vector<TaskId> ids) {
    refused_ = ids.empty();
    resident_ += ids.size();
    const double u = ids.empty() ? 0.0 : pending_utilization_;
    utilization_ += u;
    live_.push_back({std::move(ids), u});
  }

  [[nodiscard]] std::size_t resident() const noexcept { return resident_; }

  /// Draw pool sets ahead until `tasks` arrivals are buffered. Pool
  /// sets come from their own generator, so drawing them early changes
  /// the timing of the stream, never its content.
  void prefetch(std::size_t tasks) {
    while (pool_.size() < tasks) refill();
  }

 private:
  Task draw() {
    if (pool_.empty()) refill();
    Task t = std::move(pool_.front());
    pool_.pop_front();
    return t;
  }

  void refill() {
    TaskSet set;
    if (spec_.family == Family::Paper) {
      set = draw_fig8_set(pool_rng_, spec_.pool_utilization);
    } else {
      GeneratorConfig g;
      g.tasks = spec_.fixed_tasks;
      g.utilization = spec_.pool_utilization;
      set = generate_task_set(pool_rng_, g);
    }
    pool_.insert(pool_.end(), set.begin(), set.end());
  }

  TenantSpec spec_;
  std::size_t stats_every_;
  Rng rng_;       ///< departures, group choices
  Rng pool_rng_;  ///< pool sets
  std::deque<Task> pool_;
  struct Entry {
    std::vector<TaskId> ids;  ///< empty when the arrival was refused
    double utilization = 0.0;
  };
  std::vector<Entry> live_;
  std::size_t resident_ = 0;
  double utilization_ = 0.0;
  double pending_utilization_ = 0.0;
  std::size_t mutations_ = 0;
  bool refused_ = false;
};

// -------------------------------------------------------- wire records

/// kFill and kWarm are set-up (arrivals only, then churn); kOpen is
/// the fixed-length open loop; kClosed / kClosedTraced are the closed
/// loop's untraced and traced slices.
enum Phase : std::uint8_t {
  kFill = 0,
  kWarm = 1,
  kOpen = 2,
  kClosed = 3,
  kClosedTraced = 4,
};
constexpr std::size_t kPhases = 5;

/// Wire ops the layer metrics break out, in metric-name order.
constexpr std::array<net::NetOp, 4> kOps = {
    net::NetOp::Admit, net::NetOp::AdmitGroup, net::NetOp::RemoveGroup,
    net::NetOp::Stats};

int op_slot(std::uint8_t op) {
  for (std::size_t i = 0; i < kOps.size(); ++i) {
    if (static_cast<std::uint8_t>(kOps[i]) == op) return static_cast<int>(i);
  }
  return -1;
}

/// One answered request, compact (the twin regenerates the request).
struct WireRec {
  std::uint64_t request_id = 0;
  std::uint64_t removed = 0;
  std::uint32_t ids_off = 0;
  std::uint32_t ids_n = 0;
  std::uint32_t stats_idx = 0;
  std::uint8_t op = 0;
  std::uint8_t status = 0;
  std::uint8_t rung = 0;
  std::uint8_t verdict = 0;
  std::uint8_t phase = 0;
};

bool answered(std::uint8_t status) {
  return status == static_cast<std::uint8_t>(net::NetStatus::Ok) ||
         status == static_cast<std::uint8_t>(net::NetStatus::Rejected);
}

/// One tenant's connection and everything recorded on it.
struct Conn {
  std::uint32_t index = 0;
  std::string tenant;
  net::Client client;
  std::unique_ptr<Traffic> traffic;
  std::uint64_t seq = 0;
  Tracer::Buffer* spans = nullptr;

  std::vector<WireRec> recs;
  std::vector<TaskId> ids;
  std::vector<StoreHeader> stats;

  // Open loop.
  std::vector<double> latency_us;  ///< from scheduled send; inf = failed
  std::vector<double> late_us;     ///< generator lateness
  /// Closed loop: requests started per time slice.
  std::vector<std::uint32_t> closed_slices;
  Clock::time_point last_reply{};
  // Per phase: requests sent / answered (Ok or Rejected).
  std::array<std::uint64_t, kPhases> sent{};
  std::array<std::uint64_t, kPhases> ok{};
  // Tasks offered / admitted in the warm-up churn and the open loop:
  // the fixed-length part of the stream, so admit_ratio is a function
  // of the seed alone.
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::string error;

  /// The next request of this tenant's stream.
  net::NetRequest next(std::uint8_t phase) {
    return traffic->next(phase == kFill);
  }

  /// One synchronous round trip of `req`, recorded.
  std::uint8_t call(std::uint8_t phase, Tracer& tracer, net::NetRequest req,
                    Clock::time_point* sent_at = nullptr) {
    const std::uint8_t op = req.hdr.op;
    const std::size_t tasks =
        op == static_cast<std::uint8_t>(net::NetOp::Admit)
            ? 1
            : (op == static_cast<std::uint8_t>(net::NetOp::AdmitGroup)
                   ? req.group.size()
                   : 0);
    // Request ids are unique across tenants: the wire span and the twin
    // span of one request join on it.
    const std::uint64_t rid = (static_cast<std::uint64_t>(index + 1) << 40) | ++seq;
    req.hdr.request_id = rid;
    const Clock::time_point t0 = Clock::now();
    if (sent_at != nullptr) *sent_at = t0;
    (void)client.send(std::move(req));
    net::NetResponse resp = client.receive();
    const Clock::time_point t1 = Clock::now();
    last_reply = t1;
    if (resp.hdr.request_id != rid) {
      throw std::runtime_error("response carries another request's id");
    }
    if (tracer.enabled() && (phase == kOpen || phase == kClosedTraced)) {
      tracer.record(spans, net::to_string(static_cast<net::NetOp>(op)), t0, t1,
                    rid, 0, rid, index);
    }

    WireRec r;
    r.request_id = resp.hdr.request_id;
    r.op = op;
    r.status = resp.hdr.status;
    r.rung = resp.rung;
    r.verdict = resp.verdict;
    r.removed = resp.removed;
    r.phase = phase;
    const bool ok_status = resp.hdr.status ==
                           static_cast<std::uint8_t>(net::NetStatus::Ok);
    std::vector<TaskId> got;
    if (ok_status && op == static_cast<std::uint8_t>(net::NetOp::Admit)) {
      got = {resp.id};
    } else if (ok_status &&
               op == static_cast<std::uint8_t>(net::NetOp::AdmitGroup)) {
      got = resp.ids;
    }
    r.ids_off = static_cast<std::uint32_t>(ids.size());
    r.ids_n = static_cast<std::uint32_t>(got.size());
    ids.insert(ids.end(), got.begin(), got.end());
    if (op == static_cast<std::uint8_t>(net::NetOp::Stats)) {
      r.stats_idx = static_cast<std::uint32_t>(stats.size());
      stats.push_back(resp.stats);
    }
    recs.push_back(r);
    ++sent[phase];
    if (answered(resp.hdr.status)) ++ok[phase];
    if (phase == kWarm || phase == kOpen) {
      arrivals += tasks;
      if (ok_status) admitted += tasks;
    }
    if (tasks != 0) traffic->arrived(std::move(got));
    return resp.hdr.status;
  }
};

std::string tenant_name(std::size_t i) { return "t" + std::to_string(i); }

/// CPU placement. Cross-CPU wake-ups cost a different amount depending
/// on which threads the scheduler happens to co-locate, which made
/// throughput bimodal run to run on a 4-vCPU host. With at least four
/// CPUs the benchmark fixes the placement: the primary's event loop on
/// the first, client thread i on the (i+2)-th, the primary's shipper and
/// the standby on the last. With fewer, nothing is pinned.
std::vector<int> usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &set)) cpus.push_back(i);
  }
  return cpus.size() >= 4 ? cpus : std::vector<int>{};
}

/// Pin the calling thread to `cpu` (no-op for -1).
void pin_self(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

int cpu_for(const std::vector<int>& cpus, std::size_t slot) {
  return cpus.empty() ? -1 : cpus[std::min(slot, cpus.size() - 1)];
}

/// Pin a running server: its main (event-loop) thread to `main_cpu`,
/// every other thread (the journal shipper) to `other_cpu`.
void pin_process(pid_t pid, int main_cpu, int other_cpu) {
  if (main_cpu < 0) return;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(
           "/proc/" + std::to_string(pid) + "/task", ec)) {
    const pid_t tid = static_cast<pid_t>(std::stol(e.path().filename()));
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(tid == pid ? main_cpu : other_cpu, &set);
    (void)sched_setaffinity(tid, sizeof(set), &set);
  }
}

std::uint64_t tenant_seed(std::uint64_t seed, std::size_t i) {
  return seed * 1000003ull + 7919ull * (i + 1);
}

/// One set-up of the served system: processes, connections, warm-up.
struct Deployment {
  std::unique_ptr<ServerProcess> standby;
  std::unique_ptr<ServerProcess> primary;
  std::vector<std::unique_ptr<Conn>> conns;
  std::string dir;

  ~Deployment() {
    conns.clear();
    primary.reset();
    standby.reset();
    std::error_code ec;
    fs::remove_all(dir + "/primary", ec);
    fs::remove_all(dir + "/standby", ec);
  }
};

std::unique_ptr<Deployment> deploy(const ServeSpec& spec,
                                   const RunConfig& cfg, const std::string& dir,
                                   Tracer& tracer) {
  auto d = std::make_unique<Deployment>();
  d->dir = dir;
  fs::create_directories(dir);
  std::vector<std::string> args = {"--port", "0", "--bind", "127.0.0.1"};
  if (spec.skip_exact) args.push_back("--skip-exact");
  args.insert(args.end(),
              {"--data-dir", dir + "/primary", "--checkpoint-every",
               std::to_string(spec.checkpoint_every)});
  const std::vector<int> cpus = usable_cpus();
  if (spec.standby) {
    d->standby = std::make_unique<ServerProcess>(
        cfg.server_bin,
        std::vector<std::string>{"--port", "0", "--bind", "127.0.0.1",
                                 "--data-dir", dir + "/standby", "--standby"},
        dir + "/standby");
    args.insert(args.end(),
                {"--replicate-to",
                 "127.0.0.1:" + std::to_string(d->standby->port())});
  }
  d->primary = std::make_unique<ServerProcess>(cfg.server_bin, args,
                                               dir + "/primary");
  const int spare = cpu_for(cpus, cpus.size());
  pin_process(d->primary->pid(), cpu_for(cpus, 0), spare);
  if (d->standby) pin_process(d->standby->pid(), spare, spare);
  for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
    auto c = std::make_unique<Conn>();
    c->index = static_cast<std::uint32_t>(i);
    c->tenant = tenant_name(i);
    c->spans = tracer.buffer();
    c->traffic = std::make_unique<Traffic>(spec.tenants[i], spec.stats_every,
                                           tenant_seed(cfg.seed, i));
    c->client = net::Client::connect("127.0.0.1", d->primary->port());
    c->client.set_timeouts(30000, 30000);
    const net::NetResponse h =
        c->client.hello(c->tenant);
    if (h.hdr.status != static_cast<std::uint8_t>(net::NetStatus::Ok)) {
      throw std::runtime_error("HELLO refused");
    }
    // Warm-up: arrivals until the target residency (bounded: a pool
    // that cannot reach it stops after a fixed number of tries).
    const TenantSpec& ts = spec.tenants[i];
    for (std::size_t tries = 0;
         c->traffic->resident() < ts.warm_tasks && tries < 50 * ts.warm_tasks;
         ++tries) {
      if (!answered(c->call(kFill, tracer, c->next(kFill)))) {
        throw std::runtime_error("warm-up request failed");
      }
    }
    for (std::size_t k = 0; k < ts.warm_events; ++k) {
      if (!answered(c->call(kWarm, tracer, c->next(kWarm)))) {
        throw std::runtime_error("warm-up request failed");
      }
    }
    d->conns.push_back(std::move(c));
  }
  return d;
}

/// Journal LSN of tenant `name` as `client`'s server reports it (HELLO
/// answers the tenant's journal window).
std::uint64_t tenant_lsn(net::Client& client, const std::string& name) {
  return client.hello(name).lsn;
}

/// Poll the standby over the wire until every tenant's applied LSN
/// reaches the primary's. Returns the wait in ms.
double await_standby(Deployment& d, Clock::time_point since) {
  std::vector<std::uint64_t> want;
  for (auto& c : d.conns) want.push_back(tenant_lsn(c->client, c->tenant));
  net::Client probe = net::Client::connect("127.0.0.1", d.standby->port());
  probe.set_timeouts(30000, 30000);
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  for (std::size_t i = 0; i < want.size();) {
    if (tenant_lsn(probe, d.conns[i]->tenant) >= want[i]) {
      ++i;
      continue;
    }
    if (Clock::now() > deadline) {
      throw std::runtime_error("standby did not catch up within 60 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return us_between(since, Clock::now()) / 1000.0;
}

// ------------------------------------------------------------- the twin

/// Server counters compared against the twins' sum (bit-identical
/// replay implies identical work) and reported as repeatable counts.
const std::vector<std::string> kScanCounters = {
    "admission_scan_iterations_total",
    "admission_scan_refinements_total",
    "admission_segments_walked_total",
    "admission_segments_fast_forwarded_total",
    "admission_tombstone_compactions_total",
    "admission_cert_cover_hits_total",
    "admission_cert_cover_misses_total",
    "admission_rung1_attempts_total",
    "admission_rung2_attempts_total",
    "admission_rung3_attempts_total",
};

struct TwinResult {
  std::map<std::string, double> open_counters;  ///< kScanCounters, open phase
  std::uint64_t open_decisions = 0;
  std::uint64_t arrivals = 0;  ///< tasks, warm-up churn + open phase
  std::uint64_t admitted = 0;
  std::vector<double> decide_us;  ///< traced: open-phase admit spans
  std::vector<double> remove_us;
  double admission_us_total = 0.0;  ///< traced: spans joined to wire spans
  std::vector<double> checkpoint_ms;
  double journal_bytes = 0.0;
  std::uint64_t journal_ops = 0;
};

/// Replay one tenant's recorded stream through an in-process twin and
/// compare every answer. Under tracing, also time each twin call, save
/// a snapshot at the server's checkpoint cadence, and journal the open
/// phase to measure bytes per operation.
TwinResult replay_twin(const Conn& c, const ServeSpec& spec,
                       const RunConfig& cfg, const net::NetResponse& final_stats,
                       Tracer& tracer, RunResult& out) {
  TwinResult tr;
  AdmissionOptions opts;
  opts.epsilon = kServerEpsilon;
  opts.skip_exact = spec.skip_exact;
  AdmissionController twin(opts);
  obs::Obs obs;
  twin.attach_obs(&obs);
  Traffic traffic(spec.tenants[c.index], spec.stats_every,
                  tenant_seed(cfg.seed, c.index));
  Tracer::Buffer* buf = tracer.buffer();
  std::uint64_t span_seq = 0;

  std::optional<persist::Journal> journal;
  const std::string jpath = cfg.workdir + "/twin-" + c.tenant + ".wal";
  const std::string spath = cfg.workdir + "/twin-" + c.tenant + ".snap";
  std::size_t mutations = 0;

  const auto snap_counters = [&] {
    std::map<std::string, double> m;
    for (const std::string& n : kScanCounters) {
      m[n] = static_cast<double>(obs.registry().counter_value(n));
    }
    return m;
  };
  std::map<std::string, double> before;
  std::uint64_t lsn_before = 0;
  std::uint8_t phase = kFill;
  const std::string who = "tenant " + c.tenant + ": ";

  for (std::size_t i = 0; i < c.recs.size(); ++i) {
    const WireRec& r = c.recs[i];
    if (r.phase != phase) {
      if (r.phase == kOpen) {
        before = snap_counters();
        if (cfg.trace) {
          journal.emplace(persist::Journal::create(jpath));
          twin.attach_journal(&*journal);
          lsn_before = journal->lsn();
        }
      }
      if (phase == kOpen) {
        const auto after = snap_counters();
        for (const auto& [k, v] : after) tr.open_counters[k] = v - before.at(k);
        if (journal) {
          twin.attach_journal(nullptr);
          tr.journal_ops = journal->lsn() - lsn_before;
          journal.reset();
          tr.journal_bytes = static_cast<double>(fs::file_size(jpath));
        }
      }
      phase = r.phase;
    }
    net::NetRequest req = traffic.next(r.phase == kFill);
    if (req.hdr.op != r.op) {
      out.mismatch(who + "request streams diverge");
      return tr;
    }
    if (!answered(r.status)) {
      out.mismatch(who + "request " + std::to_string(r.request_id) +
                   " was not answered");
      return tr;
    }
    const bool wire_ok = r.status == static_cast<std::uint8_t>(net::NetStatus::Ok);
    const std::vector<TaskId> wire_ids(c.ids.begin() + r.ids_off,
                                       c.ids.begin() + r.ids_off + r.ids_n);
    std::vector<TaskId> twin_ids;
    const Clock::time_point t0 = Clock::now();
    std::string diff;
    bool admission_op = true;
    switch (static_cast<net::NetOp>(r.op)) {
      case net::NetOp::Admit: {
        const AdmissionDecision d = twin.try_admit(req.task);
        if (d.admitted) twin_ids = {d.id};
        if (d.admitted != wire_ok) diff = "admit verdicts differ";
        if (static_cast<std::uint8_t>(d.rung) != r.rung) diff = "rungs differ";
        if (static_cast<std::uint8_t>(d.analysis.verdict) != r.verdict) {
          diff = "verdicts differ";
        }
        break;
      }
      case net::NetOp::AdmitGroup: {
        const GroupDecision d = twin.admit_group(req.group);
        if (d.admitted) twin_ids = d.ids;
        if (d.admitted != wire_ok) diff = "group verdicts differ";
        if (static_cast<std::uint8_t>(d.rung) != r.rung) {
          diff = "group rungs differ";
        }
        break;
      }
      case net::NetOp::RemoveGroup: {
        if (twin.remove_group(req.ids) != r.removed) {
          diff = "removal counts differ";
        }
        break;
      }
      case net::NetOp::Stats: {
        admission_op = false;
        const StoreHeader a = c.stats[r.stats_idx];
        const StoreHeader b = twin.demand_header();
        if (a.residents != b.residents || a.constrained != b.constrained ||
            a.live_checkpoints != b.live_checkpoints ||
            a.utilization != b.utilization || a.cert_ratio != b.cert_ratio) {
          diff = "STATS headers differ";
        }
        break;
      }
      default:
        diff = "unexpected op";
    }
    const Clock::time_point t1 = Clock::now();
    if (twin_ids != wire_ids) diff = "admitted TaskIds differ";
    if (!diff.empty()) {
      out.mismatch(who + diff + " at request " + std::to_string(r.request_id));
      return tr;
    }
    const bool arrival = r.op == static_cast<std::uint8_t>(net::NetOp::Admit) ||
                         r.op == static_cast<std::uint8_t>(net::NetOp::AdmitGroup);
    if (arrival && (r.phase == kWarm || r.phase == kOpen)) {
      const std::uint64_t tasks = r.op == static_cast<std::uint8_t>(net::NetOp::Admit)
                                      ? 1
                                      : req.group.size();
      tr.arrivals += tasks;
      if (!twin_ids.empty()) tr.admitted += tasks;
      if (r.phase == kOpen) ++tr.open_decisions;
    }
    if (cfg.trace && admission_op && r.phase == kOpen) {
      const double us = us_between(t0, t1);
      (arrival ? tr.decide_us : tr.remove_us).push_back(us);
      tr.admission_us_total += us;
      tracer.record(buf, arrival ? "admission.decide" : "admission.remove", t0,
                    t1, (static_cast<std::uint64_t>(c.index + 1) << 48) | ++span_seq,
                    r.request_id, r.request_id, c.index);
    }
    if (admission_op && cfg.trace && spec.checkpoint_every != 0 &&
        ++mutations % spec.checkpoint_every == 0) {
      const Clock::time_point s0 = Clock::now();
      save_snapshot(twin, spath, mutations);
      tr.checkpoint_ms.push_back(us_between(s0, Clock::now()) / 1000.0);
    }
    if (arrival) traffic.arrived(std::move(twin_ids));
  }
  if (phase == kOpen) out.mismatch(who + "stream ended inside the open phase");
  // The final STATS, sent after the last timed request.
  const StoreHeader a = final_stats.stats;
  const StoreHeader b = twin.demand_header();
  if (a.residents != b.residents || a.constrained != b.constrained ||
      a.live_checkpoints != b.live_checkpoints ||
      a.utilization != b.utilization || a.cert_ratio != b.cert_ratio ||
      final_stats.stats_json != twin.stats().to_json()) {
    out.mismatch(who + "final STATS differ from the twin");
  }
  return tr;
}

double median_of(std::vector<double> v) { return percentile(v, 0.5); }

/// The open loop's p99, as the median over consecutive windows of the
/// schedule (about kWindowSamples requests each, so each window's p99
/// has twenty samples beyond it) of each window's 99th percentile. The
/// host's bursts of slow wake-ups or slow writes land in a minority of
/// windows and do not move it. Smaller windows made serve-large's figure
/// flip between windows with and without a rung-2 stall; larger ones let
/// host bursts reach most windows of serve-light.
constexpr std::size_t kWindowSamples = 2000;
double windowed_p99(const std::vector<std::unique_ptr<Conn>>& conns) {
  std::size_t total = 0;
  for (const auto& c : conns) total += c->latency_us.size();
  const std::size_t windows = std::max<std::size_t>(1, total / kWindowSamples);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> v;
    for (const auto& c : conns) {
      const std::size_t n = c->latency_us.size();
      v.insert(v.end(), c->latency_us.begin() + w * n / windows,
               c->latency_us.begin() + (w + 1) * n / windows);
    }
    per_window.push_back(percentile(v, 0.99));
  }
  return median_of(per_window);
}

}  // namespace

int run_serve(const RunConfig& cfg, RunResult& out) {
  const ServeSpec spec = spec_for(cfg.workload);
  Tracer tracer(cfg.trace);

  // ---- set-up, repeated: the last deployment is the one measured.
  constexpr int kSetups = 5;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int k = 0; k < kSetups; ++k) {
    d.reset();
    Tracer scratch(false);
    const Clock::time_point t0 = Clock::now();
    d = deploy(spec, cfg, cfg.workdir + "/deploy" + std::to_string(k),
               k + 1 == kSetups ? tracer : scratch);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  Deployment& dep = *d;
  const std::vector<int> cpus = usable_cpus();
  // Input generation, outside set-up and timing: buffer the arrivals
  // the open loop and (at up to twice the offered rate) the closed loop
  // will draw, capped to bound memory.
  for (auto& c : dep.conns) {
    const TenantSpec& ts = spec.tenants[c->index];
    const double tasks_per_request =
        1.0 + ts.group_probability * static_cast<double>(ts.group_size - 1);
    const double requests = spec.offered_rate /
                            static_cast<double>(spec.tenants.size()) *
                            cfg.seconds * 1.5;
    c->traffic->prefetch(static_cast<std::size_t>(
        std::min(200000.0, requests * tasks_per_request)));
  }
  if (spec.standby) (void)await_standby(dep, Clock::now());
  const Prom s0 = dep.primary->scrape();

  // ---- open loop: a fixed request count at the fixed offered rate.
  const double open_s = cfg.seconds / 2.0;
  const std::size_t n_conn = dep.conns.size();
  const auto per_conn = static_cast<std::size_t>(
      std::max(1.0, std::floor(spec.offered_rate * open_s /
                               static_cast<double>(n_conn))));
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(static_cast<double>(n_conn) /
                                    spec.offered_rate));
  const Clock::time_point open_start =
      Clock::now() + std::chrono::milliseconds(5);
  std::atomic<std::size_t> running{n_conn};
  {
    std::vector<std::thread> threads;
    for (auto& cp : dep.conns) {
      Conn* c = cp.get();
      c->latency_us.reserve(per_conn);
      c->late_us.reserve(per_conn);
      threads.emplace_back([c, &tracer, per_conn, interval, open_start,
                            &running, cpu = cpu_for(cpus, c->index + 1)] {
        pin_self(cpu);
        try {
          Clock::time_point free_at = open_start;
          for (std::size_t k = 0; k < per_conn; ++k) {
            // Build the request before its send time, so the
            // generator's own work never delays the send.
            net::NetRequest req = c->next(kOpen);
            const Clock::time_point due = open_start + interval * k;
            std::this_thread::sleep_until(due);
            Clock::time_point sent_at;
            const std::uint8_t st =
                c->call(kOpen, tracer, std::move(req), &sent_at);
            c->late_us.push_back(
                std::max(0.0, us_between(std::max(due, free_at), sent_at)));
            c->latency_us.push_back(
                answered(st) ? us_between(due, c->last_reply)
                             : std::numeric_limits<double>::infinity());
            free_at = c->last_reply;
          }
        } catch (const std::exception& e) {
          c->error = e.what();
        }
        running.fetch_sub(1);
      });
    }
    // Traced runs sample the shipper's lag while the open loop runs. A
    // failed sample is raised only after the client threads are joined.
    std::vector<double> lag;
    std::string lag_error;
    while (running.load() != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
      if (cfg.trace && spec.standby && running.load() != 0 &&
          lag_error.empty()) {
        try {
          lag.push_back(dep.primary->scrape().get("edfkit_repl_lag_records"));
        } catch (const std::exception& e) {
          lag_error = e.what();
        }
      }
    }
    for (std::thread& t : threads) t.join();
    if (!lag_error.empty()) throw std::runtime_error(lag_error);
    if (cfg.trace) out.metric("repl.lag_records", median_of(lag), "records");
  }
  for (auto& c : dep.conns) {
    if (!c->error.empty()) throw std::runtime_error("open loop: " + c->error);
  }
  Clock::time_point last_ack{};
  for (auto& c : dep.conns) last_ack = std::max(last_ack, c->last_reply);
  double catchup_ms = 0.0;
  if (spec.standby) catchup_ms = await_standby(dep, last_ack);
  const Prom s1 = dep.primary->scrape();

  // ---- closed loop: fixed wall time, next request after each reply.
  // The time is cut into slices and each request counts in the slice it
  // started in. Untraced runs report the median slice rate, so a burst
  // of host noise moves a few slices, not the figure. Traced runs
  // alternate untraced and traced 20 ms slices, so the ratio of the two
  // rates is the tracing overhead on the same state.
  const auto slice = cfg.trace ? std::chrono::milliseconds(20)
                               : std::chrono::milliseconds(250);
  const double slice_s = std::chrono::duration<double>(slice).count();
  const double closed_s = cfg.seconds - open_s;
  const auto n_slices = static_cast<std::size_t>(
      2 * std::max(1.0, std::floor(closed_s / (2 * slice_s))));
  const Clock::time_point closed_start = Clock::now();
  const Clock::time_point stop =
      closed_start + slice * static_cast<long>(n_slices);
  {
    std::vector<std::thread> threads;
    for (auto& cp : dep.conns) {
      Conn* c = cp.get();
      c->closed_slices.assign(n_slices, 0);
      threads.emplace_back([c, &tracer, &cfg, closed_start, stop, slice,
                            cpu = cpu_for(cpus, c->index + 1)] {
        pin_self(cpu);
        try {
          for (Clock::time_point now = Clock::now(); now < stop;
               now = Clock::now()) {
            const auto k = static_cast<std::size_t>((now - closed_start) / slice);
            const std::uint8_t phase =
                cfg.trace && k % 2 == 1 ? kClosedTraced : kClosed;
            (void)c->call(phase, tracer, c->next(phase));
            ++c->closed_slices[k];
          }
        } catch (const std::exception& e) {
          c->error = e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  std::vector<double> slice_rate;
  double even = 0.0, odd = 0.0;
  for (std::size_t k = 0; k < n_slices; ++k) {
    double n = 0.0;
    for (auto& c : dep.conns) n += c->closed_slices[k];
    slice_rate.push_back(n / slice_s);
    (k % 2 == 0 ? even : odd) += n;
  }
  for (auto& c : dep.conns) {
    if (!c->error.empty()) throw std::runtime_error("closed loop: " + c->error);
  }
  const double half_s = slice_s * static_cast<double>(n_slices / 2);
  const double rate = cfg.trace ? even / half_s : median_of(slice_rate);
  const double traced_rate = cfg.trace ? odd / half_s : rate;
  const Prom s2 = dep.primary->scrape();

  // ---- final state, memory, drain.
  std::vector<net::NetResponse> final_stats;
  for (auto& c : dep.conns) {
    net::NetRequest sr;
    sr.hdr.op = static_cast<std::uint8_t>(net::NetOp::Stats);
    final_stats.push_back(c->client.call(std::move(sr)));
  }
  const double rss_mb = vm_hwm_mb(dep.primary->pid());
  for (auto& c : dep.conns) c->client.close();
  const int drain_rc = dep.primary->terminate(120000);
  if (drain_rc != 0) {
    out.mismatch("primary drain exited " + std::to_string(drain_rc) +
                 " (exact re-check of the resident sets failed?)");
  }
  if (dep.standby) dep.standby->kill_now();

  // ---- the twin gate (untimed).
  const Prom open = s1.minus(s0);
  std::vector<TwinResult> twins;
  for (auto& c : dep.conns) {
    twins.push_back(
        replay_twin(*c, spec, cfg, final_stats[c->index], tracer, out));
  }
  // ---- end-to-end metrics.
  std::vector<double> lat;
  std::vector<double> late;
  std::uint64_t arrivals = 0, admitted = 0;
  std::uint64_t sent = 0, ok = 0;
  for (auto& c : dep.conns) {
    lat.insert(lat.end(), c->latency_us.begin(), c->latency_us.end());
    late.insert(late.end(), c->late_us.begin(), c->late_us.end());
    arrivals += c->arrivals;
    admitted += c->admitted;
    for (int p = kOpen; p <= kClosedTraced; ++p) {
      sent += c->sent[p];
      ok += c->ok[p];
    }
  }
  std::uint64_t twin_arrivals = 0, twin_admitted = 0;
  for (const TwinResult& t : twins) {
    twin_arrivals += t.arrivals;
    twin_admitted += t.admitted;
  }
  const double admit_ratio = ratio(static_cast<double>(admitted),
                                   static_cast<double>(arrivals));
  if (out.correct && (twin_arrivals != arrivals || twin_admitted != admitted)) {
    out.mismatch("admit_ratio differs from the in-process twin");
  }
  // Server work counters over the open phase = the twins' sum.
  if (out.correct) {
    for (const std::string& n : kScanCounters) {
      double twin_sum = 0.0;
      for (const TwinResult& t : twins) twin_sum += t.open_counters.at(n);
      if (open.counter(n) != twin_sum) {
        out.mismatch("server " + n + " over the open phase (" +
                     std::to_string(open.counter(n)) + ") != twin sum (" +
                     std::to_string(twin_sum) + ")");
      }
    }
  }

  const double late_p99 = percentile(late, 0.99);
  // The generator ran late when its own sends slipped past schedule
  // while the connection was free — the server cannot cause that.
  constexpr double kLateLimitUs = 1000.0;
  if (late_p99 > kLateLimitUs) {
    out.valid = false;
    out.invalid_reason = "open-loop generator p99 lateness " +
                         std::to_string(late_p99) + " us > 1000 us";
  }

  out.attempted = sent;
  out.failed = sent - ok;
  if (!cfg.trace) {
    out.metric("ops_per_s", rate, "1/s");
    out.metric("p50_us", percentile(lat, 0.50), "us");
    out.metric("p99_us", windowed_p99(dep.conns), "us");
    out.metric("admit_ratio", admit_ratio, "ratio");
    out.metric("served_ratio", ratio(static_cast<double>(ok),
                                     static_cast<double>(sent)),
               "ratio");
    out.metric("rss_mb", rss_mb, "MiB");
    out.metric("setup_s", median_of(setup_s), "s");
  }

  // ---- repeatable work counters over the open phase.
  std::vector<std::string> counted = kScanCounters;
  for (const char* n :
       {"net_requests_total", "net_bytes_in_total", "net_bytes_out_total",
        "journal_appends_total", "journal_fsyncs_total",
        "repl_shipped_records_total", "admission_rung0_settled_total",
        "admission_rung1_settled_total", "admission_rung2_settled_total",
        "admission_rung3_settled_total"}) {
    counted.push_back(n);
  }
  for (const std::string& n : counted) {
    out.counters[n] = static_cast<std::uint64_t>(open.counter(n));
  }

  // A mismatch ends the run here: its layer figures would describe
  // answers that were wrong.
  if (!cfg.trace || !out.correct) return 0;

  // ---- per-layer metrics (traced run).
  out.metric("gen.late_p99_us", late_p99, "us");
  const Prom all = s2.minus(s0);

  std::array<std::vector<double>, kOps.size()> rtt;
  double rtt_total = 0.0;
  std::uint64_t rtt_n = 0;
  // RTT per op from the open phase's wire spans (twin spans have a
  // parent: the wire span of the same request).
  std::map<std::uint64_t, const WireRec*> rec_of;
  for (auto& c : dep.conns) {
    for (const WireRec& r : c->recs) rec_of[r.request_id] = &r;
  }
  for (const Span& s : tracer.all()) {
    if (s.parent != 0) continue;
    const auto it = rec_of.find(s.request);
    if (it == rec_of.end() || it->second->phase != kOpen) continue;
    const int slot = op_slot(it->second->op);
    if (slot < 0) continue;
    const double us = s.end_us - s.start_us;
    rtt[static_cast<std::size_t>(slot)].push_back(us);
    rtt_total += us;
    ++rtt_n;
  }
  double server_total_ns = 0.0;
  double server_n = 0.0;
  for (std::size_t i = 0; i < kOps.size(); ++i) {
    const std::string op = net::to_string(kOps[i]);
    out.metric("net.rtt_p50_us." + op, percentile(rtt[i], 0.50), "us");
    out.metric("net.rtt_p99_us." + op, percentile(rtt[i], 0.99), "us");
    const std::string h = "net_op_" + op + "_ns";
    out.metric("net.server_us." + op, open.hist_mean(h) / 1000.0, "us");
    server_total_ns += open.hist_sum(h);
    server_n += open.hist_count(h);
  }
  const double rtt_mean = ratio(rtt_total, static_cast<double>(rtt_n));
  out.metric("net.wire_us", rtt_mean - ratio(server_total_ns, server_n) / 1000.0,
             "us");
  out.metric("net.bytes_per_request",
             ratio(open.counter("net_bytes_in_total") +
                       open.counter("net_bytes_out_total"),
                   open.counter("net_requests_total")),
             "bytes");
  out.metric("net.shed", all.counter("net_shed_total"), "count");
  out.metric("net.unavailable", all.counter("net_unavailable_total"), "count");
  out.metric("net.protocol_errors", all.counter("net_protocol_errors_total"),
             "count");

  std::vector<double> decide, remove;
  double admission_us = 0.0;
  std::vector<double> checkpoint_ms;
  double journal_bytes = 0.0, journal_ops = 0.0;
  for (const TwinResult& t : twins) {
    decide.insert(decide.end(), t.decide_us.begin(), t.decide_us.end());
    remove.insert(remove.end(), t.remove_us.begin(), t.remove_us.end());
    admission_us += t.admission_us_total;
    checkpoint_ms.insert(checkpoint_ms.end(), t.checkpoint_ms.begin(),
                         t.checkpoint_ms.end());
    journal_bytes += t.journal_bytes;
    journal_ops += static_cast<double>(t.journal_ops);
  }
  out.metric("admission.decide_p50_us", percentile(decide, 0.50), "us");
  out.metric("admission.decide_p99_us", percentile(decide, 0.99), "us");
  out.metric("admission.remove_p50_us", percentile(remove, 0.50), "us");
  double settled_all = 0.0, rung_ns_all = 0.0;
  for (int r = 0; r <= 3; ++r) {
    settled_all += open.counter("admission_rung" + std::to_string(r) +
                                "_settled_total");
    rung_ns_all += open.hist_sum("admission_rung" + std::to_string(r) + "_ns");
  }
  for (int r = 1; r <= 3; ++r) {
    const std::string rs = std::to_string(r);
    out.metric("admission.rung_settled_share." + rs,
               ratio(open.counter("admission_rung" + rs + "_settled_total"),
                     settled_all),
               "ratio");
    out.metric("admission.rung_us." + rs,
               open.hist_mean("admission_rung" + rs + "_ns") / 1000.0, "us");
    out.metric("admission.rung_time_share." + rs,
               ratio(open.hist_sum("admission_rung" + rs + "_ns"), rung_ns_all),
               "ratio");
  }
  for (std::size_t i = 0; i < twins.size(); ++i) {
    const TwinResult& t = twins[i];
    const auto per = [&](const char* n) {
      return ratio(t.open_counters.at(n), static_cast<double>(t.open_decisions));
    };
    const std::string p = "admission.tenant" + std::to_string(i) + ".";
    out.metric(p + "scan_iterations_per_decision",
               per("admission_scan_iterations_total"), "count");
    out.metric(p + "segments_walked_per_decision",
               per("admission_segments_walked_total"), "count");
    out.metric(p + "segments_fast_forwarded_per_decision",
               per("admission_segments_fast_forwarded_total"), "count");
    out.metric(p + "refinements_per_decision",
               per("admission_scan_refinements_total"), "count");
    const double hits = t.open_counters.at("admission_cert_cover_hits_total");
    const double misses = t.open_counters.at("admission_cert_cover_misses_total");
    out.metric(p + "cover_hit_ratio", ratio(hits, hits + misses), "ratio");
    out.metric(p + "tombstone_compactions",
               t.open_counters.at("admission_tombstone_compactions_total"),
               "count");
  }

  out.metric("persist.append_us.mean", open.hist_mean("journal_append_ns") / 1000.0,
             "us");
  out.metric("persist.append_us.p99",
             open.hist_quantile("journal_append_ns", 0.99) / 1000.0, "us");
  out.metric("persist.fsync_us.mean", open.hist_mean("journal_fsync_ns") / 1000.0,
             "us");
  out.metric("persist.fsync_us.p99",
             open.hist_quantile("journal_fsync_ns", 0.99) / 1000.0, "us");
  out.metric("persist.fsyncs_per_1k_ops",
             1000.0 * ratio(open.counter("journal_fsyncs_total"),
                            open.counter("journal_appends_total")),
             "count");
  out.metric("persist.journal_bytes_per_op", ratio(journal_bytes, journal_ops),
             "bytes");
  out.metric("persist.checkpoint_ms", median_of(checkpoint_ms), "ms");

  out.metric("repl.shipped_per_batch",
             ratio(open.counter("repl_shipped_records_total"),
                   open.counter("repl_ship_batches_total")),
             "records");
  out.metric("repl.catchup_ms", catchup_ms, "ms");

  // Layer shares of the open phase's total round-trip time. Totals,
  // not medians: shares of sums add up, shares of medians do not.
  const double persist_ns =
      open.hist_sum("journal_append_ns") + open.hist_sum("journal_fsync_ns");
  const double share_adm = ratio(admission_us, rtt_total);
  const double share_persist = ratio(persist_ns / 1000.0, rtt_total);
  const double share_server =
      ratio(server_total_ns / 1000.0, rtt_total);
  out.metric("trace.share.admission", share_adm, "ratio");
  out.metric("trace.share.persist", share_persist, "ratio");
  out.metric("trace.share.server_other", share_server - share_adm - share_persist,
             "ratio");
  out.metric("trace.share.wire", 1.0 - share_server, "ratio");
  out.metric("trace.overhead_ratio", ratio(traced_rate, rate), "ratio");

  std::printf("traced %s: open-phase RTT mean %.1f us over %llu requests\n",
              cfg.workload.c_str(), rtt_mean,
              static_cast<unsigned long long>(rtt_n));
  std::printf("  share of RTT: admission %.1f%%  persist %.1f%%  "
              "server-other %.1f%%  wire+client %.1f%%\n",
              100 * share_adm, 100 * share_persist,
              100 * (share_server - share_adm - share_persist),
              100 * (1 - share_server));
  std::printf("  server decision time by rung: 1=%.1f%% 2=%.1f%% 3=%.1f%%\n",
              100 * ratio(open.hist_sum("admission_rung1_ns"), rung_ns_all),
              100 * ratio(open.hist_sum("admission_rung2_ns"), rung_ns_all),
              100 * ratio(open.hist_sum("admission_rung3_ns"), rung_ns_all));
  std::printf("  tracing overhead: traced/untraced closed-loop rate %.3f\n",
              ratio(traced_rate, rate));
  tracer.write(cfg.workdir + "/spans.jsonl");
  return 0;
}

}  // namespace perfbench
