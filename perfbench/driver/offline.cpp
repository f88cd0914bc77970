/// \file offline.cpp
/// The offline-exact workload: the paper's Fig. 8 experiment as
/// throughput. In-process Query runs (ExecPolicy::Batch, certificates
/// on) over Fig. 8 sets — U in [0.90, 0.99], n in [5, 100] — through
/// the exact backends (processor-demand, qpa, dynamic, all-approx) and
/// the sufficient ones (devi, chakraborty), the way a library user
/// calls them. No server: net, admission and persist do no work here.
#include <array>
#include <string>

#include "common.hpp"
#include "gen/scenario.hpp"
#include "query/certificate.hpp"
#include "query/query.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

using namespace edfkit;

struct Backend {
  TestKind kind;
  const char* name;  ///< registry name, used in metric names
  bool exact;
};

constexpr std::array<Backend, 6> kBackends = {{
    {TestKind::ProcessorDemand, "processor-demand", true},
    {TestKind::Qpa, "qpa", true},
    {TestKind::Dynamic, "dynamic", true},
    {TestKind::AllApprox, "all-approx", true},
    {TestKind::Devi, "devi", false},
    {TestKind::Chakraborty, "chakraborty", false},
}};

/// Distinct sets per run: enough that one pass takes a few seconds, so
/// the per-seed mix of set sizes averages out.
constexpr std::size_t kSets = 3000;
/// Sets analysed untimed by each set-up (lazy state, caches).
constexpr std::size_t kWarmSets = 60;

Query batch_query() {
  std::vector<TestKind> kinds;
  for (const Backend& b : kBackends) kinds.push_back(b.kind);
  return Query::batch(kinds);
}

bool decisive(Verdict v) { return v != Verdict::Unknown; }

/// The correctness gate for one analysed set: every exact backend
/// decides and they agree, no decisive sufficient verdict contradicts
/// them, and the outcome's certificate verifies independently.
std::string check_set(const TaskSet& ts, const Outcome& o, Verdict* exact) {
  bool have = false;
  for (const BackendAttempt& a : o.attempts) {
    bool is_exact = false;
    for (const Backend& b : kBackends) {
      if (b.kind == a.kind) is_exact = b.exact;
    }
    if (!is_exact) continue;
    if (!decisive(a.result.verdict)) {
      return std::string("exact backend ") + to_string(a.kind) + " undecided";
    }
    if (have && a.result.verdict != *exact) return "exact backends disagree";
    *exact = a.result.verdict;
    have = true;
  }
  if (!have) return "no exact backend ran";
  for (const BackendAttempt& a : o.attempts) {
    if (decisive(a.result.verdict) && a.result.verdict != *exact) {
      return std::string(to_string(a.kind)) + " contradicts the exact verdict";
    }
  }
  if (o.verdict != *exact) return "outcome verdict differs from exact";
  const CertificateCheck chk = verify(ts, o.certificate);
  if (!chk.valid) return "certificate rejected: " + chk.reason;
  return {};
}

}  // namespace

int run_offline(const RunConfig& cfg, RunResult& out) {
  // Inputs (not part of set-up time): round-robin over the ten 1 %
  // utilization buckets of Fig. 8.
  Rng rng(cfg.seed * 2654435761ull + 17);
  std::vector<TaskSet> sets;
  sets.reserve(kSets);
  for (std::size_t i = 0; i < kSets; ++i) {
    sets.push_back(draw_fig8_set(rng, 0.90 + 0.01 * static_cast<double>(i % 10)));
  }

  // Set-up: build the query and analyse a warm-up prefix, five times.
  std::vector<double> setup_s;
  for (int k = 0; k < 5; ++k) {
    const Clock::time_point t0 = Clock::now();
    const Query q = batch_query();
    for (std::size_t i = 0; i < kWarmSets; ++i) (void)q.run(sets[i]);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const Query q = batch_query();

  // Timed: at least one full pass over the sets, then more passes
  // until the run's time is up. Untraced runs time the batch query of
  // each set; traced runs give half the time to that and half to a
  // traced pass (batch + one span per backend + verify).
  std::vector<double> lat_us;
  std::vector<double> last_us(kSets, 0.0);
  std::vector<Verdict> verdict(kSets, Verdict::Unknown);
  std::array<double, kBackends.size()> effort{};
  std::array<double, kBackends.size()> decided{};
  std::uint64_t feasible = 0, analysed = 0, decided_sets = 0;
  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const std::size_t idx = i % kSets;
    if (i >= kSets && seconds_between(start, Clock::now()) >= untraced_s) break;
    const Clock::time_point t0 = Clock::now();
    const Outcome o = q.run(sets[idx]);
    lat_us.push_back(us_between(t0, Clock::now()));
    last_us[idx] = lat_us.back();
    ++analysed;
    Verdict exact = Verdict::Unknown;
    const std::string bad = check_set(sets[idx], o, &exact);
    if (!bad.empty()) {
      out.mismatch("set " + std::to_string(idx) + ": " + bad);
      continue;
    }
    ++decided_sets;
    if (i < kSets) {
      verdict[idx] = exact;
      if (exact == Verdict::Feasible) ++feasible;
      for (const BackendAttempt& a : o.attempts) {
        for (std::size_t b = 0; b < kBackends.size(); ++b) {
          if (kBackends[b].kind != a.kind) continue;
          effort[b] += static_cast<double>(a.result.effort());
          if (decisive(a.result.verdict)) decided[b] += 1.0;
        }
      }
    }
  }
  double busy_us = 0.0;
  for (double x : lat_us) busy_us += x;
  const double sets_per_s = ratio(static_cast<double>(lat_us.size()), busy_us / 1e6);

  out.attempted = analysed;
  out.failed = analysed - decided_sets;
  for (std::size_t b = 0; b < kBackends.size(); ++b) {
    out.counters[std::string("effort.") + kBackends[b].name] =
        static_cast<std::uint64_t>(effort[b]);
  }
  out.counters["feasible_sets"] = feasible;

  if (!cfg.trace) {
    out.metric("ops_per_s", sets_per_s, "1/s");
    out.metric("p50_us", percentile(lat_us, 0.50), "us");
    out.metric("p99_us", percentile(lat_us, 0.99), "us");
    out.metric("admit_ratio", ratio(static_cast<double>(feasible), kSets),
               "ratio");
    out.metric("served_ratio",
               ratio(static_cast<double>(decided_sets),
                     static_cast<double>(analysed)),
               "ratio");
    out.metric("rss_mb", vm_hwm_mb(0), "MiB");
    out.metric("setup_s", percentile(setup_s, 0.5), "s");
    return 0;
  }

  // ---- traced pass.
  Tracer tracer(true);
  Tracer::Buffer* buf = tracer.buffer();
  std::array<std::vector<double>, kBackends.size()> backend_us;
  std::vector<double> verify_us, batch_us;
  double set_total = 0.0, child_total = 0.0;
  std::vector<Query> singles;
  for (const Backend& b : kBackends) singles.push_back(Query::single(b.kind));
  std::uint64_t span_id = 0;
  const Clock::time_point tstart = Clock::now();
  for (std::size_t i = 0;
       i < kSets && seconds_between(tstart, Clock::now()) < cfg.seconds / 2; ++i) {
    const TaskSet& ts = sets[i];
    const std::uint64_t set_span = ++span_id;
    const Clock::time_point s0 = Clock::now();
    const Clock::time_point b0 = Clock::now();
    const Outcome o = q.run(ts);
    const Clock::time_point b1 = Clock::now();
    tracer.record(buf, "query.batch", b0, b1, ++span_id, set_span, i, 0);
    batch_us.push_back(us_between(b0, b1));
    double children = us_between(b0, b1);
    for (std::size_t b = 0; b < kBackends.size(); ++b) {
      const Clock::time_point t0 = Clock::now();
      const Outcome one = singles[b].run(WorkloadView(ts));
      const Clock::time_point t1 = Clock::now();
      tracer.record(buf, kBackends[b].name, t0, t1, ++span_id, set_span, i, 0);
      backend_us[b].push_back(us_between(t0, t1));
      children += us_between(t0, t1);
      if (one.verdict != verdict[i] && decisive(one.verdict)) {
        out.mismatch(std::string("set ") + std::to_string(i) + ": single " +
                     kBackends[b].name + " contradicts the batch");
      }
    }
    const Clock::time_point v0 = Clock::now();
    const CertificateCheck chk = verify(ts, o.certificate);
    const Clock::time_point v1 = Clock::now();
    if (!chk.valid) out.mismatch("set " + std::to_string(i) + ": certificate");
    tracer.record(buf, "query.verify", v0, v1, ++span_id, set_span, i, 0);
    verify_us.push_back(us_between(v0, v1));
    children += us_between(v0, v1);
    const Clock::time_point s1 = Clock::now();
    tracer.record(buf, "set", s0, s1, set_span, 0, i, 0);
    set_total += us_between(s0, s1);
    child_total += children;
  }
  // Overhead on the same sets, against each set's latest untraced visit
  // (a set's first analysis is slower than later ones).
  double batch_total = 0.0, untraced_total = 0.0;
  for (std::size_t i = 0; i < batch_us.size(); ++i) {
    batch_total += batch_us[i];
    untraced_total += last_us[i];
  }
  const double overhead = ratio(untraced_total, batch_total);

  for (std::size_t b = 0; b < kBackends.size(); ++b) {
    const std::string n = kBackends[b].name;
    out.metric("query." + n + "_p50_us", percentile(backend_us[b], 0.50), "us");
    out.metric("query." + n + "_p99_us", percentile(backend_us[b], 0.99), "us");
    out.metric("analysis." + n + ".effort",
               ratio(effort[b], static_cast<double>(kSets)), "count");
    if (!kBackends[b].exact) {
      out.metric("analysis." + n + ".decided_share",
                 ratio(decided[b], static_cast<double>(kSets)), "ratio");
    }
  }
  out.metric("query.verify_us", percentile(verify_us, 0.50), "us");
  out.metric("trace.share.query", ratio(child_total, set_total), "ratio");
  out.metric("trace.overhead_ratio", overhead, "ratio");

  std::printf("traced offline-exact: %zu sets, mean per-set time %.1f us\n",
              batch_us.size(), ratio(set_total, static_cast<double>(batch_us.size())));
  std::printf("  share of per-set time in named spans (batch, backends, "
              "verify): %.1f%%\n",
              100 * ratio(child_total, set_total));
  for (std::size_t b = 0; b < kBackends.size(); ++b) {
    double s = 0.0;
    for (double x : backend_us[b]) s += x;
    std::printf("    %-17s %5.1f%%\n", kBackends[b].name, 100 * ratio(s, set_total));
  }
  std::printf("  tracing overhead: traced/untraced batch sets/s %.3f\n",
              overhead);
  tracer.write(cfg.workdir + "/spans.jsonl");
  return 0;
}

}  // namespace perfbench
