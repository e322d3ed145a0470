#include "chaos/harness.h"

#include <algorithm>
#include <memory>

#include "telemetry/export.h"
#include "trace/chrome_trace.h"
#include "util/file.h"
#include "util/strings.h"
#include "workload/fs_interface.h"

namespace repro::chaos {

telemetry::TelemetryOptions ChaosTelemetryOptions() {
  telemetry::TelemetryOptions t;
  t.enabled = true;
  t.scraper.period = 50 * kMillisecond;
  t.slo = telemetry::SloConfig::Production().ScaledDown(1200);
  // Chaos episodes run a dozen closed-loop clients, so a dark AZ
  // silences a third of them instead of turning their load into errors —
  // the bad-event volume of a real outage is small here. Four nines
  // keeps the burn-rate math meaningful at that sample size; steady
  // state produces zero unavailability errors, so the tighter target
  // costs nothing in false positives (the soak asserts exactly that).
  t.availability_target = 0.9999;
  return t;
}

namespace {

constexpr Nanos kProbeBudget = 60 * kSecond;  // sim time for durability probes
constexpr Nanos kAckLossBurst = 600 * kMillisecond;
constexpr size_t kTraceKeepLast = 64;
// Surge-goodput invariant: while an open-loop surge is active, the
// measured workload's goodput must stay at or above this fraction of the
// warm-up baseline. Admission is FCFS, so under an overload surge the
// foreground workload keeps roughly its arrival-fraction share of
// capacity — a small number by design. The invariant therefore guards
// against metastable collapse (goodput pinned near zero by queue
// backlogs and retry storms, persisting past the surge), not against
// fair-share dilution. Only checked when the schedule has a surge.
constexpr double kSurgeGoodputFloor = 0.02;

// Completed-ops rate over [from, to) from a 100 ms-windowed timeline.
double PhaseRate(const metrics::TimeSeries& ts, Nanos from, Nanos to) {
  if (to <= from) return 0;
  int64_t count = 0;
  for (const auto& w : ts.windows()) {
    if (w.start >= from && w.start < to) count += w.count;
  }
  return static_cast<double>(count) / ToSeconds(to - from);
}

}  // namespace

std::string ChaosReport::TraceString() const {
  std::string out;
  for (const auto& line : trace) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string ChaosReport::Scorecard() const {
  std::string out = StrFormat(
      "seed %llu: %s\n"
      "  schedule: %s\n"
      "  goodput ops/s: warmup %.0f -> faults %.0f -> settle %.0f\n"
      "  ops: %lld ok, %lld failed; %lld tracked writes acked; "
      "%lld messages dropped\n",
      static_cast<unsigned long long>(seed),
      invariants_ok() ? "ALL INVARIANTS HOLD" : "INVARIANT VIOLATION",
      schedule_summary.c_str(), goodput.warmup_ops_per_sec,
      goodput.fault_ops_per_sec, goodput.settle_ops_per_sec,
      static_cast<long long>(completed), static_cast<long long>(failed),
      static_cast<long long>(acked_writes),
      static_cast<long long>(messages_dropped));
  if (!errors_by_code.empty()) {
    out += "  errors:";
    for (const auto& [code, n] : errors_by_code) {
      out += StrFormat(" %s=%lld", CodeName(code), static_cast<long long>(n));
    }
    out += '\n';
  }
  out += recovery_time >= 0
             ? StrFormat("  recovery: %.2fs after last heal\n",
                         ToSeconds(recovery_time))
             : std::string("  recovery: goodput did not return to 50% of "
                           "baseline\n");
  out += StrFormat("  longest stall: %.2fs\n", ToSeconds(longest_stall));
  if (!recoveries.empty()) {
    int64_t served = 0, abandoned = 0, entries = 0;
    Nanos worst = 0;
    for (const auto& rec : recoveries) {
      if (rec.aborted) ++abandoned;
      if (rec.serving_at >= 0) {
        ++served;
        entries += rec.replay_entries;
        worst = std::max(worst, rec.serving_at - rec.started);
      }
    }
    out += StrFormat(
        "  node recoveries: %lld served (worst %.2fs, %lld entries "
        "replayed), %lld abandoned\n",
        static_cast<long long>(served), ToSeconds(worst),
        static_cast<long long>(entries), static_cast<long long>(abandoned));
    if (recoveries_dropped > 0) {
      out += StrFormat("  recovery log: %lld oldest entr(ies) evicted\n",
                       static_cast<long long>(recoveries_dropped));
    }
  }
  if (scrapes > 0) {
    out += StrFormat("  telemetry: %lld scrapes, %zu alert(s); %s\n",
                     static_cast<long long>(scrapes), alerts.size(),
                     final_health.ToString().c_str());
    for (const auto& a : alerts) {
      out += StrFormat(
          "    alert %s/%s fired %.2fs%s\n", a.objective.c_str(),
          a.rule.c_str(), ToSeconds(a.fired_at),
          a.active() ? " (still firing)"
                     : StrFormat(" resolved %.2fs", ToSeconds(a.resolved_at))
                           .c_str());
    }
  }
  for (const auto& r : invariants) {
    out += StrFormat("  [%s] %-11s %s\n", r.ok ? "pass" : "FAIL",
                     r.name.c_str(), r.detail.c_str());
  }
  return out;
}

ChaosReport RunChaosSchedule(const ChaosOptions& opts) {
  // Build the schedule first so topology bounds match the deployment the
  // options describe (3 AZs for every paper setup).
  RandomFaultOptions fopts = opts.faults;
  fopts.start = opts.warmup;
  fopts.window = opts.fault_window;
  fopts.num_azs = 3;
  fopts.num_ndb_nodes =
      hopsfs::DeploymentOptions::FromPaperSetup(opts.setup, opts.num_namenodes)
          .ndb_datanodes;
  return RunChaosSchedule(opts, FaultSchedule::Random(opts.seed, fopts));
}

ChaosReport RunChaosSchedule(const ChaosOptions& opts,
                             const FaultSchedule& schedule) {
  Simulation sim(opts.seed);
  if (opts.trace_sample_every > 0) {
    sim.tracer().set_sample_every(opts.trace_sample_every);
    sim.tracer().set_keep_last(kTraceKeepLast);
  }
  auto dopts = hopsfs::DeploymentOptions::FromPaperSetup(opts.setup,
                                                         opts.num_namenodes);
  dopts.block_datanodes = opts.block_datanodes;
  if (opts.client_rpc_timeout > 0) {
    dopts.client.rpc_timeout = opts.client_rpc_timeout;
  }
  if (opts.client_op_deadline > 0) {
    dopts.client.op_deadline = opts.client_op_deadline;
  }
  if (opts.telemetry) {
    dopts.telemetry = opts.telemetry_options;
    dopts.telemetry.enabled = true;
  }
  hopsfs::Deployment dep(sim, dopts);
  dep.Start();

  workload::SpotifyWorkload wl(opts.ns, opts.seed);
  std::vector<std::string> dirs = wl.all_dirs();
  dirs.push_back("/chaos");  // tracked-writer directory
  dep.BootstrapNamespace(dirs, wl.all_files());

  std::vector<std::unique_ptr<workload::HopsFsTarget>> targets;
  std::vector<workload::FsTarget*> ptrs;
  for (int i = 0; i < opts.workload_clients; ++i) {
    targets.push_back(
        std::make_unique<workload::HopsFsTarget>(dep.AddClient()));
    ptrs.push_back(targets.back().get());
  }
  hopsfs::HopsFsClient* writer = dep.AddClient();
  hopsfs::HopsFsClient* probe = dep.AddClient();
  sim.RunFor(3 * kSecond);  // DN heartbeats register, leader settles

  InvariantChecker checker(dep);
  // A block-DN crash needs blocks to lose: two files of one block each,
  // acked before the clock starts, so re-replication has work to do.
  const auto types = schedule.FaultTypes();
  if (std::find(types.begin(), types.end(), FaultType::kCrashBlockDn) !=
      types.end()) {
    int pending = 2;
    for (int i = 0; i < 2; ++i) {
      const std::string path = StrFormat("/chaos/block-%d", i);
      writer->Create(path, 1 << 20, [&checker, &pending, path](Status s) {
        if (s.ok()) checker.RecordAckedWrite(path);
        --pending;
      });
    }
    while (pending > 0 && sim.RunOne()) {
    }
  }
  const Nanos t0 = sim.now();
  checker.StartSampling();

  // Schedule times are relative to the driver start (warm-up begins now).
  FaultInjector injector(dep);
  injector.Arm(schedule, t0);

  // Tracked writer: a steady trickle of creates whose acks are recorded;
  // CheckDurability later stats exactly these paths. Writes continue
  // through the fault window on purpose — acks won during faults are the
  // interesting ones.
  int64_t write_counter = 0;
  auto writer_timer = sim.Every(100 * kMillisecond, [&] {
    const std::string path =
        StrFormat("/chaos/w-%lld", static_cast<long long>(write_counter++));
    writer->Create(path, 0, [&checker, path](Status s) {
      if (s.ok()) checker.RecordAckedWrite(path);
    });
  });

  if (opts.enable_test_ack_loss_bug) {
    const Nanos burst_start = t0 + opts.warmup + opts.fault_window / 2;
    sim.At(burst_start, [&dep] {
      for (ndb::NodeId n = 0; n < dep.ndb().num_datanodes(); ++n) {
        dep.ndb().datanode(n).set_test_lose_acked_writes(true);
      }
    });
    sim.At(burst_start + kAckLossBurst, [&dep] {
      for (ndb::NodeId n = 0; n < dep.ndb().num_datanodes(); ++n) {
        dep.ndb().datanode(n).set_test_lose_acked_writes(false);
      }
    });
  }

  workload::ClosedLoopDriver driver(
      sim, ptrs, [&wl](Rng& rng, std::vector<std::string>& owned) {
        return wl.Next(rng, owned);
      });
  auto res = driver.Run(opts.warmup, opts.fault_window + opts.settle);
  writer_timer.Cancel();

  ChaosReport report;
  report.seed = opts.seed;
  report.schedule_summary = schedule.Summary();
  report.fault_types = static_cast<int>(schedule.FaultTypes().size());
  report.completed = res.completed;
  report.failed = res.failed;
  report.errors_by_code = res.errors_by_code;
  report.acked_writes = checker.acked_writes();
  report.messages_dropped = dep.network().messages_dropped();

  const Nanos faults_end = t0 + opts.warmup + opts.fault_window;
  report.goodput.warmup_ops_per_sec =
      PhaseRate(res.timeline, t0, t0 + opts.warmup);
  report.goodput.fault_ops_per_sec =
      PhaseRate(res.timeline, t0 + opts.warmup, faults_end);
  report.goodput.settle_ops_per_sec =
      PhaseRate(res.timeline, faults_end, faults_end + opts.settle);

  // Recovery: first 100 ms window at/after the last scheduled event whose
  // rate is back to half the warm-up baseline.
  const Nanos last_heal =
      schedule.empty() ? faults_end : t0 + schedule.end_time();
  const double baseline = report.goodput.warmup_ops_per_sec;
  for (const auto& w : res.timeline.windows()) {
    if (w.start < last_heal || baseline <= 0) continue;
    const double rate = static_cast<double>(w.count) /
                        ToSeconds(metrics::TimeSeries::kWindow);
    if (rate >= 0.5 * baseline) {
      report.recovery_time = w.start - last_heal;
      break;
    }
  }

  // Longest stall: the longest run of empty 100 ms completion windows
  // after warm-up (the timeline materialises empty windows in gaps).
  {
    Nanos run = 0;
    Nanos end_of_interest = faults_end + opts.settle;
    for (const auto& w : res.timeline.windows()) {
      if (w.start < t0 + opts.warmup || w.start >= end_of_interest) continue;
      run = w.count == 0 ? run + metrics::TimeSeries::kWindow : 0;
      report.longest_stall = std::max(report.longest_stall, run);
    }
  }

  report.invariants = checker.CheckAll(*probe, sim.now() + kProbeBudget);

  // Surge-goodput invariant: during every open-loop surge episode the
  // measured workload must keep at least kSurgeGoodputFloor of its
  // warm-up goodput — overload sheds excess arrivals instead of
  // collapsing everyone.
  {
    bool has_surge = false;
    double worst_ratio = 1.0;
    Nanos surge_start = -1;
    const double baseline = report.goodput.warmup_ops_per_sec;
    for (const auto& e : schedule.events()) {
      if (e.type == FaultType::kOpenLoopSurge) surge_start = e.time;
      if (e.type == FaultType::kOpenLoopSurgeStop && surge_start >= 0) {
        const double rate =
            PhaseRate(res.timeline, t0 + surge_start, t0 + e.time);
        if (baseline > 0) {
          worst_ratio = std::min(worst_ratio, rate / baseline);
        }
        has_surge = true;
        surge_start = -1;
      }
    }
    if (has_surge) {
      InvariantResult r;
      r.name = "surge-goodput";
      r.ok = worst_ratio >= kSurgeGoodputFloor;
      r.detail = StrFormat(
          "goodput under surge held %.0f%% of baseline (floor %.0f%%); "
          "surge ops issued %lld, completed %lld",
          100.0 * worst_ratio, 100.0 * kSurgeGoodputFloor,
          static_cast<long long>(injector.surge_issued()),
          static_cast<long long>(injector.surge_completed()));
      report.invariants.push_back(r);
    }
  }

  // Telemetry invariants. These read only the scraper/SLO/health state —
  // alerts and health go into dedicated report fields, never the event
  // trace, so TraceString() is byte-identical with telemetry on or off.
  if (telemetry::Telemetry* tel = dep.telemetry(); tel != nullptr) {
    tel->Tick();  // final settled sample after the probes
    report.scrapes = tel->scraper().scrape_count();
    report.alerts = tel->slo().alerts();
    report.final_health = tel->health();
    for (const auto& [name, series] : tel->scraper().series()) {
      if (name.rfind("health.", 0) != 0 && name != "slo.active_alerts") {
        continue;
      }
      auto& points = report.health_series[name];
      points.reserve(series.ring.size());
      for (size_t i = 0; i < series.ring.size(); ++i) {
        points.push_back(series.ring.at(i));
      }
    }
    if (!opts.telemetry_export_prefix.empty()) {
      WriteFile(opts.telemetry_export_prefix + ".json",
                telemetry::ScrapeArchiveJson(tel->scraper()));
      WriteFile(opts.telemetry_export_prefix + ".prom",
                telemetry::PrometheusText(dep.metrics()));
      WriteFile(opts.telemetry_export_prefix + ".csv",
                telemetry::ScrapeCsv(tel->scraper()));
    }

    if (schedule.empty()) {
      // Steady state must be silent: any alert on a fault-free run is a
      // false positive.
      InvariantResult r;
      r.name = "slo-silence";
      r.ok = report.alerts.empty();
      r.detail = r.ok ? "no alerts on a fault-free run"
                      : StrFormat("%zu alert(s) fired with no faults",
                                  report.alerts.size());
      report.invariants.push_back(r);
    }

    // slo-detects: every AZ outage that took real hosts down must be seen
    // by the availability burn-rate alert while the outage (plus one fast
    // short-window of detection lag) is in effect.
    {
      const Nanos grace = opts.telemetry_options.slo.rules.empty()
                              ? 0
                              : opts.telemetry_options.slo.rules[0].short_window;
      int outages = 0, detected = 0;
      Nanos outage_start = -1;
      for (const auto& e : schedule.events()) {
        if (e.type == FaultType::kAzOutage) {
          int hosts_in_az = 0;
          for (HostId h = 0; h < dep.topology().num_hosts(); ++h) {
            if (dep.topology().az_of(h) == e.a) ++hosts_in_az;
          }
          if (hosts_in_az > 0) outage_start = t0 + e.time;
        } else if (e.type == FaultType::kAzRestore && outage_start >= 0) {
          ++outages;
          const Nanos outage_end = t0 + e.time;
          for (const auto& a : report.alerts) {
            if (a.objective == "availability" && a.fired_at >= outage_start &&
                a.fired_at <= outage_end + grace) {
              ++detected;
              break;
            }
          }
          outage_start = -1;
        }
      }
      if (outages > 0) {
        InvariantResult r;
        r.name = "slo-detects";
        r.ok = detected == outages;
        r.detail = StrFormat(
            "availability alert fired for %d of %d AZ outage(s)", detected,
            outages);
        report.invariants.push_back(r);
      }
    }

    // telemetry-settle: after every heal and the settle phase, the health
    // rollup must match the injected fault set — only hosts the injector
    // took down for good may still be unavailable.
    {
      std::vector<std::string> expected_dead;
      for (HostId h : injector.lost_hosts()) {
        expected_dead.push_back(dep.topology().name_of(h));
      }
      std::vector<std::string> unexpected;
      for (const auto& h : report.final_health.hosts) {
        if (h.state != telemetry::HealthState::kUnavailable) continue;
        if (std::find(expected_dead.begin(), expected_dead.end(), h.host) ==
            expected_dead.end()) {
          unexpected.push_back(h.host + "(" + h.reason + ")");
        }
      }
      InvariantResult r;
      r.name = "telemetry-settle";
      r.ok = unexpected.empty();
      if (r.ok) {
        r.detail = StrFormat(
            "final health matches the fault set (%zu expected-dead "
            "host(s)); cluster %s",
            expected_dead.size(),
            telemetry::HealthStateName(report.final_health.cluster));
      } else {
        r.detail = "hosts unexpectedly unavailable after settle:";
        for (const auto& u : unexpected) r.detail += " " + u;
      }
      report.invariants.push_back(r);
    }
  }

  report.trace = injector.trace();
  for (const auto& line : checker.trace()) report.trace.push_back(line);
  report.recoveries.assign(dep.ndb().recovery_log().begin(),
                           dep.ndb().recovery_log().end());
  report.recoveries_dropped = dep.ndb().recoveries_dropped();

  // Flight recorder: when tracing was on and an invariant failed, dump
  // the retained span trees (the ops closest to the violation) as
  // Chrome-trace JSON for offline inspection.
  if (opts.trace_sample_every > 0) {
    report.traces_captured =
        static_cast<int64_t>(sim.tracer().traces_finished());
    if (!report.invariants_ok() && !opts.trace_dump_path.empty()) {
      const std::vector<trace::Trace> kept(sim.tracer().finished().begin(),
                                           sim.tracer().finished().end());
      if (WriteFile(opts.trace_dump_path, trace::ChromeTraceJson(kept))) {
        report.trace_dump_path = opts.trace_dump_path;
        report.trace.push_back(StrFormat(
            "trace: dumped %zu span trees to %s", kept.size(),
            opts.trace_dump_path.c_str()));
      }
    }
  }

  // Telemetry flight recorder: on invariant failure, drop the scrape
  // archive (the last ring_capacity snapshots of every series) next to
  // the trace ring so the violation comes with its metrics context.
  if (dep.telemetry() != nullptr && !report.invariants_ok() &&
      !opts.telemetry_dump_path.empty() &&
      WriteFile(opts.telemetry_dump_path,
                telemetry::ScrapeArchiveJson(dep.telemetry()->scraper()))) {
    report.telemetry_dump_path = opts.telemetry_dump_path;
  }
  report.events_dispatched = sim.events_processed();
  report.rng_draws = sim.rng().draws();
  const int azs = dep.topology().num_azs();
  for (AzId a = 0; a < azs; ++a) {
    for (AzId b = 0; b < azs; ++b) {
      report.az_pair_bytes.push_back(dep.network().az_pair_bytes(a, b));
    }
  }
  report.latency_by_op = res.per_op;
  return report;
}

}  // namespace repro::chaos
