// Telemetry pipeline bench: a pinned surge + AZ-outage + grey-slow
// episode against HopsFS-CL (3,3) with the full telemetry stack on.
//
// The episode is a regression harness for the alerting path, with hard
// assertions:
//   - the SLO availability burn-rate alert fires within one fast
//     long-window of the injected AZ outage and resolves after restore;
//   - the per-AZ health rollup marks the outaged AZ unavailable while it
//     is dark and healthy again at the end;
//   - the grey-slow NDB node is flagged degraded by its per-op service
//     time (peer-relative) while its slowdown is active, and recovers;
//   - a fault-free soak (6 seeds, 40 under REPRO_FULL=1, REPRO_SEEDS=n
//     overrides) raises ZERO alerts and rolls every host up healthy —
//     the false-positive budget is 0;
//   - the simulation is byte-identical with telemetry on vs off, and the
//     alert timeline is byte-identical across same-seed replays.
//
// Artifacts (CI uploads these): $REPRO_CSV_DIR/telemetry_episode.{json,
// prom,csv} — the pinned episode's scrape archive, Prometheus exposition
// and per-scrape CSV grid — plus telemetry_soak.csv and
// BENCH_telemetry.json (layout: bench_report.h).
#include <cstdio>

#include "bench_common.h"
#include "chaos/harness.h"
#include "metrics/timeseries.h"
#include "util/file.h"

namespace repro::bench {
namespace {

// Episode times, relative to warm-up start (warmup 2s, window 8s,
// settle 6s — the chaos harness defaults).
constexpr Nanos kOutageStart = 3 * kSecond;   // AZ 2 goes dark
constexpr Nanos kOutageEnd = 5 * kSecond;     // AZ 2 restored
constexpr Nanos kSurgeStart = 6 * kSecond;    // open-loop overload surge
constexpr Nanos kSurgeEnd = Millis(7200);
constexpr Nanos kGreyStart = Millis(7500);    // NDB node 4 goes grey-slow
constexpr Nanos kGreyEnd = Millis(9500);
constexpr int kGreyNode = 4;

chaos::FaultSchedule PinnedEpisode() {
  chaos::FaultSchedule s;
  s.Add({kOutageStart, chaos::FaultType::kAzOutage, 2});
  s.Add({kOutageEnd, chaos::FaultType::kAzRestore, 2});
  s.Add({kSurgeStart, chaos::FaultType::kOpenLoopSurge, 220000});
  s.Add({kSurgeEnd, chaos::FaultType::kOpenLoopSurgeStop});
  s.Add({kGreyStart, chaos::FaultType::kGreySlowNode, kGreyNode, -1, 12.0});
  s.Add({kGreyEnd, chaos::FaultType::kGreyRestoreNode, kGreyNode});
  return s;
}

chaos::ChaosOptions EpisodeOptions() {
  chaos::ChaosOptions opts;
  opts.seed = 7;
  opts.telemetry = true;
  // Episode-scale client failure detection (see ChaosOptions): applied
  // to every run here — including the telemetry-off arm of the
  // determinism check — so telemetry observes but never alters the sim.
  opts.client_rpc_timeout = 250 * kMillisecond;
  opts.client_op_deadline = 1 * kSecond;
  return opts;
}

// Max value of a captured health series inside [from, to] (absolute sim
// times); -1 when the series has no points there.
double MaxIn(const std::vector<telemetry::RingSeries::Point>& pts, Nanos from,
             Nanos to) {
  double best = -1;
  for (const auto& p : pts) {
    if (p.t >= from && p.t <= to) best = std::max(best, p.v);
  }
  return best;
}

const std::vector<telemetry::RingSeries::Point>* FindSeries(
    const chaos::ChaosReport& report, const std::string& needle) {
  for (const auto& [name, pts] : report.health_series) {
    if (name.find(needle) != std::string::npos) return &pts;
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  RejectArguments(argc, argv);
  PrintHeader("Cluster telemetry pipeline (scrapes, health, SLO burn rate)",
              "observability harness; no single paper figure");
  Report out("telemetry");

  // ---- Pinned episode ----
  std::printf("\npinned episode: AZ-2 outage 3-5s, surge 6-7.2s, "
              "grey-slow ndb-dn-%d 7.5-9.5s (times after warm-up)\n\n",
              kGreyNode);
  chaos::ChaosOptions opts = EpisodeOptions();
  opts.telemetry_export_prefix = metrics::CsvDir() + "/telemetry_episode";
  opts.telemetry_dump_path = metrics::CsvDir() + "/telemetry_failure.json";
  chaos::ChaosReport report =
      chaos::RunChaosSchedule(opts, PinnedEpisode());
  std::printf("%s\n", report.Scorecard().c_str());

  out.Check(report.invariants_ok(), "all invariants hold (incl. telemetry)");

  // Locate the outage in absolute sim time via the health series (the
  // schedule is armed at t0 = warm-up start, after ~3s of pre-run
  // settling): the first scrape where az2 reads unavailable is at most
  // one scrape period after the injection.
  const auto* az2 = FindSeries(report, "health.az{az=2}");
  Nanos outage_abs = -1, restore_abs = -1;
  if (az2 != nullptr) {
    for (const auto& p : *az2) {
      if (p.v >= 2 && outage_abs < 0) outage_abs = p.t;
      if (outage_abs >= 0 && p.v < 2) {
        restore_abs = p.t;
        break;
      }
    }
  }
  out.Check(outage_abs >= 0, "health.az{az=2} reached unavailable");
  out.Check(restore_abs >= 0, "health.az{az=2} left unavailable after heal");

  // The surge later in the episode legitimately fires its own
  // availability alerts, so match the alert to the outage interval: the
  // earliest one that fired between the outage start and one fast
  // long-window past the restore.
  const Nanos fast_window = opts.telemetry_options.slo.rules[0].long_window;
  const telemetry::SloAlert* outage_alert = nullptr;
  for (const auto& a : report.alerts) {
    if (a.objective == "availability" && outage_abs >= 0 &&
        a.fired_at >= outage_abs - kSecond &&
        a.fired_at <= restore_abs + fast_window &&
        (outage_alert == nullptr || a.fired_at < outage_alert->fired_at)) {
      outage_alert = &a;
    }
  }
  out.Check(outage_alert != nullptr, "availability alert fired for the outage");
  if (outage_alert != nullptr) {
    out.Check(outage_alert->fired_at <= outage_abs + fast_window,
              "alert fired within one fast window of the outage");
    out.Check(!outage_alert->active(), "outage alert resolved");
    if (restore_abs >= 0 && !outage_alert->active()) {
      out.Check(outage_alert->resolved_at <= restore_abs + fast_window,
                "alert resolved within one fast window of the restore");
    }
    std::printf("\n");
  }

  // Grey-slow detection: the slowed NDB node must be flagged (per-op
  // service time vs its role peers) while degraded and healthy at the
  // end.
  {
    char needle[64];
    std::snprintf(needle, sizeof(needle), "host=ndb-dn-%d", kGreyNode);
    const auto* grey = FindSeries(report, needle);
    out.Check(grey != nullptr, "health series exists for the grey-slow node");
    if (grey != nullptr && !grey->empty()) {
      out.Check(MaxIn(*grey, 0, grey->back().t) >= 1,
                "grey-slow node was flagged while degraded");
      out.Check(grey->back().v == 0, "grey-slow node healthy at end of run");
    }
  }

  // The fault-set match is the telemetry-settle invariant; restate the
  // cluster-level outcome explicitly.
  out.Check(report.final_health.cluster == telemetry::HealthState::kHealthy,
            "cluster rolls up healthy after settle");
  out.Check(report.scrapes > 200, "scraper sampled the whole episode");

  // ---- Determinism: telemetry must not perturb the simulation ----
  {
    chaos::ChaosOptions on = EpisodeOptions();
    chaos::ChaosOptions off = EpisodeOptions();
    off.telemetry = false;
    chaos::ChaosReport run_on = chaos::RunChaosSchedule(on, PinnedEpisode());
    chaos::ChaosReport run_off = chaos::RunChaosSchedule(off, PinnedEpisode());
    out.Check(run_on.TraceString() == run_off.TraceString() &&
                  run_on.completed == run_off.completed &&
                  run_on.failed == run_off.failed,
              "byte-identical trace and results with telemetry on vs off");
    chaos::ChaosReport replay = chaos::RunChaosSchedule(on, PinnedEpisode());
    bool alerts_match = replay.alerts.size() == run_on.alerts.size();
    for (size_t i = 0; alerts_match && i < replay.alerts.size(); ++i) {
      alerts_match = replay.alerts[i].fired_at == run_on.alerts[i].fired_at &&
                     replay.alerts[i].resolved_at ==
                         run_on.alerts[i].resolved_at;
    }
    out.Check(alerts_match,
              "alert timeline identical across same-seed replays");
  }

  // ---- Fault-free soak: the false-positive budget is zero ----
  const int soak_seeds = SeedCount(6);
  std::printf("\nfault-free soak: %d seeds, telemetry on, empty schedule\n",
              soak_seeds);
  int soak_failures = 0;
  std::vector<double> col_seed, col_alerts, col_healthy;
  for (int i = 0; i < soak_seeds; ++i) {
    chaos::ChaosOptions sopts;
    sopts.seed = 9000 + i;
    sopts.telemetry = true;
    sopts.client_rpc_timeout = 250 * kMillisecond;
    sopts.client_op_deadline = 1 * kSecond;
    sopts.warmup = 2 * kSecond;
    sopts.fault_window = 4 * kSecond;
    sopts.settle = 4 * kSecond;
    chaos::ChaosReport r =
        chaos::RunChaosSchedule(sopts, chaos::FaultSchedule{});
    const bool healthy =
        r.final_health.cluster == telemetry::HealthState::kHealthy &&
        r.final_health.UnhealthyHosts().empty();
    if (!r.alerts.empty() || !r.invariants_ok() || !healthy) {
      ++soak_failures;
      std::printf("  seed %llu: %zu alert(s), %s\n",
                  static_cast<unsigned long long>(sopts.seed),
                  r.alerts.size(), r.final_health.ToString().c_str());
    }
    col_seed.push_back(static_cast<double>(sopts.seed));
    col_alerts.push_back(static_cast<double>(r.alerts.size()));
    col_healthy.push_back(healthy ? 1 : 0);
  }
  out.Check(soak_failures == 0,
            "zero alerts and all-healthy rollups across the fault-free soak");

  WriteFile(metrics::CsvDir() + "/telemetry_soak.csv",
            metrics::CsvText({{"seed", col_seed},
                              {"alerts", col_alerts},
                              {"all_healthy", col_healthy}}));
  std::printf("\nartifacts: %s.{json,prom,csv}, %s/telemetry_soak.csv\n",
              opts.telemetry_export_prefix.c_str(),
              metrics::CsvDir().c_str());

  out.Value("episode.scrapes", static_cast<double>(report.scrapes));
  out.Value("episode.alerts", static_cast<double>(report.alerts.size()));
  out.Value("soak.seeds", soak_seeds);
  return out.Finish();
}

}  // namespace
}  // namespace repro::bench

int main(int argc, char** argv) { return repro::bench::Main(argc, argv); }
