// Hot-path profile of the protocol layers + allocation-budget gate.
//
// Three parts, all seed-pinned:
//
//   1. Profile run: a HopsFS-CL deployment under the closed-loop Spotify
//      workload with the zone profiler installed. Artifacts (REPRO_CSV_DIR,
//      default bench_out/): prof_cpu.folded + prof_allocs.folded
//      (flamegraph folded stacks of host CPU and allocation counts),
//      prof_budget.txt (top-K CPU/allocs-per-op table), prof_zones.json
//      (per-zone totals), prof_trace.json (Chrome trace with the profiler
//      track overlaying the sampled sim-time span trees), and
//      prof_registry.prom (the prof.zone.* series as exported through the
//      metrics registry — proof the telemetry stack sees profiles for
//      free), and prof_alloc_samples.txt: the window's allocation-site
//      samples (one in kAllocSampleEvery counted allocations), which
//        python3 bench/alloc_sites.py prof_alloc_samples.txt
//      turns into a per-site allocs/op table.
//
//   2. Determinism check: a pinned chaos episode (NDB crash + restart)
//      run with the profiler installed and again without; the full event
//      trace and workload outcome must be byte-identical. Exit non-zero
//      on divergence.
//
//   3. Budget gate: allocs-per-op and CPU-per-op for the tracked hot
//      zones (NN op dispatch, TC key-op/commit, LDM prepare/commit
//      chain, redo flush) land in $REPRO_CSV_DIR/BENCH_prof.json as
//      zones.<zone>.* values (layout: bench_report.h). With
//      REPRO_BENCH_BASELINE set to the committed baseline, the run FAILS
//      if any tracked zone's allocs-per-op exceeds 1.1x the baseline +
//      0.25 (allocation counts are deterministic for the pinned seed, so
//      the gate is machine-independent; CPU-per-op is recorded for trend
//      reading but not gated — wall CPU is runner-dependent). The same
//      file records the engine's events dispatched and events still
//      pending when the profile window closes (engine.*); the run FAILS
//      if pending exceeds 1.1x the baseline + 16. Both are deterministic:
//      a resolved op that stopped cancelling its timeouts would park
//      thousands more. The tracked zones cover a small share of the
//      window's allocations, so the whole window's counted allocations
//      per completed op land there too (window.allocs_per_op), gated by
//      the zones' rule: the run FAILS above 1.1x the baseline + 0.25.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "chaos/harness.h"
#include "hopsfs/deployment.h"
#include "metrics/timeseries.h"
#include "prof/profiler.h"
#include "prof/report.h"
#include "telemetry/export.h"
#include "trace/chrome_trace.h"
#include "trace/trace.h"
#include "util/file.h"
#include "util/strings.h"
#include "workload/driver.h"
#include "workload/spotify.h"

namespace repro::bench {
namespace {

// The allocation-site sampling period in the profile window.
constexpr uint64_t kAllocSampleEvery = 37;

// The zones the follow-on protocol-flattening work is measured against.
const char* const kTrackedZones[] = {
    "nn.op.dispatch",      "ndb.tc.keyop",  "ndb.tc.commit",
    "ndb.ldm.prepare",     "ndb.ldm.commit_chain", "ndb.redo.flush",
};

struct TrackedStats {
  std::string zone;
  prof::ZoneStats stats;
};

// ---- part 1: profile run ---------------------------------------------------

struct ProfileRun {
  std::vector<TrackedStats> tracked;
  uint64_t ops_completed = 0;
  uint64_t window_allocs = 0;      // counted allocations in the window
  uint64_t pending_at_close = 0;   // engine events pending at window close
  uint64_t events_dispatched = 0;  // over the whole run, setup included
};

ProfileRun RunProfiledWorkload(const std::string& out_dir) {
  const uint64_t seed = 42;
  Simulation sim(seed);
  // Sample some traces so the Chrome export overlays zones on span trees.
  sim.tracer().set_sample_every(64);
  sim.tracer().set_keep_last(64);

  auto dopts = hopsfs::DeploymentOptions::FromPaperSetup(
      hopsfs::PaperSetup::kHopsFsCl_3_3, /*num_namenodes=*/3);
  hopsfs::Deployment dep(sim, dopts);
  dep.Start();

  workload::NamespaceConfig ns{/*users=*/64, /*dirs_per_user=*/4,
                               /*files_per_dir=*/4, /*zipf_theta=*/0.75};
  workload::SpotifyWorkload wl(ns, seed);
  dep.BootstrapNamespace(wl.all_dirs(), wl.all_files());
  std::vector<std::unique_ptr<workload::HopsFsTarget>> targets;
  std::vector<workload::FsTarget*> ptrs;
  for (int i = 0; i < 24; ++i) {
    targets.push_back(
        std::make_unique<workload::HopsFsTarget>(dep.AddClient()));
    ptrs.push_back(targets.back().get());
  }
  sim.RunFor(1 * kSecond);  // leader + bindings settle

  prof::ProfilerOptions popts;
  popts.chrome_ring_capacity = 4096;
  prof::Profiler profiler(popts);
  profiler.SetSimTimeSource([&sim] { return sim.now(); });
  // Bridge zones into the deployment's registry: the prof.zone.* series
  // below prove the telemetry stack exports profiles with zero glue.
  prof::RegisterZoneMetrics(&profiler, &dep.metrics());
  profiler.Install();

  workload::ClosedLoopDriver driver(sim, ptrs, [&wl](auto& rng, auto& owned) {
    return wl.Next(rng, owned);
  });
  // Reset at the warm-up/measure boundary: the budget numbers cover the
  // steady-state window only (node creation, cold maps, intern tables
  // are all warm by then).
  uint64_t allocs_at_open = 0;
  auto results = driver.Run(1 * kSecond, 4 * kSecond, [&] {
    prof::SetAllocSampleEvery(kAllocSampleEvery);  // primes the unwinder
    profiler.ResetStats();
    prof::ResetAllocSamples();
    allocs_at_open = prof::TotalAllocs().count;
  });
  const uint64_t window_allocs = prof::TotalAllocs().count - allocs_at_open;
  const std::string alloc_samples =
      prof::AllocSamplesText(static_cast<uint64_t>(results.completed));
  prof::SetAllocSampleEvery(0);
  WriteFile(out_dir + "/prof_alloc_samples.txt", alloc_samples);

  profiler.Uninstall();

  // Artifacts.
  WriteFile(out_dir + "/prof_cpu.folded",
            prof::FoldedStacks(profiler, prof::Metric::kCpuNs));
  WriteFile(out_dir + "/prof_allocs.folded",
            prof::FoldedStacks(profiler, prof::Metric::kAllocs));
  const std::string budget = prof::BudgetTable(profiler, 20);
  WriteFile(out_dir + "/prof_budget.txt", budget);
  WriteFile(out_dir + "/prof_zones.json", prof::ZonesJson(profiler));
  WriteFile(out_dir + "/prof_trace.json",
            trace::ChromeTraceJson(sim.tracer().TakeFinished(),
                                   prof::ZoneChromeEvents(profiler)));
  // prof.zone.* rides the normal exporters (frozen at detach).
  WriteFile(out_dir + "/prof_registry.prom",
            telemetry::PrometheusText(dep.metrics()));

  std::printf("profiled %lld completed ops; budget table (top 20 by CPU):\n\n%s\n",
              static_cast<long long>(results.completed), budget.c_str());

  ProfileRun out;
  out.ops_completed = static_cast<uint64_t>(results.completed);
  out.window_allocs = window_allocs;
  out.pending_at_close = sim.pending();
  out.events_dispatched = sim.events_processed();
  for (const auto& [name, stats] : profiler.ByName()) {
    for (const char* tracked : kTrackedZones) {
      if (name == tracked) out.tracked.push_back({name, stats});
    }
  }
  return out;
}

// ---- part 2: profiler on/off byte-identity --------------------------------

bool CheckDeterminism() {
  chaos::ChaosOptions opts;
  opts.seed = 4242;
  opts.workload_clients = 8;
  opts.warmup = 1 * kSecond;
  opts.fault_window = 2 * kSecond;
  opts.settle = 2 * kSecond;
  opts.deployment.client.rpc_timeout = 250 * kMillisecond;
  opts.deployment.client.op_deadline = 1 * kSecond;

  chaos::FaultSchedule schedule;
  schedule.Add({600 * kMillisecond, chaos::FaultType::kCrashNdbNode, 1});
  schedule.Add({Millis(1400), chaos::FaultType::kRestartNdbNode, 1});

  prof::Profiler profiler;
  profiler.Install();
  const chaos::ChaosReport on = chaos::RunChaosSchedule(opts, schedule);
  profiler.Uninstall();
  const chaos::ChaosReport off = chaos::RunChaosSchedule(opts, schedule);

  const bool identical = on.TraceString() == off.TraceString() &&
                         on.completed == off.completed &&
                         on.failed == off.failed &&
                         on.acked_writes == off.acked_writes;
  std::printf("determinism: pinned chaos episode (crash+restart, seed %llu) "
              "with profiler on vs off: %s\n",
              static_cast<unsigned long long>(opts.seed),
              identical ? "byte-identical" : "DIVERGED");
  uint64_t zone_calls = 0;
  for (const auto& [name, stats] : profiler.ByName()) {
    (void)name;
    zone_calls += stats.calls;
  }
  std::printf("  (profiled run recorded %llu zone entries across %zu paths)\n",
              static_cast<unsigned long long>(zone_calls),
              profiler.nodes().size() - 1);
  return identical;
}

// ---- part 3: BENCH_prof.json + budget gate --------------------------------

void CheckBudgets(const ProfileRun& run, Report& out) {
  out.Value("ops_completed", static_cast<double>(run.ops_completed));
  const bool gate = out.has_baseline();
  if (!gate) std::printf("budget gate: REPRO_BENCH_BASELINE unset, skipping\n");
  for (const char* zone : kTrackedZones) {
    const TrackedStats* cur = nullptr;
    for (const auto& t : run.tracked) {
      if (t.zone == zone && t.stats.calls > 0) cur = &t;
    }
    // A tracked zone absent from the profile is a hard failure even with
    // no baseline to gate against: it means the instrumentation was
    // removed or the hot path stopped running, and silently writing a
    // JSON without the zone would let the next baseline regenerate around
    // the hole.
    if (!out.Check(cur != nullptr,
                   StrFormat("tracked zone %s ran in the profile window",
                             zone))) {
      continue;
    }
    // Zone calls and allocation counts are sim-deterministic for the
    // pinned seed; cpu_us_per_call is host-dependent and informational.
    const double calls = static_cast<double>(cur->stats.calls);
    const double allocs = static_cast<double>(cur->stats.allocs) / calls;
    const std::string key = "zones." + cur->zone + ".";
    out.Value(key + "calls", calls);
    out.Value(key + "allocs_per_call", allocs);
    out.Value(key + "bytes_per_call",
              static_cast<double>(cur->stats.alloc_bytes) / calls);
    out.Value(key + "cpu_us_per_call",
              static_cast<double>(cur->stats.cpu_ns) / calls / 1e3);
    if (!gate) continue;
    // NaN, so the check fails, when the baseline lacks the zone.
    const double base = out.Baseline(key + "allocs_per_call").value_or(NAN);
    // >10% regression fails. A small absolute slack (+0.25 alloc/op)
    // keeps near-zero baselines from tripping on quantisation. Tightened
    // from 1.2x+0.5 once the flattening work drove the tracked budgets
    // to ~1 alloc/op: at these floors a whole extra allocation per op is
    // a real regression, not noise.
    const double ceiling = base * 1.1 + 0.25;
    std::printf("  %-22s allocs/op %8.3f vs baseline %8.3f (ceiling %8.3f)\n",
                zone, allocs, base, ceiling);
    out.Check(allocs <= ceiling,
              StrFormat("%s allocs/op within 1.1x baseline + 0.25", zone));
  }
}

// Every layer's allocations, not only the tracked zones': a regression in
// the RPC layer or the workload driver shows here.
void CheckWindowAllocs(const ProfileRun& run, Report& out) {
  const double allocs = static_cast<double>(run.window_allocs) /
                        static_cast<double>(run.ops_completed);
  out.Value("window.allocs_per_op", allocs);
  std::printf("window: %.3f allocs per completed op\n", allocs);
  if (!out.has_baseline()) return;
  const double base = out.Baseline("window.allocs_per_op").value_or(NAN);
  const double ceiling = base * 1.1 + 0.25;
  std::printf("  window allocs/op %8.3f vs baseline %8.3f (ceiling %8.3f)\n",
              allocs, base, ceiling);
  out.Check(allocs <= ceiling,
            "window allocs/op within 1.1x baseline + 0.25");
}

// Parked events: what is pending at the window's close is the work in
// flight plus the periodic timers, not timeouts of ops already answered.
void CheckEngine(const ProfileRun& run, Report& out) {
  const double pending = static_cast<double>(run.pending_at_close);
  out.Value("engine.pending_at_close", pending);
  out.Value("engine.events_dispatched",
            static_cast<double>(run.events_dispatched));
  std::printf("engine: %llu events dispatched, %llu pending at window close\n",
              static_cast<unsigned long long>(run.events_dispatched),
              static_cast<unsigned long long>(run.pending_at_close));
  if (!out.has_baseline()) return;
  const double base = out.Baseline("engine.pending_at_close").value_or(NAN);
  const double ceiling = base * 1.1 + 16;
  std::printf("  pending at close %8.0f vs baseline %8.0f (ceiling %8.0f)\n",
              pending, base, ceiling);
  out.Check(pending <= ceiling,
            "engine pending at window close within 1.1x baseline + 16");
}

int Main(int argc, char** argv) {
  RejectArguments(argc, argv);
  PrintHeader("Hot-path profiler: zone CPU + allocation budgets",
              "observability tooling; no single paper figure");
  Report out("prof");
  const ProfileRun run = RunProfiledWorkload(metrics::CsvDir());
  out.Check(CheckDeterminism(),
            "pinned chaos episode byte-identical with profiler on vs off");
  CheckBudgets(run, out);
  CheckWindowAllocs(run, out);
  CheckEngine(run, out);
  return out.Finish();
}

}  // namespace
}  // namespace repro::bench

int main(int argc, char** argv) { return repro::bench::Main(argc, argv); }
