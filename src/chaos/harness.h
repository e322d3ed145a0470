// Chaos harness: one seeded end-to-end chaos episode.
//
// RunChaosSchedule builds a full HopsFS-CL deployment, boots the Spotify
// workload, arms a fault schedule (randomised from the seed, or supplied
// by the caller), and runs warm-up -> fault window -> settle while a
// tracked writer records every acknowledged create (a schedule that
// crashes a block datanode first gets two 1 MB files, so the replication
// check has blocks to follow). After the run the
// safety invariants (durability, arbitration, leadership, replication)
// are checked and an availability scorecard — per-phase goodput, error
// taxonomy by status code, recovery time — is assembled from the
// workload timeline. The whole run is deterministic: the report's event
// trace is byte-identical across runs with the same options.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/schedule.h"
#include "hopsfs/deployment.h"
#include "telemetry/telemetry.h"
#include "workload/driver.h"
#include "workload/spotify.h"

namespace repro::chaos {

// Telemetry defaults for chaos-scale runs: 50 ms scrape period and the
// production SLO burn-rate windows compressed 1200x (fast 250ms/3s, slow
// 1.5s/18s) so multi-window alerting operates inside a ~16 s episode.
telemetry::TelemetryOptions ChaosTelemetryOptions();

struct ChaosOptions {
  uint64_t seed = 1;
  hopsfs::PaperSetup setup = hopsfs::PaperSetup::kHopsFsCl_3_3;
  int num_namenodes = 6;
  int block_datanodes = 9;
  int workload_clients = 12;
  workload::NamespaceConfig ns{/*users=*/128, /*dirs_per_user=*/4,
                               /*files_per_dir=*/4, /*zipf_theta=*/0.75};

  Nanos warmup = 2 * kSecond;        // fault-free baseline
  Nanos fault_window = 8 * kSecond;  // faults inject and heal in here
  Nanos settle = 6 * kSecond;        // fault-free recovery tail

  // Fault mix toggles (start/window/topology fields are filled
  // in by the harness from the deployment).
  RandomFaultOptions faults;

  // Deliberately enables the lost-acked-write bug (see
  // NdbDatanode::set_test_lose_acked_writes) on every NDB datanode for a
  // 600 ms burst mid-window. The durability invariant MUST fail — used to
  // prove the checker detects real violations.
  bool enable_test_ack_loss_bug = false;

  // Distributed tracing during the chaos run: sample one in N operations
  // (0 = off; tracing never perturbs the schedule — spans draw no RNG and
  // schedule no events, so the report is byte-identical either way). The
  // last 64 sampled traces are retained, and when an invariant fails and
  // `trace_dump_path` is set they are written there as Chrome-trace JSON
  // — the flight recorder for the offending ops.
  uint64_t trace_sample_every = 0;
  std::string trace_dump_path;

  // Cluster telemetry during the run (scrape -> health -> SLO burn-rate).
  // Like tracing, the telemetry tick is read-only: the event trace and
  // workload results are byte-identical with telemetry on or off. When
  // enabled the harness also checks the telemetry invariants: slo-silence
  // (an empty schedule must raise zero alerts), slo-detects (an AZ outage
  // must fire an availability alert while it is active), and
  // telemetry-settle (after the heals and the settle phase, the only
  // hosts still rolled up as unavailable are permanently crashed block
  // DNs — the health view matches the injected fault set).
  bool telemetry = false;
  telemetry::TelemetryOptions telemetry_options = ChaosTelemetryOptions();
  // Client failure-detection timeout overrides (0 = keep the deployment
  // defaults). The stock 5 s rpc_timeout and 30 s op_deadline are longer
  // than a whole chaos fault window, so ops issued into a dark AZ hang
  // past the episode instead of failing in a client-visible way — and
  // the availability SLI never sees the outage. Telemetry benches set
  // these to episode scale (e.g. 250 ms / 1 s) on BOTH their
  // telemetry-on and telemetry-off runs, so the on/off byte-identity
  // comparison still simulates the same cluster. Deliberately NOT tied
  // to `telemetry`: observing a run must never change it.
  Nanos client_rpc_timeout = 0;
  Nanos client_op_deadline = 0;
  // On invariant failure, dump the scrape archive JSON (the last
  // ring_capacity snapshots of every series) here, next to the trace
  // ring ("" = none).
  std::string telemetry_dump_path;
  // When set, ALWAYS export the run's telemetry as <prefix>.json (scrape
  // archive), <prefix>.prom (Prometheus text exposition) and <prefix>.csv
  // (wide per-scrape grid) — the CI artifacts of bench_telemetry.
  std::string telemetry_export_prefix;
};

struct PhaseStats {
  double warmup_ops_per_sec = 0;
  double fault_ops_per_sec = 0;
  double settle_ops_per_sec = 0;
};

struct ChaosReport {
  uint64_t seed = 0;
  std::string schedule_summary;
  int fault_types = 0;  // distinct FaultType values the schedule used

  std::vector<InvariantResult> invariants;
  bool invariants_ok() const {
    for (const auto& r : invariants) {
      if (!r.ok) return false;
    }
    return true;
  }

  // Availability scorecard.
  PhaseStats goodput;
  std::map<Code, int64_t> errors_by_code;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t acked_writes = 0;
  int64_t messages_dropped = 0;
  // Time from the schedule's last heal until goodput first returns to at
  // least half the warm-up rate; -1 if it never does.
  Nanos recovery_time = -1;
  // Longest run of 100 ms windows with zero completed ops after warm-up —
  // the availability scorecard's "no stall longer than the failover
  // detection window" number.
  Nanos longest_stall = 0;

  // Deterministic event trace: injected faults in application order, then
  // the checker's observations. Byte-identical across same-seed runs.
  std::vector<std::string> trace;
  std::string TraceString() const;

  // Node-recovery timeline: one entry per RestartDatanode that began
  // recovering (phases, replay/resync volumes, digests). The CI
  // recovery-smoke job uploads this as its recovery-timeline artifact.
  // The cluster keeps a bounded ring; entries evicted during very long
  // soaks are counted in recoveries_dropped.
  std::vector<ndb::NdbCluster::RecoveryStats> recoveries;
  int64_t recoveries_dropped = 0;

  // Sim-side fingerprint of the whole episode, pinned by the behaviour
  // digests (tests/behaviour_digest_test.cc): engine events dispatched,
  // values drawn from the simulation RNG, bytes per directed AZ pair
  // (row-major, from * num_azs + to) and the workload's per-op latency.
  uint64_t events_dispatched = 0;
  uint64_t rng_draws = 0;
  std::vector<int64_t> az_pair_bytes;
  std::map<hopsfs::FsOp, Histogram> latency_by_op;

  // Distributed-tracing capture (when ChaosOptions::trace_sample_every
  // is set): how many span trees finished, and where the flight-recorder
  // Chrome-trace JSON was written on invariant failure ("" = none).
  int64_t traces_captured = 0;
  std::string trace_dump_path;

  // Telemetry capture (when ChaosOptions::telemetry is set). Alerts and
  // health live OUTSIDE the event trace so TraceString() stays
  // byte-identical with telemetry on or off.
  int64_t scrapes = 0;
  std::vector<telemetry::SloAlert> alerts;
  telemetry::HealthSnapshot final_health;
  // The derived rollup series (health.host/health.az/health.cluster and
  // slo.active_alerts), copied out of the scrape archive so callers can
  // assert on mid-run health without keeping the deployment alive.
  std::map<std::string, std::vector<telemetry::RingSeries::Point>>
      health_series;
  std::string telemetry_dump_path;  // archive written on invariant failure

  // Multi-line human-readable scorecard.
  std::string Scorecard() const;
};

// Runs one chaos episode with a schedule randomised from opts.seed.
ChaosReport RunChaosSchedule(const ChaosOptions& opts);

// Same, with a caller-supplied schedule (event times are absolute sim
// times; the fault window normally spans [warmup, warmup+fault_window]).
ChaosReport RunChaosSchedule(const ChaosOptions& opts,
                             const FaultSchedule& schedule);

}  // namespace repro::chaos
