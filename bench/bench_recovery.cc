// Crash-recovery bench: redo-journal replay cost, recovery-time scaling,
// and restart-fault soaks.
//
// Three parts, all deterministic:
//
//   1. A pinned crash -> replay -> resync -> verify episode on a bare NDB
//      cluster, printing the phase-by-phase recovery timeline and the
//      replay-determinism audit (two replays of the same journal must
//      produce byte-identical row images).
//
//   2. Recovery-time scaling: the same crash against growing redo logs
//      (no LCP, so the whole log replays). Recovery time must be linear
//      in the replay work — the points land on a line (max residual
//      printed, CSV recovery_scaling.csv).
//
//   3. The durability loss window: a whole-cluster crash right after a
//      commit burst. The recovery cut is epoch-exact, so everything lost
//      is younger than flush-interval + GCP-interval (plus epoch-close
//      slack) — the age of the oldest dropped record is printed and
//      bounded.
//
//   4. Streaming catch-up availability: a rejoining node under a real
//      resync backlog must serve committed reads for already-resynced
//      partitions BEFORE it is fully alive (mid-resync reads > 0).
//
//   5. A restart-fault chaos soak: seeded schedules restricted to node
//      crash/restart, recovery storms (re-crashing nodes that are still
//      replaying) and grey-slow redo-log disks, full invariant check per
//      seed — including the bounded-redo-backlog invariant. Zero
//      acked-commit loss expected with group commit at the default flush
//      interval. The per-recovery timeline goes to recovery_timeline.csv
//      — the CI recovery-smoke artifact.
//
// The headline numbers land in $REPRO_CSV_DIR/BENCH_recovery.json (the
// layout is bench_report.h's) — sim-time quantities only, byte-identical
// across runs, except host.* (peak RSS + allocation totals), which is
// machine-dependent and informational. The soak runs 12 seeds, 40 under
// REPRO_FULL=1; REPRO_SEEDS=n overrides. With
// REPRO_BENCH_BASELINE set to the committed file, the seed-independent
// sections (recovery_time_vs_entries.*, loss_window.*,
// catchup_availability.*) must equal it bit for bit. Non-zero exit on any
// violated expectation.
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "prof/profiler.h"
#include "chaos/harness.h"
#include "metrics/timeseries.h"
#include "ndb/client.h"
#include "ndb/cluster.h"
#include "util/file.h"
#include "util/strings.h"

namespace repro::bench {
namespace {

// Bare NDB cluster + API node for the journal-level parts.
struct MicroCluster {
  explicit MicroCluster(ndb::NdbNodeConfig node_config = {}) {
    sim = std::make_unique<Simulation>(7);
    topology = std::make_unique<Topology>(3, AzLatencyTable::UsWest1());
    topology->set_jitter_fraction(0);
    network = std::make_unique<Network>(*sim, *topology);
    ndb::TableDef inodes;
    inodes.name = "inodes";
    inodes.part_key = ndb::PartKeyRule::kPrefixBeforeSlash;
    inodes.read_backup = true;
    table = catalog.AddTable(inodes);
    ndb::NdbClusterConfig config;
    config.layout.num_datanodes = 6;
    config.layout.replication_factor = 3;
    config.layout.node_az = ndb::AssignNodeAzs(6, 3, {0, 1, 2});
    config.layout.num_ldm_threads = 4;
    config.flags.az_aware = true;
    config.node = node_config;
    cluster = std::make_unique<ndb::NdbCluster>(*sim, *network, &catalog,
                                                config);
    cluster->StartProtocols();
    api = std::make_unique<ndb::NdbApiNode>(
        *cluster, topology->AddHost(0, "api-0"), 0);
  }

  bool InsertCommit(const ndb::Key& key, const std::string& value) {
    const ndb::TxnId txn = api->Begin(table, key);
    bool ok = false, done = false;
    api->Insert(txn, table, key, value, [&](Code c) {
      if (c != Code::kOk) {
        api->Abort(txn);
        done = true;
        return;
      }
      api->Commit(txn, [&](Code c2) {
        ok = (c2 == Code::kOk);
        done = true;
      });
    });
    Drive(done);
    return ok;
  }

  // Upsert variant (overwrites an existing key); returns the txn id via
  // *out_txn so callers can correlate with recovery drop reports.
  bool UpsertCommit(const ndb::Key& key, const std::string& value,
                    ndb::TxnId* out_txn = nullptr) {
    const ndb::TxnId txn = api->Begin(table, key);
    if (out_txn != nullptr) *out_txn = txn;
    bool ok = false, done = false;
    api->Write(txn, table, key, value, [&](Code c) {
      if (c != Code::kOk) {
        api->Abort(txn);
        done = true;
        return;
      }
      api->Commit(txn, [&](Code c2) {
        ok = (c2 == Code::kOk);
        done = true;
      });
    });
    Drive(done);
    return ok;
  }

  void Drive(bool& flag, Nanos limit = 60 * kSecond) {
    const Nanos deadline = sim->now() + limit;
    while (!flag && sim->now() < deadline && !sim->Empty()) {
      sim->RunUntil(sim->now() + kMillisecond);
    }
  }

  ndb::Catalog catalog;
  ndb::TableId table = 0;
  std::unique_ptr<Simulation> sim;
  std::unique_ptr<Topology> topology;
  std::unique_ptr<Network> network;
  std::unique_ptr<ndb::NdbCluster> cluster;
  std::unique_ptr<ndb::NdbApiNode> api;
};

// Crash node 0, restart it, drive to completion; returns the stats.
const ndb::NdbCluster::RecoveryStats* CrashAndRecover(MicroCluster& mc) {
  mc.cluster->CrashDatanode(0);
  mc.sim->RunFor(kMillisecond);
  bool served = false;
  mc.cluster->RestartDatanode(0, [&] { served = true; });
  mc.Drive(served);
  if (!served || mc.cluster->recovery_log().empty()) return nullptr;
  return &mc.cluster->recovery_log().back();
}

void PinnedEpisode(Report& out) {
  std::printf("--- pinned crash -> replay -> verify episode ---\n");
  MicroCluster mc;
  for (int i = 0; i < 120; ++i) {
    if (!mc.InsertCommit(StrFormat("%d/f", i), std::string(160, 'a'))) {
      out.Check(false, StrFormat("pinned episode: commit %d accepted", i));
      return;
    }
  }
  mc.sim->RunFor(kSecond);  // flush + checkpoint at the default cadence
  const uint64_t before = mc.cluster->datanode(0).DigestStore();
  const auto* rec = CrashAndRecover(mc);
  if (!out.Check(rec != nullptr && !rec->aborted,
                 "pinned episode: recovery completes")) {
    return;
  }
  const uint64_t after = mc.cluster->datanode(0).DigestStore();
  std::printf(
      "  crash at %.3fs\n"
      "  replay:  %lld entries, %lld log + %lld image bytes -> done %.3fs "
      "(%.1f ms)\n"
      "  resync:  %lld rows, %lld bytes, %lld deletes from a group peer\n"
      "  serving: %.3fs (total %.1f ms, %d attempt(s))\n",
      ToSeconds(rec->started), static_cast<long long>(rec->replay_entries),
      static_cast<long long>(rec->replay_log_bytes),
      static_cast<long long>(rec->replay_image_bytes),
      ToSeconds(rec->replay_done),
      (rec->replay_done - rec->started) / 1e6,
      static_cast<long long>(rec->resync_rows),
      static_cast<long long>(rec->resync_bytes),
      static_cast<long long>(rec->resync_deletes), ToSeconds(rec->serving_at),
      (rec->serving_at - rec->started) / 1e6, rec->attempts);
  std::printf("  replay determinism: %s; durable-prefix coverage: %s; "
              "row image %s\n",
              rec->replay_deterministic ? "ok" : "VIOLATED",
              rec->replay_covered ? "ok" : "VIOLATED",
              after == before ? "byte-identical" : "DIVERGED");
  out.Check(rec->replay_deterministic && rec->replay_covered &&
                after == before,
            "pinned episode: deterministic replay of the durable prefix "
            "restores a byte-identical row image");
}

void ScalingCurve(Report& out) {
  std::printf("\n--- recovery time vs log size (no LCP) ---\n");
  const int kCommits[] = {50, 100, 200, 400};
  std::vector<double> col_commits, col_entries, col_log_bytes, col_replay_ms,
      col_total_ms;
  for (const int commits : kCommits) {
    ndb::NdbNodeConfig node;
    node.lcp_interval = 1000 * kSecond;  // whole log must replay
    MicroCluster mc(node);
    for (int i = 0; i < commits; ++i) {
      if (!mc.InsertCommit(StrFormat("%d/f", i), std::string(160, 'b'))) {
        out.Check(false, StrFormat("scaling: commit %d accepted", i));
        return;
      }
    }
    mc.sim->RunFor(kSecond);
    const auto* rec = CrashAndRecover(mc);
    if (rec == nullptr || rec->aborted) {
      out.Check(false, StrFormat("scaling: recovery at %d commits completes",
                                 commits));
      return;
    }
    const double replay_ms = (rec->replay_done - rec->started) / 1e6;
    const double total_ms = (rec->serving_at - rec->started) / 1e6;
    std::printf("  %4d commits: %5lld entries %8lld log bytes -> replay "
                "%7.2f ms, serving %7.2f ms\n",
                commits, static_cast<long long>(rec->replay_entries),
                static_cast<long long>(rec->replay_log_bytes), replay_ms,
                total_ms);
    col_commits.push_back(commits);
    col_entries.push_back(static_cast<double>(rec->replay_entries));
    col_log_bytes.push_back(static_cast<double>(rec->replay_log_bytes));
    col_replay_ms.push_back(replay_ms);
    col_total_ms.push_back(total_ms);
    const std::string key = StrFormat("recovery_time_vs_entries.%d.", commits);
    out.Value(key + "replay_entries",
              static_cast<double>(rec->replay_entries));
    out.Value(key + "replay_ms", replay_ms);
    out.Value(key + "total_ms", total_ms);
  }
  WriteFile(metrics::CsvDir() + "/recovery_scaling.csv",
            metrics::CsvText({{"commits", col_commits},
                              {"replay_entries", col_entries},
                              {"replay_log_bytes", col_log_bytes},
                              {"replay_ms", col_replay_ms},
                              {"total_ms", col_total_ms}}));

  // Linearity: predict every interior point from the line through the
  // endpoints; replay cost is per-entry CPU + per-byte disk.
  const size_t last = col_entries.size() - 1;
  const double slope = (col_replay_ms[last] - col_replay_ms[0]) /
                       (col_entries[last] - col_entries[0]);
  double worst = 0;
  for (size_t i = 1; i < last; ++i) {
    const double predicted =
        col_replay_ms[0] + slope * (col_entries[i] - col_entries[0]);
    worst = std::max(worst, std::fabs(predicted - col_replay_ms[i]) /
                                col_replay_ms[i]);
  }
  std::printf("  linear fit through endpoints: max interior residual %.1f%% "
              "(must be < 20%%)\n",
              100 * worst);
  out.Check(worst < 0.2, "scaling: recovery time is linear in the log size");
}

void LossWindow(Report& out) {
  std::printf("\n--- durability loss window (cluster crash after a commit "
              "burst) ---\n");
  MicroCluster mc;
  std::vector<std::pair<ndb::TxnId, Nanos>> acked;  // txn -> ack time
  for (int i = 0; i < 200; ++i) {
    ndb::TxnId txn = 0;
    if (!mc.UpsertCommit(StrFormat("%d/f", i), std::string(160, 'c'), &txn)) {
      out.Check(false, StrFormat("loss window: commit %d accepted", i));
      return;
    }
    acked.emplace_back(txn, mc.sim->now());
    // Pace the burst across several GCP epochs so the head of it is
    // durable by the crash and only the tail falls past the cut.
    mc.sim->RunFor(20 * kMillisecond);
  }
  // Crash the whole cluster immediately: the freshest commits cannot be
  // durable yet, but the cut is transaction-exact and the loss is bounded
  // by the flush + GCP cadence (plus epoch-close slack).
  const Nanos crash_at = mc.sim->now();
  const auto report = mc.cluster->RecoverFromCheckpoint();
  const double loss_ms = report.loss_window / 1e6;
  const ndb::NdbNodeConfig defaults;
  const double bound_ms =
      (defaults.redo_flush_interval + 2 * defaults.gcp_interval) / 1e6 + 500;
  // Cross-check: every acked commit older than the loss window survived.
  int64_t old_lost = 0;
  for (const auto& [txn, at] : acked) {
    for (const ndb::TxnId dropped : report.dropped_txns) {
      if (txn == dropped && crash_at - at > report.loss_window) ++old_lost;
    }
  }
  std::printf(
      "  cut epoch %lld: %lld of %zu acked commits dropped, oldest loss "
      "%.1f ms before the crash (bound %.0f ms)\n"
      "  commits older than the window lost: %lld (must be 0); replay "
      "determinism: %s\n",
      static_cast<long long>(report.epoch),
      static_cast<long long>(report.dropped_commits), acked.size(), loss_ms,
      bound_ms, static_cast<long long>(old_lost),
      report.replay_deterministic ? "ok" : "VIOLATED");
  out.Value("loss_window.acked_commits", static_cast<double>(acked.size()));
  out.Value("loss_window.dropped_commits",
            static_cast<double>(report.dropped_commits));
  out.Value("loss_window.loss_window_ms", loss_ms);
  out.Value("loss_window.bound_ms", bound_ms);
  out.Check(loss_ms <= bound_ms && old_lost == 0 &&
                report.replay_deterministic,
            "loss window: bounded, nothing older lost, replay deterministic");
}

void CatchupAvailability(Report& out) {
  std::printf("\n--- streaming catch-up: reads served mid-resync ---\n");
  ndb::NdbNodeConfig node;
  node.lcp_interval = 1000 * kSecond;  // big replay + big adopted image
  MicroCluster mc(node);
  auto& layout = mc.cluster->layout();
  std::vector<std::string> mine;  // keys node 0 replicates
  for (int i = 0; i < 400; ++i) {
    const std::string key = StrFormat("%d/f", i);
    if (!mc.InsertCommit(key, std::string(2048, 'd'))) {
      out.Check(false, "catch-up: load commit " + key + " accepted");
      return;
    }
    for (ndb::NodeId r :
         layout.ReplicaChain(layout.PartitionOf(mc.table, key))) {
      if (r == 0) {
        mine.push_back(key);
        break;
      }
    }
  }
  mc.sim->RunFor(kSecond);
  mc.cluster->CrashDatanode(0);
  while (layout.alive(0) && !mc.sim->Empty()) {
    mc.sim->RunFor(10 * kMillisecond);
  }
  // Writes while the node is down give every partition real resync work.
  for (size_t i = 0; i < mine.size(); i += 3) {
    if (!mc.UpsertCommit(mine[i], std::string(2048, 'e'))) {
      out.Check(false, "catch-up: delta commit " + mine[i] + " accepted");
      return;
    }
  }
  bool served = false;
  mc.cluster->RestartDatanode(0, [&] { served = true; });
  // Hammer committed reads of node-0 keys while it recovers; AZ-aware
  // routing prefers the rejoining AZ-0 replica as soon as a partition
  // turns catch-up-ready.
  int64_t reads_ok = 0;
  size_t rr = 0;
  auto timer = mc.sim->Every(200 * kMicrosecond, [&] {
    if (served) return;
    const std::string& key = mine[rr++ % mine.size()];
    const ndb::TxnId txn = mc.api->BeginNoHint();
    if (txn == 0) return;
    mc.api->Read(txn, mc.table, key, ndb::LockMode::kReadCommitted,
                 [&, txn](Code c, std::optional<std::string>) {
                   if (c == Code::kOk) ++reads_ok;
                   mc.api->Abort(txn);
                 });
  });
  mc.Drive(served);
  timer.Cancel();
  if (!out.Check(served && !mc.cluster->recovery_log().empty(),
                 "catch-up: rejoin completes")) {
    return;
  }
  const auto& rec = mc.cluster->recovery_log().back();
  const double recovery_ms = (rec.serving_at - rec.started) / 1e6;
  std::printf(
      "  rejoin: %d partitions streamed, serving after %.1f ms\n"
      "  reads completed during the rejoin: %lld; served BY the rejoining "
      "node mid-resync: %lld (must be > 0)\n",
      rec.streamed_parts, recovery_ms, static_cast<long long>(reads_ok),
      static_cast<long long>(rec.catchup_reads));
  out.Value("catchup_availability.streamed_parts", rec.streamed_parts);
  out.Value("catchup_availability.reads_during_rejoin",
            static_cast<double>(reads_ok));
  out.Value("catchup_availability.catchup_reads",
            static_cast<double>(rec.catchup_reads));
  out.Value("catchup_availability.rejoin_ms", recovery_ms);
  out.Check(!rec.aborted && rec.streamed_parts > 0 && rec.catchup_reads > 0,
            "catch-up: the rejoining node serves reads mid-resync");
}

void RestartSoak(Report& out) {
  const int seeds = SeedCount(12);
  std::printf("\n--- restart-fault soak: %d seeds, crash/restart + "
              "recovery storms ---\n\n",
              seeds);
  int violations = 0;
  int64_t total_recoveries = 0, total_served = 0, total_evicted = 0;
  std::vector<double> col_seed, col_node, col_started, col_replay_done,
      col_serving, col_entries, col_resync_bytes, col_attempts, col_aborted,
      col_streamed, col_catchup;
  for (int i = 0; i < seeds; ++i) {
    chaos::ChaosOptions opts;
    opts.seed = 9000 + i;
    // Restart-focused schedules: node crashes (heal = restart) and
    // recovery storms only, so every episode exercises the recovery
    // state machine rather than partitions or grey failures.
    opts.faults.enable_az_outage = false;
    opts.faults.enable_partition = false;
    opts.faults.enable_latency_inflation = false;
    opts.faults.enable_message_drop = false;
    opts.faults.enable_grey_node = false;
    opts.faults.enable_recovery_storm = true;
    // Grey-slow redo-log disks: the flush path saturates, commit
    // backpressure must keep the unflushed backlog bounded (checked by
    // the redo-backlog invariant) while restarts storm around it.
    opts.faults.enable_log_disk_slow = true;
    chaos::ChaosReport report = chaos::RunChaosSchedule(opts);
    int64_t served = 0;
    for (const auto& rec : report.recoveries) {
      if (rec.serving_at >= 0) ++served;
    }
    total_served += served;
    if (!report.invariants_ok()) {
      ++violations;
      std::printf("%s\n", report.Scorecard().c_str());
    } else {
      std::printf("seed %llu: ok — %zu recover(ies), %lld served, "
                  "%lld acked writes, zero lost\n",
                  static_cast<unsigned long long>(opts.seed),
                  report.recoveries.size(), static_cast<long long>(served),
                  static_cast<long long>(report.acked_writes));
    }
    for (const auto& rec : report.recoveries) {
      col_seed.push_back(static_cast<double>(opts.seed));
      col_node.push_back(rec.node);
      col_started.push_back(ToSeconds(rec.started));
      col_replay_done.push_back(
          rec.replay_done >= 0 ? ToSeconds(rec.replay_done) : -1);
      col_serving.push_back(
          rec.serving_at >= 0 ? ToSeconds(rec.serving_at) : -1);
      col_entries.push_back(static_cast<double>(rec.replay_entries));
      col_resync_bytes.push_back(static_cast<double>(rec.resync_bytes));
      col_attempts.push_back(rec.attempts);
      col_aborted.push_back(rec.aborted ? 1 : 0);
      col_streamed.push_back(rec.streamed_parts);
      col_catchup.push_back(static_cast<double>(rec.catchup_reads));
    }
    total_recoveries += static_cast<int64_t>(report.recoveries.size());
    total_evicted += report.recoveries_dropped;
  }
  WriteFile(metrics::CsvDir() + "/recovery_timeline.csv",
            metrics::CsvText({{"seed", col_seed},
                              {"node", col_node},
                              {"started_s", col_started},
                              {"replay_done_s", col_replay_done},
                              {"serving_s", col_serving},
                              {"replay_entries", col_entries},
                              {"resync_bytes", col_resync_bytes},
                              {"attempts", col_attempts},
                              {"aborted", col_aborted},
                              {"streamed_parts", col_streamed},
                              {"catchup_reads", col_catchup}}));
  std::printf("\nrecovery timeline: %zu recoveries -> %s/recovery_timeline"
              ".csv\n",
              col_seed.size(), metrics::CsvDir().c_str());
  out.Check(violations == 0, "restart soak: every seed holds every invariant");
  out.Value("restart_soak.seeds", seeds);
  out.Value("restart_soak.recoveries", static_cast<double>(total_recoveries));
  out.Value("restart_soak.served", static_cast<double>(total_served));
  out.Value("restart_soak.ring_evictions", static_cast<double>(total_evicted));
  out.Value("restart_soak.invariant_violations", violations);
}

int Main(int argc, char** argv) {
  RejectArguments(argc, argv);
  PrintHeader("NDB crash recovery: redo replay, checkpoints, restart soak",
              "robustness harness; no single paper figure");
  // Count heap traffic for the host.* values. Host-side only: the
  // sim-time numbers stay byte-identical with counting on or off.
  prof::SetAllocCounting(true);
  Report out("recovery");
  PinnedEpisode(out);
  ScalingCurve(out);
  LossWindow(out);
  CatchupAvailability(out);
  RestartSoak(out);
  out.Value("host.peak_rss_mb", PeakRssMb());
  const prof::AllocTotals allocs = prof::TotalAllocs();
  out.Value("host.total_allocs", static_cast<double>(allocs.count));
  out.Value("host.total_alloc_mb",
            static_cast<double>(allocs.bytes) / (1024.0 * 1024.0));
  if (out.has_baseline()) {
    for (const char* section : {"recovery_time_vs_entries.", "loss_window.",
                                "catchup_availability."}) {
      out.Check(out.MatchesBaseline(section),
                StrFormat("%s* equal the baseline", section));
    }
  }
  return out.Finish();
}

}  // namespace
}  // namespace repro::bench

int main(int argc, char** argv) { return repro::bench::Main(argc, argv); }
