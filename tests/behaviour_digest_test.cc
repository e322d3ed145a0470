// Behaviour digests: pinned scenarios whose sim-visible output is hashed
// and compared with tests/behaviour_digests.txt. Each digest covers the
// engine events dispatched, the per-op latency histograms, the bytes on
// every directed AZ pair and the number of simulation-RNG draws, plus the
// scenario's own results (chaos trace, recovery timeline, row images).
// The schedule digests pin the engine's dispatch order on randomized
// timer schedules.
// A refactor that claims to leave the model unchanged must leave every
// digest unchanged; a deliberate model change regenerates the file with
//
//   REPRO_UPDATE_DIGESTS=1 ctest -R BehaviourDigest
//
// and says why in the change description.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "cephfs_bench_common.h"
#include "chaos/harness.h"
#include "hopsfs/deployment.h"
#include "hopsfs_test_util.h"
#include "ndb/client.h"
#include "ndb/cluster.h"
#include "prof/profiler.h"
#include "util/strings.h"
#include "workload/driver.h"
#include "workload/fs_interface.h"
#include "workload/spotify.h"

#ifndef REPRO_DIGEST_FILE
#error "REPRO_DIGEST_FILE must name the committed digest file"
#endif

namespace repro {
namespace {

// Canonical text form of a scenario's observable output; the digest is
// its FNV-1a hash. The text itself is printed on a mismatch so a diff
// between two builds shows which quantity moved.
class Fingerprint {
 public:
  void Add(const std::string& key, int64_t v) {
    text_ << key << '=' << v << '\n';
  }
  void AddText(const std::string& key, const std::string& v) {
    text_ << key << "=[" << v << "]\n";
  }
  void AddHistogram(const std::string& key, const Histogram& h) {
    text_ << key << ": n=" << h.count() << " sum=" << h.sum()
          << " min=" << h.min() << " max=" << h.max() << " buckets=";
    const auto& b = h.buckets();
    for (size_t i = 0; i < b.size(); ++i) {
      if (b[i] != 0) text_ << i << ':' << b[i] << ',';
    }
    text_ << '\n';
  }
  void AddOps(const std::map<hopsfs::FsOp, Histogram>& per_op) {
    for (const auto& [op, h] : per_op) {
      AddHistogram(StrFormat("latency.%s", hopsfs::FsOpName(op)), h);
    }
  }
  void AddAzPairs(const std::vector<int64_t>& bytes) {
    text_ << "az_pair_bytes=";
    for (int64_t b : bytes) text_ << b << ',';
    text_ << '\n';
  }
  void AddSim(Simulation& sim) {
    Add("events_dispatched", static_cast<int64_t>(sim.events_processed()));
    Add("rng_draws", static_cast<int64_t>(sim.rng().draws()));
  }
  void AddNetwork(Network& net) {
    std::vector<int64_t> bytes;
    const int azs = net.topology().num_azs();
    for (AzId a = 0; a < azs; ++a) {
      for (AzId b = 0; b < azs; ++b) bytes.push_back(net.az_pair_bytes(a, b));
    }
    AddAzPairs(bytes);
  }

  std::string text() const { return text_.str(); }
  std::string Digest() const {
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : text_.str()) {
      h ^= c;
      h *= 1099511628211ull;
    }
    return StrFormat("%016llx", static_cast<unsigned long long>(h));
  }

 private:
  std::ostringstream text_;
};

// ---- the committed digest file -------------------------------------------

std::map<std::string, std::string> ReadDigests() {
  std::map<std::string, std::string> out;
  std::ifstream in(REPRO_DIGEST_FILE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, digest;
    if (fields >> name >> digest) out[name] = digest;
  }
  return out;
}

bool UpdateMode() {
  const char* env = std::getenv("REPRO_UPDATE_DIGESTS");
  return env != nullptr && std::string(env) == "1";
}

void WriteDigest(const std::string& name, const std::string& digest) {
  std::map<std::string, std::string> all = ReadDigests();
  all[name] = digest;
  std::ofstream out(REPRO_DIGEST_FILE, std::ios::trunc);
  out << "# Behaviour digests of tests/behaviour_digest_test.cc.\n"
         "# Regenerate: REPRO_UPDATE_DIGESTS=1 ctest -R BehaviourDigest\n";
  for (const auto& [n, d] : all) out << n << ' ' << d << '\n';
}

void ExpectDigest(const std::string& name, const Fingerprint& fp) {
  const std::string digest = fp.Digest();
  if (UpdateMode()) {
    WriteDigest(name, digest);
    return;
  }
  const auto all = ReadDigests();
  const auto it = all.find(name);
  ASSERT_NE(it, all.end()) << "no committed digest for " << name
                           << "; run with REPRO_UPDATE_DIGESTS=1";
  EXPECT_EQ(it->second, digest)
      << name << " changed behaviour. Fingerprint:\n"
      << fp.text();
}

// ---- scenarios -------------------------------------------------------------

// Writes only, on unique paths spread over the namespace's directories:
// mkdirs and creates, then renames and deletes of the client's own files,
// so every op of the mix succeeds.
workload::SpotifyWorkload::Op NextWrite(Rng& rng,
                                        std::vector<std::string>& owned,
                                        const std::vector<std::string>& dirs,
                                        int64_t& counter) {
  using Op = workload::SpotifyWorkload::Op;
  const uint64_t pick = rng.NextBelow(4);
  const std::string fresh =
      StrFormat("%s/n%lld", dirs[rng.NextBelow(dirs.size())].c_str(),
                static_cast<long long>(counter++));
  if (pick == 2 && !owned.empty()) {
    const std::string from = owned.back();
    owned.back() = fresh;
    return Op{hopsfs::FsOp::kRename, from, fresh, 0};
  }
  if (pick == 3 && !owned.empty()) {
    const std::string victim = owned.back();
    owned.pop_back();
    return Op{hopsfs::FsOp::kDelete, victim, "", 0};
  }
  if (pick == 0) return Op{hopsfs::FsOp::kMkdir, fresh, "", 0};
  owned.push_back(fresh);
  return Op{hopsfs::FsOp::kCreate, fresh, "", 0};
}

// A short closed-loop run on HopsFS-CL (3,3) with 3 namenodes.
Fingerprint RunClosedLoop(bool writes_only) {
  Simulation sim(writes_only ? 23 : 11);
  hopsfs::Deployment dep(
      sim, hopsfs::DeploymentOptions::FromPaperSetup(
               hopsfs::PaperSetup::kHopsFsCl_3_3, 3));
  dep.Start();
  workload::NamespaceConfig ns;
  ns.users = 32;
  workload::SpotifyWorkload wl(ns, 5);
  const std::vector<std::string>& dirs = wl.all_dirs();
  dep.BootstrapNamespace(dirs, wl.all_files());

  std::vector<std::unique_ptr<workload::HopsFsTarget>> targets;
  std::vector<workload::FsTarget*> ptrs;
  for (int i = 0; i < 24; ++i) {
    targets.push_back(
        std::make_unique<workload::HopsFsTarget>(dep.AddClient()));
    ptrs.push_back(targets.back().get());
  }
  sim.RunFor(Seconds(2));

  int64_t counter = 0;
  workload::ClosedLoopDriver driver(
      sim, ptrs,
      [&](Rng& rng, std::vector<std::string>& owned) {
        return writes_only ? NextWrite(rng, owned, dirs, counter)
                           : wl.Next(rng, owned);
      });
  const workload::DriverResults res = driver.Run(Millis(150), Millis(400));

  Fingerprint fp;
  fp.AddSim(sim);
  fp.AddNetwork(dep.network());
  fp.Add("completed", res.completed);
  fp.Add("failed", res.failed);
  fp.AddHistogram("latency.all", res.all);
  fp.AddOps(res.per_op);
  return fp;
}

TEST(BehaviourDigest, SpotifyMixThreeNamenodes) {
  ExpectDigest("spotify_3nn", RunClosedLoop(/*writes_only=*/false));
}

TEST(BehaviourDigest, WritesOnly) {
  ExpectDigest("writes_only", RunClosedLoop(/*writes_only=*/true));
}

// The allocation-site sampler backtraces inside operator new and touches
// no simulation state: the writes-only digest holds with it on.
TEST(BehaviourDigest, WritesOnlyWithAllocSamplerOn) {
  prof::SetAllocSampleEvery(7);
  prof::ResetAllocSamples();
  prof::SetAllocCounting(true);
  const Fingerprint fp = RunClosedLoop(/*writes_only=*/true);
  prof::SetAllocCounting(false);
  const size_t samples = prof::AllocSampleCount();
  prof::SetAllocSampleEvery(0);
  prof::ResetAllocSamples();
  EXPECT_GT(samples, 1000u);
  ExpectDigest("writes_only", fp);
}

// The pinned crash -> replay -> resync -> serve episode on a bare NDB
// cluster (6 datanodes, replication 3 over 3 AZs).
TEST(BehaviourDigest, RecoveryEpisode) {
  Simulation sim(7);
  Topology topology(3, AzLatencyTable::UsWest1());
  topology.set_jitter_fraction(0);
  Network network(sim, topology);
  ndb::Catalog catalog;
  ndb::TableDef inodes;
  inodes.name = "inodes";
  inodes.part_key = ndb::PartKeyRule::kPrefixBeforeSlash;
  inodes.read_backup = true;
  const ndb::TableId table = catalog.AddTable(inodes);
  ndb::NdbClusterConfig config;
  config.layout.num_datanodes = 6;
  config.layout.replication_factor = 3;
  config.layout.node_az = ndb::AssignNodeAzs(6, 3, {0, 1, 2});
  config.layout.num_ldm_threads = 4;
  config.flags.az_aware = true;
  ndb::NdbCluster cluster(sim, network, &catalog, config);
  cluster.StartProtocols();
  ndb::NdbApiNode api(cluster, topology.AddHost(0, "api-0"), 0);

  const auto drive = [&sim](const bool& flag) {
    const Nanos deadline = sim.now() + 60 * kSecond;
    while (!flag && sim.now() < deadline && !sim.Empty()) {
      sim.RunUntil(sim.now() + kMillisecond);
    }
  };
  Histogram commit_latency;
  int64_t committed = 0;
  for (int i = 0; i < 60; ++i) {
    const ndb::Key key = StrFormat("%d/f", i);
    const Nanos start = sim.now();
    const ndb::TxnId txn = api.Begin(table, key);
    bool done = false;
    api.Insert(txn, table, key, ndb::RowImage::Filled(160, 'a'), [&](Code c) {
      if (c != Code::kOk) {
        api.Abort(txn);
        done = true;
        return;
      }
      api.Commit(txn, [&](Code c2) {
        if (c2 == Code::kOk) ++committed;
        done = true;
      });
    });
    drive(done);
    commit_latency.Record(sim.now() - start);
  }
  sim.RunFor(kSecond);
  const uint64_t before = cluster.datanode(0).DigestStore();
  cluster.CrashDatanode(0);
  sim.RunFor(kMillisecond);
  bool served = false;
  cluster.RestartDatanode(0, [&] { served = true; });
  drive(served);
  ASSERT_TRUE(served);
  ASSERT_FALSE(cluster.recovery_log().empty());
  const auto& rec = cluster.recovery_log().back();

  Fingerprint fp;
  fp.AddSim(sim);
  fp.AddNetwork(network);
  fp.Add("committed", committed);
  fp.AddHistogram("latency.insert_commit", commit_latency);
  fp.Add("store_before", static_cast<int64_t>(before));
  fp.Add("store_after",
         static_cast<int64_t>(cluster.datanode(0).DigestStore()));
  fp.Add("started", rec.started);
  fp.Add("replay_done", rec.replay_done);
  fp.Add("serving_at", rec.serving_at);
  fp.Add("replay_entries", rec.replay_entries);
  fp.Add("replay_log_bytes", rec.replay_log_bytes);
  fp.Add("replay_image_bytes", rec.replay_image_bytes);
  fp.Add("resync_rows", rec.resync_rows);
  fp.Add("resync_bytes", rec.resync_bytes);
  fp.Add("streamed_parts", rec.streamed_parts);
  fp.Add("replay_digest", static_cast<int64_t>(rec.replay_digest));
  ExpectDigest("recovery_episode", fp);
}

Fingerprint ChaosFingerprint(const chaos::ChaosReport& r) {
  Fingerprint fp;
  fp.Add("events_dispatched", static_cast<int64_t>(r.events_dispatched));
  fp.Add("rng_draws", static_cast<int64_t>(r.rng_draws));
  fp.AddAzPairs(r.az_pair_bytes);
  fp.AddOps(r.latency_by_op);
  fp.AddText("trace", r.TraceString());
  fp.Add("completed", r.completed);
  fp.Add("failed", r.failed);
  fp.Add("acked_writes", r.acked_writes);
  fp.Add("messages_dropped", r.messages_dropped);
  for (const auto& [code, n] : r.errors_by_code) {
    fp.Add(StrFormat("errors.%d", static_cast<int>(code)), n);
  }
  for (const auto& rec : r.recoveries) {
    fp.Add(StrFormat("recovery.%d.serving_at", rec.node), rec.serving_at);
    fp.Add(StrFormat("recovery.%d.resync_rows", rec.node), rec.resync_rows);
  }
  return fp;
}

chaos::ChaosOptions ShortChaos(uint64_t seed) {
  chaos::ChaosOptions opts;
  opts.seed = seed;
  opts.deployment.num_namenodes = 3;
  opts.workload_clients = 6;
  opts.ns.users = 32;
  opts.warmup = 1 * kSecond;
  opts.fault_window = 3 * kSecond;
  opts.settle = 2 * kSecond;
  opts.deployment.client.rpc_timeout = 250 * kMillisecond;
  opts.deployment.client.op_deadline = 1 * kSecond;
  return opts;
}

TEST(BehaviourDigest, ChaosSeeds) {
  for (uint64_t seed : {3u, 17u, 101u}) {
    const chaos::ChaosReport r = chaos::RunChaosSchedule(ShortChaos(seed));
    ExpectDigest(StrFormat("chaos_seed_%llu",
                           static_cast<unsigned long long>(seed)),
                 ChaosFingerprint(r));
  }
}

// The overload episode at test scale: an open-loop surge past the three
// namenodes' capacity, then a single-AZ outage and its restore.
TEST(BehaviourDigest, OverloadSurgeEpisode) {
  chaos::ChaosOptions opts = ShortChaos(777);
  chaos::FaultSchedule schedule;
  schedule.Add({opts.warmup + 200 * kMillisecond,
                chaos::FaultType::kOpenLoopSurge, 120000, -1, 1.0});
  schedule.Add({opts.warmup + 1200 * kMillisecond,
                chaos::FaultType::kOpenLoopSurgeStop, -1, -1, 1.0});
  schedule.Add({opts.warmup + 1500 * kMillisecond,
                chaos::FaultType::kAzOutage, 2, -1, 1.0});
  schedule.Add({opts.warmup + 2200 * kMillisecond,
                chaos::FaultType::kAzRestore, 2, -1, 1.0});
  const chaos::ChaosReport r = chaos::RunChaosSchedule(opts, schedule);
  ExpectDigest("overload_surge", ChaosFingerprint(r));
}

// Every FsOp once or more, run one at a time on a cluster with block
// datanodes: attribute changes, inline append and an append across the
// small-file threshold, du, rmr of an inline-only subtree, ls of a file,
// a permission denial, a non-empty directory delete, a cross-directory
// rename, and a multi-block create and read through the client's block
// loop. None of the benchmark workloads run most of these ops.
TEST(BehaviourDigest, AllFsOps) {
  using hopsfs::FsOp;
  hopsfs::testing::TestFs fs(hopsfs::PaperSetup::kHopsFsCl_3_3, 3,
                             /*block_dns=*/6);
  Fingerprint fp;
  int step = 0;
  const auto run = [&](FsOp op, const std::string& path,
                       const std::string& path2 = "", int64_t size = 0) {
    hopsfs::FsRequest req;
    req.op = op;
    req.path = path;
    req.path2 = path2;
    req.size = size;
    if (op == FsOp::kMkdir) req.permissions = 0755;
    if (op == FsOp::kChmod) req.permissions = 0750;
    if (op == FsOp::kChown) req.owner = "alice";
    if (op == FsOp::kSetTimes) req.mtime_ns = Seconds(1234);
    const Nanos start = fs.sim->now();
    Nanos end = start;
    hopsfs::FsResult r;
    r.status = Internal("never completed");
    fs.client->Submit(std::move(req), [&](hopsfs::FsResult res) {
      r = std::move(res);
      end = fs.sim->now();
    });
    while (end == start && fs.sim->now() < start + 30 * kSecond) {
      fs.sim->RunUntil(fs.sim->now() + kMillisecond);
    }
    fp.AddText(StrFormat("op.%02d", step++),
               StrFormat("%s %s code=%d lat=%lld size=%lld blocks=%zu/%zu "
                         "inline=%lld children=%zu cs=%lld/%lld/%lld",
                         hopsfs::FsOpName(op), path.c_str(),
                         static_cast<int>(r.status.code()),
                         static_cast<long long>(end - start),
                         static_cast<long long>(r.inode.size),
                         r.blocks.size(), r.new_blocks.size(),
                         static_cast<long long>(r.inline_bytes),
                         r.children.size(),
                         static_cast<long long>(r.cs_files),
                         static_cast<long long>(r.cs_dirs),
                         static_cast<long long>(r.cs_bytes)));
    return r.status.code();
  };
  constexpr int64_t kMb = 1 << 20;
  EXPECT_EQ(run(FsOp::kMkdir, "/a"), Code::kOk);
  EXPECT_EQ(run(FsOp::kMkdir, "/a/b"), Code::kOk);
  EXPECT_EQ(run(FsOp::kMkdir, "/c"), Code::kOk);
  EXPECT_EQ(run(FsOp::kCreate, "/a/f1", "", 1000), Code::kOk);
  EXPECT_EQ(run(FsOp::kCreate, "/a/b/g", "", 2000), Code::kOk);
  EXPECT_EQ(run(FsOp::kCreate, "/a/b/h"), Code::kOk);
  EXPECT_EQ(run(FsOp::kChmod, "/a/b"), Code::kOk);
  EXPECT_EQ(run(FsOp::kChown, "/a/f1"), Code::kOk);
  EXPECT_EQ(run(FsOp::kSetTimes, "/a/f1"), Code::kOk);
  EXPECT_EQ(run(FsOp::kAppend, "/a/f1", "", 3000), Code::kOk);
  EXPECT_EQ(run(FsOp::kCreate, "/a/f2", "", 100 << 10), Code::kOk);
  EXPECT_EQ(run(FsOp::kAppend, "/a/f2", "", 40 << 10), Code::kOk);
  EXPECT_EQ(run(FsOp::kStat, "/a/f1"), Code::kOk);
  EXPECT_EQ(run(FsOp::kOpenRead, "/a/f1"), Code::kOk);
  EXPECT_EQ(run(FsOp::kOpenRead, "/a/f2"), Code::kOk);
  EXPECT_EQ(run(FsOp::kListDir, "/a"), Code::kOk);
  EXPECT_EQ(run(FsOp::kListDir, "/a/f1"), Code::kOk);
  EXPECT_EQ(run(FsOp::kContentSummary, "/a"), Code::kOk);
  EXPECT_EQ(run(FsOp::kContentSummary, "/a/f2"), Code::kOk);
  EXPECT_EQ(run(FsOp::kCreate, "/c/big", "", 130 * kMb), Code::kOk);
  EXPECT_EQ(run(FsOp::kOpenRead, "/c/big"), Code::kOk);
  EXPECT_EQ(run(FsOp::kRename, "/a/f1", "/c/f1"), Code::kOk);
  EXPECT_EQ(run(FsOp::kDelete, "/a"), Code::kFailedPrecondition);
  fs.client->set_user("bob");
  EXPECT_EQ(run(FsOp::kCreate, "/a/x"), Code::kPermissionDenied);
  EXPECT_EQ(run(FsOp::kChmod, "/c/f1"), Code::kPermissionDenied);
  fs.client->set_user("");
  EXPECT_EQ(run(FsOp::kDeleteRecursive, "/a/b"), Code::kOk);
  EXPECT_EQ(run(FsOp::kDelete, "/c/big"), Code::kOk);
  EXPECT_EQ(run(FsOp::kStat, "/a/b/g"), Code::kNotFound);
  EXPECT_EQ(run(FsOp::kListDir, "/c"), Code::kOk);
  fs.sim->RunFor(Seconds(1));
  fp.AddSim(*fs.sim);
  fp.AddNetwork(fs.deployment->network());
  ndb::NdbCluster& ndb = fs.deployment->ndb();
  for (int n = 0; n < ndb.num_datanodes(); ++n) {
    fp.Add(StrFormat("store.%d", n),
           static_cast<int64_t>(ndb.datanode(n).DigestStore()));
  }
  ExpectDigest("all_fs_ops", fp);
}

// One quick-scale Fig. 5 cell per setup family (one metadata server):
// the numbers bench_paper prints for the cell in Figs. 5, 6, 8 and 10,
// at the precision it prints them, plus the engine's event and RNG
// totals. These runs are the only digests of the NDB checkpoint and
// CephFS journal-flush ticks over a full Spotify window.
void AddFigureCell(Fingerprint& fp, const workload::DriverResults& r,
                   double per_server, double storage_cpu,
                   double server_cpu, uint64_t events, uint64_t draws) {
  fp.Add("events_dispatched", static_cast<int64_t>(events));
  fp.Add("rng_draws", static_cast<int64_t>(draws));
  fp.Add("completed", r.completed);
  fp.Add("failed", r.failed);
  fp.AddText("fig5", bench::Mops(r.ops_per_sec()));
  fp.AddText("fig6", StrFormat("%.0f", per_server));
  fp.AddText("fig8", StrFormat("%.2f", r.all.MeanMillis()));
  fp.AddText("fig10", StrFormat("%.1f %.1f", 100 * storage_cpu,
                                100 * server_cpu));
  fp.AddHistogram("latency.all", r.all);
}

Fingerprint HopsFigureCell(hopsfs::PaperSetup setup) {
  bench::RunConfig cfg;
  cfg.deployment = hopsfs::DeploymentOptions::FromPaperSetup(setup, 1);
  const bench::RunOutput o = bench::RunHopsFsWorkload(cfg);
  Fingerprint fp;
  AddFigureCell(fp, o.results, o.results.ops_per_sec() / o.num_namenodes,
                o.resources.ndb_cpu_util, o.resources.nn_cpu_util,
                o.events_dispatched, o.rng_draws);
  return fp;
}

TEST(BehaviourDigest, Fig5CellHopsFs33) {
  ExpectDigest("fig5_hopsfs_3_3",
               HopsFigureCell(hopsfs::PaperSetup::kHopsFs_3_3));
}

TEST(BehaviourDigest, Fig5CellHopsFsCl33) {
  ExpectDigest("fig5_hopsfs_cl_3_3",
               HopsFigureCell(hopsfs::PaperSetup::kHopsFsCl_3_3));
}

TEST(BehaviourDigest, Fig5CellCephFs) {
  bench::CephRunConfig cfg;
  cfg.num_mds = 1;
  const bench::CephRunOutput o = bench::RunCephWorkload(cfg);
  Fingerprint fp;
  // Fig. 6 counts the requests that reach the MDS, not the client ops
  // the kernel cache absorbs.
  AddFigureCell(fp, o.results,
                static_cast<double>(o.mds_handled_ops) /
                    ToSeconds(o.results.window) / o.num_mds,
                o.osd_cpu_util, o.mds_cpu_util, o.events_dispatched,
                o.rng_draws);
  ExpectDigest("fig5_cephfs", fp);
}

// ---- scheduler dispatch order -----------------------------------------------

// Drives the engine through a randomized At/After/Every/Cancel
// interleaving and records every firing as (id, time). All random draws
// come from a driver-local Rng: if the dispatch order ever changes, the
// stream diverges too and the recorded sequence moves loudly. A cancelled
// event that still fired would record itself and move it as well.
class RandomScheduleDriver {
 public:
  explicit RandomScheduleDriver(uint64_t seed) : rng_(seed) {}

  uint64_t events_processed() const { return sim_.events_processed(); }

  std::vector<std::pair<int, long long>> Run() {
    // Heartbeat-scale periodics. Coarse interval quantization forces
    // equal-timestamp ties between independent timers every revolution.
    for (int i = 0; i < 12; ++i) {
      const Nanos interval =
          Millis(static_cast<int64_t>(1 + rng_.NextBelow(20))) +
          Micros(static_cast<int64_t>(rng_.NextBelow(3)) * 500);
      AddPeriodic(1000 + i, interval);
    }
    // One-shot churn: roots that fan out into children with delays from
    // "same instant" ties up to several seconds (crossing wheel levels).
    for (int r = 0; r < 40; ++r) Spawn(3);
    // Cancel a third of the periodics at random times mid-run.
    for (size_t k = 0; k < handles_.size(); k += 3) {
      sim_.After(Millis(static_cast<int64_t>(100 + rng_.NextBelow(1800))),
                 [this, k] { handles_[k].Cancel(); });
    }
    // A periodic created mid-run (Every at now > 0), plus a far-future
    // straggler that must not disturb anything before it.
    sim_.After(Millis(500), [this] { AddPeriodic(2000, Millis(7)); });
    sim_.After(Seconds(30), [this] { Record(3000); });
    // Far-future one-shots (beyond the ~78 h level-3 horizon), some
    // cancelled.
    for (int k = 0; k < 6; ++k) Arm(Seconds(400000 + k), 1);

    sim_.RunUntil(Seconds(1));
    sim_.RunFor(Seconds(1));
    // Step one event at a time, as the open-loop drain, the chaos harness
    // and the invariant checker do, then stop inside a level-0 slot (2^16
    // ns wide) and arm fresh work from there.
    const size_t stepped = fired_.size() + 300;
    while (fired_.size() < stepped && sim_.RunOne()) {
    }
    sim_.RunUntil(sim_.now() + Micros(20));
    for (int r = 0; r < 5; ++r) Spawn(2);
    sim_.RunFor(Seconds(40));
    // Stop every periodic and drain the rest, far heap included.
    for (auto& h : handles_) h.Cancel();
    sim_.Run();
    return std::move(fired_);
  }

 private:
  void Record(int id) {
    fired_.push_back({id, static_cast<long long>(sim_.now())});
  }

  void AddPeriodic(int id, Nanos interval) {
    handles_.push_back(sim_.Every(interval, [this, id] { Record(id); }));
  }

  // Delay mix: ties at the same instant, sub-slot, slot-scale, and
  // beyond the level-0 horizon.
  Nanos RandomDelay() {
    switch (rng_.NextBelow(4)) {
      case 0: return 0;
      case 1: return Micros(static_cast<int64_t>(rng_.NextBelow(2000)));
      case 2: return Millis(static_cast<int64_t>(rng_.NextBelow(300)));
      default: return Millis(static_cast<int64_t>(rng_.NextBelow(5000)));
    }
  }

  void Spawn(int depth) { Arm(RandomDelay(), depth); }

  // Schedules one one-shot that records itself and fans out, and cancels
  // one in four of them after a random delay of its own: before it fires
  // (in the wheel, the sorted run, the spill heap or the far heap, by
  // where it waits by then) or after (a stale cancel).
  void Arm(Nanos delay, int depth) {
    const int id = next_id_++;
    timers_.push_back(sim_.After(delay, [this, id, depth] {
      Record(id);
      if (depth > 0) {
        const int fanout = static_cast<int>(rng_.NextBelow(3));
        for (int c = 0; c < fanout; ++c) Spawn(depth - 1);
      }
    }));
    if (rng_.NextBelow(4) != 0) return;
    const Nanos cancel_in = rng_.NextBelow(2) == 0 ? RandomDelay()
                                                   : delay / 2;
    sim_.After(cancel_in, [this, id] { sim_.Cancel(timers_[id]); });
  }

  Simulation sim_;
  Rng rng_;
  int next_id_ = 0;
  std::vector<Simulation::Timer> timers_;  // by one-shot id
  std::vector<std::pair<int, long long>> fired_;
  std::vector<Simulation::PeriodicHandle> handles_;
};

// The engine's dispatch order on six randomized schedules: the firing
// count, the events dispatched and an FNV-1a hash of the (id, time)
// firing sequence. The pinned values are the order the pre-wheel binary
// heap produced on the same schedules.
TEST(BehaviourDigest, RandomSchedules) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomScheduleDriver driver(seed);
    const auto fired = driver.Run();
    ASSERT_GT(fired.size(), 1000u)
        << "seed " << seed << " produced too little work to be a real test";
    uint64_t h = 1469598103934665603ull;
    for (const auto& [id, time] : fired) {
      for (uint64_t v : {static_cast<uint64_t>(id),
                         static_cast<uint64_t>(time)}) {
        for (int b = 0; b < 8; ++b) {
          h ^= (v >> (8 * b)) & 0xff;
          h *= 1099511628211ull;
        }
      }
    }
    Fingerprint fp;
    fp.Add("firings", static_cast<int64_t>(fired.size()));
    fp.Add("events_dispatched",
           static_cast<int64_t>(driver.events_processed()));
    fp.AddText("firing_sequence",
               StrFormat("%016llx", static_cast<unsigned long long>(h)));
    ExpectDigest(StrFormat("schedule_seed_%llu",
                           static_cast<unsigned long long>(seed)),
                 fp);
  }
}

}  // namespace
}  // namespace repro
