// Redo-journal and timed node-recovery tests: group-commit flush
// boundaries, LCP truncation, replay-to-exact-row-state equality, and
// recovery time scaling linearly with the replay work (log entries +
// bytes since the last local checkpoint).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "ndb/client.h"
#include "ndb/cluster.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "util/rng.h"
#include "util/strings.h"

namespace repro::ndb {
namespace {

// Like tests/ndb_test_util.h's TestCluster, but with the node config
// (flush cadence, LCP interval, segment size) under test control.
struct RecoveryCluster {
  explicit RecoveryCluster(NdbNodeConfig node_config = {}) {
    sim = std::make_unique<Simulation>(42);
    topology = std::make_unique<Topology>(3, AzLatencyTable::UsWest1());
    topology->set_jitter_fraction(0);
    network = std::make_unique<Network>(*sim, *topology);

    TableDef inodes;
    inodes.name = "inodes";
    inodes.part_key = PartKeyRule::kPrefixBeforeSlash;
    inodes.read_backup = true;
    table = catalog.AddTable(inodes);

    NdbClusterConfig config;
    config.layout.num_datanodes = 6;
    config.layout.replication_factor = 3;
    config.layout.node_az = AssignNodeAzs(6, 3, {0, 1, 2});
    config.layout.num_ldm_threads = 4;
    config.flags.az_aware = true;
    config.node = node_config;
    cluster = std::make_unique<NdbCluster>(*sim, *network, &catalog, config);
    cluster->StartProtocols();

    const HostId api_host = topology->AddHost(0, "api-0");
    api = std::make_unique<NdbApiNode>(*cluster, api_host, /*az=*/0);
  }

  Code InsertCommit(const Key& key, const std::string& value) {
    const TxnId txn = api->Begin(table, key);
    Code result = Code::kInternal;
    bool done = false;
    // Write (upsert) so re-running a key overwrites instead of failing.
    api->Write(txn, table, key, RowImage::Of(value), [&](Code c) {
      if (c != Code::kOk) {
        api->Abort(txn);
        result = c;
        done = true;
        return;
      }
      api->Commit(txn, [&](Code c2) {
        result = c2;
        done = true;
      });
    });
    RunUntil(done);
    return result;
  }

  void RunUntil(bool& flag, Nanos limit = 60 * kSecond) {
    const Nanos deadline = sim->now() + limit;
    while (!flag && sim->now() < deadline && !sim->Empty()) {
      sim->RunUntil(sim->now() + kMillisecond);
    }
    ASSERT_TRUE(flag) << "operation did not finish within the time limit";
  }

  // Drives the sim until the failure detector declares node n dead, so
  // follow-up transactions route around it instead of stalling on a
  // crashed-but-undetected replica.
  void WaitUntilDetectedDead(NodeId n, Nanos limit = 60 * kSecond) {
    const Nanos deadline = sim->now() + limit;
    while (cluster->layout().alive(n) && sim->now() < deadline &&
           !sim->Empty()) {
      sim->RunUntil(sim->now() + 10 * kMillisecond);
    }
    ASSERT_FALSE(cluster->layout().alive(n)) << "node " << n
                                             << " never detected dead";
  }

  // Crashes node n, restarts it, and drives the sim until it serves.
  void CrashAndRecover(NodeId n) {
    cluster->CrashDatanode(n);
    sim->RunFor(kMillisecond);
    bool served = false;
    cluster->RestartDatanode(n, [&] { served = true; });
    RunUntil(served);
  }

  Catalog catalog;
  TableId table = 0;
  std::unique_ptr<Simulation> sim;
  std::unique_ptr<Topology> topology;
  std::unique_ptr<Network> network;
  std::unique_ptr<NdbCluster> cluster;
  std::unique_ptr<NdbApiNode> api;
};

TEST(NdbRecoveryTest, GroupCommitFlushBoundaries) {
  RecoveryCluster tc;
  ASSERT_EQ(tc.InsertCommit("1/a", "va"), Code::kOk);

  // Right after the commit the record sits in the group-commit window of
  // at least one replica: appended, not yet on disk.
  int64_t backlog = 0;
  for (NodeId n = 0; n < tc.cluster->num_datanodes(); ++n) {
    backlog += tc.cluster->datanode(n).journal().backlog_bytes();
  }
  EXPECT_GT(backlog, 0) << "commit should be in the un-flushed window";

  // One flush interval (plus the disk write) later the whole log is
  // durable on every node — the group commit landed.
  tc.sim->RunFor(tc.cluster->node_config().redo_flush_interval +
                 50 * kMillisecond);
  for (NodeId n = 0; n < tc.cluster->num_datanodes(); ++n) {
    const RedoJournal& j = tc.cluster->datanode(n).journal();
    EXPECT_EQ(j.durable_seqno(), j.last_seqno()) << "node " << n;
    EXPECT_EQ(j.backlog_bytes(), 0) << "node " << n;
  }
}

TEST(NdbRecoveryTest, LcpTruncatesRedoLog) {
  NdbNodeConfig node;
  node.redo_segment_bytes = 4 << 10;  // small segments so truncation bites
  RecoveryCluster tc(node);
  for (int i = 0; i < 60; ++i) {
    ASSERT_EQ(tc.InsertCommit(StrFormat("%d/f", i), std::string(200, 'x')),
              Code::kOk);
  }
  // Run past two LCP intervals so every node checkpoints at least once.
  tc.sim->RunFor(2 * tc.cluster->node_config().lcp_interval + kSecond);

  for (NodeId n = 0; n < tc.cluster->num_datanodes(); ++n) {
    const RedoJournal& j = tc.cluster->datanode(n).journal();
    EXPECT_GT(j.base_seqno(), 0) << "node " << n << " never checkpointed";
    EXPECT_GT(j.base_rows(), 0) << "node " << n;
    // Truncation: the log retains at most ~one segment of overhang past
    // the checkpoint cut, not the whole history.
    EXPECT_LT(j.live_records(), j.last_seqno()) << "node " << n;
    EXPECT_LE(j.lag_bytes(),
              node.redo_segment_bytes + 2 * kRedoFlushOverheadBytes)
        << "node " << n << " log not truncated at the LCP";
  }
}

// A checkpoint base image as a whole-journal walk rebuilds it.
using BaseImage = std::map<std::pair<TableId, Key>, std::string>;

void ApplyRecord(BaseImage& image, const RedoJournal::Record& r) {
  if (r.deleted) {
    image.erase({r.table, r.key});
  } else {
    image[{r.table, r.key}] = std::string(r.value.view());
  }
}

// The records a fragment checkpoint of `part` at `cut` folds, found by
// walking every record of every segment, in seqno order.
template <typename Fn>
void ForEachFoldable(const RedoJournal& j, PartitionId part, int64_t cut,
                     Fn fn) {
  const int64_t cut_epoch = j.EpochAtCut(cut);
  for (const auto& seg : j.segments()) {
    for (const auto& r : seg.records) {
      if (!r.folded && r.part == part && r.seqno <= cut &&
          r.epoch <= cut_epoch) {
        fn(r);
      }
    }
  }
}

// ReplayDigest(max_epoch) by a whole-journal walk over `base`.
uint64_t ReferenceReplayDigest(const RedoJournal& j, BaseImage image,
                               int64_t max_epoch) {
  for (const auto& seg : j.segments()) {
    for (const auto& r : seg.records) {
      if (!r.folded && r.seqno <= j.durable_seqno() && r.epoch <= max_epoch) {
        ApplyRecord(image, r);
      }
    }
  }
  ImageDigest digest;
  for (const auto& [id, value] : image) {
    digest.AddRow(id.first, id.second, value);
  }
  return digest.value();
}

// The journal keeps its replay debt (lag) per record: every append and
// adoption raises it, every fold and dropped unfolded record lowers it.
// It keeps each partition's unfolded records in a list of their own, so a
// fragment checkpoint visits only those. After every step of random op
// sequences the lag, every partition's checkpoint bytes and the replayed
// image's digest must equal what a walk over the whole journal gives.
TEST(NdbRecoveryTest, JournalLagMatchesAWholeJournalWalk) {
  constexpr int kParts = 4;
  int folds = 0, drops = 0;  // steps that lowered the lag, by cause
  int held = 0;  // records at or below a cut whose epoch kept them out
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    RedoJournal j(/*num_tables=*/2, /*segment_bytes=*/512);
    BaseImage base;  // the reference of the journal's base image
    int64_t epoch = 1;
    Nanos now = 0;
    TxnId txn = 0;
    RedoJournal::FlushBatch inflight;  // prepared, not yet on disk
    int64_t cut = -1;                  // the open checkpoint round's cut
    const auto record = [&](bool adopt) {
      const auto table = static_cast<TableId>(rng.NextBelow(2));
      const Key key = StrFormat(
          "k%llu", static_cast<unsigned long long>(rng.NextBelow(16)));
      const auto part = static_cast<PartitionId>(rng.NextBelow(kParts));
      const bool deleted = rng.NextBelow(5) == 0;
      RowImage value =
          deleted ? RowImage() : RowImage::Filled(rng.NextBelow(64), 'v');
      // A commit of the next, still open epoch may land before this
      // epoch closes.
      const int64_t at_epoch = epoch + (rng.NextBelow(4) == 0 ? 1 : 0);
      if (adopt) {
        j.AdoptRecord(at_epoch, ++txn, table, key, part, deleted,
                      std::move(value), now);
      } else {
        j.Append(at_epoch, ++txn, table, key, part, deleted,
                 std::move(value), now);
      }
    };
    for (int step = 0; step < 400; ++step) {
      now += kMillisecond;
      const int64_t lag_before = j.lag_entries();
      const uint64_t op = rng.NextBelow(100);
      if (op < 40) {
        record(/*adopt=*/false);
      } else if (op < 55) {
        if (inflight.upto_seqno == 0) {
          inflight = j.PrepareFlush();
        } else {
          j.MarkFlushed(inflight);
          inflight = {};
        }
      } else if (op < 65) {
        j.CloseEpoch(epoch++);
      } else if (op < 80) {
        if (cut < 0) cut = j.CheckpointCutSeqno(j.durable_epoch());
        const auto part = static_cast<PartitionId>(rng.NextBelow(kParts));
        ForEachFoldable(j, part, cut, [&](const RedoJournal::Record& r) {
          ApplyRecord(base, r);
        });
        for (const auto& seg : j.segments()) {
          for (const auto& r : seg.records) {
            held += !r.folded && r.part == part && r.seqno <= cut &&
                    r.epoch > j.EpochAtCut(cut);
          }
        }
        j.CompleteFragmentCheckpoint(part, cut);
        if (j.lag_entries() < lag_before) ++folds;
      } else if (op < 87) {
        if (cut >= 0) j.FinishCheckpointRound(cut, now);
        cut = -1;
      } else if (op < 94) {
        j.DropUnflushed();
        if (j.lag_entries() < lag_before) ++drops;
        inflight = {};
        cut = -1;
      } else {
        j.InstallImageBegin(epoch - 1, now);
        j.InstallImageRow(0, "k0", RowImage::Of("base"));
        base = {{{0, "k0"}, "base"}};
        for (int i = static_cast<int>(rng.NextBelow(6)); i > 0; --i) {
          record(/*adopt=*/true);
        }
        inflight = {};
        cut = -1;
      }
      const std::string context = StrFormat(
          "seed %llu step %d", static_cast<unsigned long long>(seed), step);
      int64_t bytes = 0, entries = 0;
      for (const auto& seg : j.segments()) {
        for (const auto& r : seg.records) {
          if (r.folded) continue;
          bytes += r.bytes;
          entries += 1;
        }
      }
      ASSERT_EQ(j.lag_bytes(), bytes) << context;
      ASSERT_EQ(j.lag_entries(), entries) << context;
      // Every fragment's checkpoint write at the open round's cut (or at
      // the cut a round would take now).
      const int64_t at = cut >= 0 ? cut : j.CheckpointCutSeqno(j.durable_epoch());
      for (PartitionId p = 0; p < kParts; ++p) {
        int64_t want = j.base_bytes() / kParts +
                       (p < j.base_bytes() % kParts ? 1 : 0);
        ForEachFoldable(j, p, at, [&](const RedoJournal::Record& r) {
          want += r.bytes;
        });
        ASSERT_EQ(j.FragmentCheckpointBytes(p, kParts, at), want)
            << context << " partition " << p << " cut " << at;
      }
      int64_t base_bytes = 0;
      for (const auto& [id, value] : base) {
        base_bytes += static_cast<int64_t>(id.second.size() + value.size()) +
                      32;  // the redo record framing
      }
      ASSERT_EQ(j.base_bytes(), base_bytes) << context;
      ASSERT_EQ(j.base_rows(), static_cast<int64_t>(base.size())) << context;
      for (const int64_t max_epoch : {epoch - 1, INT64_MAX}) {
        ASSERT_EQ(j.ReplayDigest(max_epoch),
                  ReferenceReplayDigest(j, base, max_epoch))
            << context << " replay to epoch " << max_epoch;
      }
    }
  }
  EXPECT_GT(folds, 0) << "no checkpoint folded a record";
  EXPECT_GT(drops, 0) << "no crash dropped an unflushed record";
  EXPECT_GT(held, 0) << "no record of an open epoch sat below a cut";
}

// A written value is one buffer: the writer's image rides the prepare
// chain, and every replica's committed row, its redo record and, after an
// LCP round, its checkpoint base row hold that same buffer.
TEST(NdbRecoveryTest, OneWriteSharesOneImageAcrossReplicasRedoAndCheckpoint) {
  RecoveryCluster tc;
  const Key key = "7/f";
  const RowImage value = RowImage::Of(std::string(40, 'i'));
  const TxnId txn = tc.api->Begin(tc.table, key);
  bool done = false;
  Code code = Code::kInternal;
  tc.api->Write(txn, tc.table, key, value, [&](Code c) {
    tc.api->Commit(txn, [&, c](Code c2) {
      code = c == Code::kOk ? c2 : c;
      done = true;
    });
  });
  tc.RunUntil(done);
  ASSERT_EQ(code, Code::kOk);
  tc.sim->RunFor(100 * kMillisecond);  // every replica completes

  const auto& layout = tc.cluster->layout();
  const auto& chain =
      layout.ReplicaChain(tc.table, layout.PartitionOf(tc.table, key));
  ASSERT_EQ(chain.size(), 3u);
  for (NodeId n : chain) {
    NdbDatanode& node = tc.cluster->datanode(n);
    const RowImage committed = node.store().Read(tc.table, key, 0);
    EXPECT_TRUE(committed.SharesBuffer(value)) << "node " << n;
    EXPECT_EQ(committed, std::string(40, 'i')) << "node " << n;
    RowImage logged;
    for (const auto& seg : node.journal().segments()) {
      for (const auto& r : seg.records) {
        if (r.table == tc.table && r.key == key) logged = r.value;
      }
    }
    EXPECT_TRUE(logged.SharesBuffer(value)) << "node " << n << " redo";
  }
  // Run past two LCP intervals so every node folds the write.
  tc.sim->RunFor(2 * tc.cluster->node_config().lcp_interval + kSecond);
  for (NodeId n : chain) {
    const RowImage base = tc.cluster->datanode(n).journal().BaseRow(tc.table,
                                                                    key);
    EXPECT_TRUE(base.SharesBuffer(value)) << "node " << n << " base image";
    EXPECT_EQ(base, value) << "node " << n;
  }
}

TEST(NdbRecoveryTest, ReplayRestoresExactRowState) {
  RecoveryCluster tc;
  for (int i = 0; i < 25; ++i) {
    ASSERT_EQ(tc.InsertCommit(StrFormat("%d/f", i), StrFormat("v%d", i)),
              Code::kOk);
  }
  // Quiesce: flush and checkpoint whatever the cadence produced, then
  // snapshot the committed image of node 0.
  tc.sim->RunFor(kSecond);
  const uint64_t before = tc.cluster->datanode(0).DigestStore();

  tc.CrashAndRecover(0);

  // The rejoined node's committed row image is byte-identical to the
  // pre-crash one (replay of checkpoint+log, then delta resync).
  EXPECT_EQ(tc.cluster->datanode(0).DigestStore(), before);
  ASSERT_FALSE(tc.cluster->recovery_log().empty());
  const auto& rec = tc.cluster->recovery_log().back();
  EXPECT_EQ(rec.node, 0);
  EXPECT_FALSE(rec.aborted);
  EXPECT_GT(rec.replay_entries, 0) << "recovery should replay its own log";
  EXPECT_TRUE(rec.replay_deterministic)
      << "two replays of the same journal must produce identical images";
  EXPECT_TRUE(rec.replay_covered)
      << "replay must cover exactly the durable prefix (every acked commit "
         "is in a flushed segment or a checkpoint)";
}

TEST(NdbRecoveryTest, RejoinedNodeConvergesWithLiveReplicas) {
  RecoveryCluster tc;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(tc.InsertCommit(StrFormat("%d/f", i), "v1"), Code::kOk);
  }
  tc.sim->RunFor(kSecond);
  tc.cluster->CrashDatanode(0);
  tc.WaitUntilDetectedDead(0);
  // Overwrites land while the node is down: its replayed log is stale
  // for these keys and resync must supply the newer versions.
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(tc.InsertCommit(StrFormat("%d/f", i), "v2"), Code::kOk);
  }
  bool served = false;
  tc.cluster->RestartDatanode(0, [&] { served = true; });
  tc.RunUntil(served);

  auto& layout = tc.cluster->layout();
  for (int i = 0; i < 10; ++i) {
    const std::string key = StrFormat("%d/f", i);
    const PartitionId p = layout.PartitionOf(tc.table, key);
    bool mine = false;
    for (NodeId r : layout.ReplicaChain(p)) mine |= (r == 0);
    if (!mine) continue;
    auto v = tc.cluster->datanode(0).store().Read(tc.table, key, 0);
    ASSERT_TRUE(v.has_value()) << key << " missing on the rejoined node";
    EXPECT_EQ(v, "v2") << key << " stale on the rejoined node";
  }
}

TEST(NdbRecoveryTest, RecoveryPhasesAreVisible) {
  RecoveryCluster tc;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(tc.InsertCommit(StrFormat("%d/f", i), "v"), Code::kOk);
  }
  tc.sim->RunFor(kSecond);
  tc.cluster->CrashDatanode(0);
  tc.sim->RunFor(kMillisecond);
  EXPECT_EQ(tc.cluster->datanode(0).recovery_phase(),
            NdbDatanode::RecoveryPhase::kDown);

  bool served = false;
  tc.cluster->RestartDatanode(0, [&] { served = true; });
  EXPECT_EQ(tc.cluster->datanode(0).recovery_phase(),
            NdbDatanode::RecoveryPhase::kReplaying);
  EXPECT_TRUE(tc.cluster->datanode(0).recovering());
  EXPECT_FALSE(tc.cluster->datanode(0).alive())
      << "a recovering node must not serve transactions yet";
  tc.RunUntil(served);
  EXPECT_EQ(tc.cluster->datanode(0).recovery_phase(),
            NdbDatanode::RecoveryPhase::kServing);
  EXPECT_TRUE(tc.cluster->datanode(0).alive());
}

TEST(NdbRecoveryTest, RecoveryTimeLinearInLogSize) {
  // No LCPs: the whole log must be replayed, so replay work scales with
  // the number of commits. Three log sizes must land on a line.
  double entries[3] = {0, 0, 0};
  double replay_s[3] = {0, 0, 0};
  const int kCommits[3] = {60, 120, 240};
  for (int run = 0; run < 3; ++run) {
    NdbNodeConfig node;
    node.lcp_interval = 1000 * kSecond;  // never checkpoint
    RecoveryCluster tc(node);
    for (int i = 0; i < kCommits[run]; ++i) {
      ASSERT_EQ(tc.InsertCommit(StrFormat("%d/f", i), std::string(120, 'y')),
                Code::kOk);
    }
    tc.sim->RunFor(kSecond);  // flush everything
    tc.CrashAndRecover(0);
    ASSERT_FALSE(tc.cluster->recovery_log().empty());
    const auto& rec = tc.cluster->recovery_log().back();
    ASSERT_FALSE(rec.aborted);
    ASSERT_GT(rec.replay_done, rec.started);
    entries[run] = static_cast<double>(rec.replay_entries);
    replay_s[run] = ToSeconds(rec.replay_done - rec.started);
  }
  ASSERT_GT(entries[1], entries[0]);
  ASSERT_GT(entries[2], entries[1]);
  EXPECT_GT(replay_s[1], replay_s[0]);
  EXPECT_GT(replay_s[2], replay_s[1]);
  // Collinearity: predict the middle point from the line through the
  // endpoints; replay cost is per-entry CPU + per-byte disk, both linear.
  const double slope =
      (replay_s[2] - replay_s[0]) / (entries[2] - entries[0]);
  const double predicted =
      replay_s[0] + slope * (entries[1] - entries[0]);
  EXPECT_NEAR(replay_s[1], predicted, 0.2 * replay_s[1])
      << "recovery time must be linear in replay work";
}

TEST(NdbRecoveryTest, ClusterRecoveryReportsBoundedLoss) {
  // Micro-GCP config: epochs close as fast as the log flushes, so the
  // documented loss window shrinks to the group-commit cadence.
  NdbNodeConfig node;
  node.gcp_interval = 100 * kMillisecond;
  node.redo_flush_interval = 100 * kMillisecond;
  RecoveryCluster tc(node);

  ASSERT_EQ(tc.InsertCommit("7/old", "v"), Code::kOk);
  tc.sim->RunFor(2 * kSecond);  // "7/old" durable everywhere

  // Commit and recover immediately: the fresh commit cannot be durable
  // yet and must be reported as dropped, with a loss window bounded by
  // the group-commit interval (plus epoch-close skew).
  ASSERT_EQ(tc.InsertCommit("7/new", "v"), Code::kOk);
  const auto report = tc.cluster->RecoverFromCheckpoint();

  EXPECT_GE(report.dropped_commits, 1);
  EXPECT_EQ(report.dropped_commits,
            static_cast<int64_t>(report.dropped_txns.size()));
  EXPECT_GT(report.dropped_entries, 0);
  EXPECT_TRUE(report.replay_deterministic);
  EXPECT_LE(report.loss_window,
            2 * tc.cluster->node_config().redo_flush_interval +
                50 * kMillisecond)
      << "with group commit, acked-commit loss is bounded by roughly one "
         "flush interval";

  // The durable row survived; the dropped row is gone everywhere.
  auto& layout = tc.cluster->layout();
  const PartitionId p_old = layout.PartitionOf(tc.table, "7/old");
  for (NodeId n : layout.ReplicaChain(p_old)) {
    EXPECT_TRUE(
        tc.cluster->datanode(n).store().Read(tc.table, "7/old", 0).has_value())
        << "durable commit lost at node " << n;
  }
  const PartitionId p_new = layout.PartitionOf(tc.table, "7/new");
  for (NodeId n : layout.ReplicaChain(p_new)) {
    EXPECT_FALSE(
        tc.cluster->datanode(n).store().Read(tc.table, "7/new", 0).has_value())
        << "dropped commit resurrected at node " << n;
  }

  // The recovered cluster serves new writes.
  EXPECT_EQ(tc.InsertCommit("7/after", "v"), Code::kOk);
}

// Regression for the epoch-straddling window: a commit's redo records
// used to be stamped with each replica's CURRENT epoch at append time, so
// a GCP tick landing mid commit-chain split one transaction across two
// epochs — the recovery cut could then keep some replicas' records and
// drop others'. Epochs are now assigned once per transaction at the
// commit decision, and an epoch only closes after all its commits
// finished, so the cut is transaction-exact.
TEST(NdbRecoveryTest, CommitEpochsAreTransactionAtomic) {
  NdbNodeConfig node;
  node.gcp_interval = kMillisecond;   // ticks land inside commit chains
  node.redo_flush_interval = 10 * kMillisecond;
  node.lcp_interval = 1000 * kSecond;  // keep every record in the log
  RecoveryCluster tc(node);

  std::map<TxnId, Key> keys;
  for (int i = 0; i < 50; ++i) {
    const Key key = StrFormat("%d/f", i);
    const TxnId txn = tc.api->Begin(tc.table, key);
    Code result = Code::kInternal;
    bool done = false;
    const RowImage value = RowImage::Of(StrFormat("v%d", i));
    tc.api->Write(txn, tc.table, key, value, [&](Code c) {
      if (c != Code::kOk) {
        tc.api->Abort(txn);
        result = c;
        done = true;
        return;
      }
      tc.api->Commit(txn, [&](Code c2) {
        result = c2;
        done = true;
      });
    });
    tc.RunUntil(done);
    ASSERT_EQ(result, Code::kOk);
    keys[txn] = key;
  }

  // Every record of a transaction — across all replicas and chain
  // positions — must carry the single epoch assigned at commit time.
  std::map<TxnId, std::set<int64_t>> epochs;
  for (NodeId n = 0; n < tc.cluster->num_datanodes(); ++n) {
    for (const auto& seg : tc.cluster->datanode(n).journal().segments()) {
      for (const auto& r : seg.records) {
        if (keys.count(r.txn)) epochs[r.txn].insert(r.epoch);
      }
    }
  }
  ASSERT_EQ(epochs.size(), keys.size());
  for (const auto& [txn, eps] : epochs) {
    EXPECT_EQ(eps.size(), 1u)
        << "txn " << txn << " straddles " << eps.size() << " epochs";
  }

  // Exact cut: recover immediately (the freshest commits cannot be
  // durable). Every transaction is either fully replayed on all its
  // replicas or fully dropped — never half-kept.
  const auto report = tc.cluster->RecoverFromCheckpoint();
  ASSERT_GE(report.dropped_commits, 1)
      << "recovery right after a commit must drop the undurable tail";
  const std::set<TxnId> dropped(report.dropped_txns.begin(),
                                report.dropped_txns.end());
  auto& layout = tc.cluster->layout();
  for (const auto& [txn, key] : keys) {
    const PartitionId p = layout.PartitionOf(tc.table, key);
    for (NodeId n : layout.ReplicaChain(p)) {
      const auto v = tc.cluster->datanode(n).store().Read(tc.table, key, 0);
      if (dropped.count(txn)) {
        EXPECT_FALSE(v.has_value())
            << "dropped txn " << txn << " resurrected on node " << n;
      } else {
        EXPECT_TRUE(v.has_value())
            << "durable txn " << txn << " lost on node " << n;
      }
    }
  }
}

// Regression for the over-fresh-adoption window: a rejoining node used to
// checkpoint the source's CURRENT image — including commits newer than
// the cluster-durable epoch — so a whole-cluster recovery immediately
// after the rejoin replayed those post-durable commits from its base
// image while every other replica dropped them. Adoption is now filtered
// to the durable cut; post-durable rows ride along as ordinary log
// records and fall to the same side of the cut everywhere.
TEST(NdbRecoveryTest, RejoinAdoptionCannotResurrectPostDurableCommits) {
  NdbNodeConfig node;
  node.redo_flush_interval = 200 * kMillisecond;
  node.gcp_interval = 500 * kMillisecond;
  node.lcp_interval = 1000 * kSecond;
  RecoveryCluster tc(node);

  // A key node 0 replicates, so the rejoin adoption covers it.
  auto& layout = tc.cluster->layout();
  std::string fresh_key;
  for (int i = 0; i < 64 && fresh_key.empty(); ++i) {
    const std::string key = StrFormat("%d/fresh", i);
    for (NodeId r : layout.ReplicaChain(layout.PartitionOf(tc.table, key))) {
      if (r == 0) {
        fresh_key = key;
        break;
      }
    }
  }
  ASSERT_FALSE(fresh_key.empty());

  ASSERT_EQ(tc.InsertCommit("3/old", "v1"), Code::kOk);
  tc.sim->RunFor(2 * kSecond);  // "3/old" durable everywhere

  tc.cluster->CrashDatanode(0);
  tc.WaitUntilDetectedDead(0);

  // Acked while node 0 is down; with the slow flush/GCP cadence it is
  // still NOT durable when the rejoin below completes.
  TxnId fresh_txn = 0;
  {
    const TxnId txn = tc.api->Begin(tc.table, fresh_key);
    Code result = Code::kInternal;
    bool done = false;
    tc.api->Write(txn, tc.table, fresh_key, RowImage::Of("v2"), [&](Code c) {
      if (c != Code::kOk) {
        tc.api->Abort(txn);
        result = c;
        done = true;
        return;
      }
      tc.api->Commit(txn, [&](Code c2) {
        result = c2;
        done = true;
      });
    });
    tc.RunUntil(done);
    ASSERT_EQ(result, Code::kOk);
    fresh_txn = txn;
  }

  // Rejoin immediately, then crash the whole cluster the moment the node
  // serves again.
  bool served = false;
  tc.cluster->RestartDatanode(0, [&] { served = true; });
  tc.RunUntil(served);
  const auto report = tc.cluster->RecoverFromCheckpoint();

  // Guard: the scenario only exercises the window if the fresh commit
  // was really beyond the recovery cut.
  const std::set<TxnId> dropped(report.dropped_txns.begin(),
                                report.dropped_txns.end());
  ASSERT_TRUE(dropped.count(fresh_txn))
      << "fresh commit became durable before the rejoin finished; "
         "the test no longer exercises the adoption window";

  // The dropped commit must be gone EVERYWHERE — in particular on the
  // freshly rejoined node 0, whose adopted checkpoint must not have
  // smuggled it past the cut.
  const PartitionId p = layout.PartitionOf(tc.table, fresh_key);
  for (NodeId n : layout.ReplicaChain(p)) {
    EXPECT_FALSE(tc.cluster->datanode(n)
                     .store()
                     .Read(tc.table, fresh_key, 0)
                     .has_value())
        << "post-durable commit resurrected on node " << n;
  }
  // The durable row survived on its replicas.
  const PartitionId p_old = layout.PartitionOf(tc.table, "3/old");
  for (NodeId n : layout.ReplicaChain(p_old)) {
    EXPECT_TRUE(
        tc.cluster->datanode(n).store().Read(tc.table, "3/old", 0).has_value())
        << "durable commit lost at node " << n;
  }
}

// Streaming catch-up: a rejoining node serves committed reads for
// partitions whose resync already completed, before it is fully alive.
TEST(NdbRecoveryTest, RejoiningNodeServesReadsMidResync) {
  NdbNodeConfig node;
  node.lcp_interval = 1000 * kSecond;  // big replay + big adopted image
  RecoveryCluster tc(node);

  // Enough data that the rejoin checkpoint write gives a real window in
  // which the node is catch-up-ready but not yet alive.
  std::vector<std::string> mine;  // keys node 0 replicates
  auto& layout = tc.cluster->layout();
  for (int i = 0; i < 400; ++i) {
    const std::string key = StrFormat("%d/f", i);
    ASSERT_EQ(tc.InsertCommit(key, std::string(2048, 'd')), Code::kOk);
    for (NodeId r : layout.ReplicaChain(layout.PartitionOf(tc.table, key))) {
      if (r == 0) {
        mine.push_back(key);
        break;
      }
    }
  }
  ASSERT_FALSE(mine.empty());
  tc.sim->RunFor(kSecond);

  tc.cluster->CrashDatanode(0);
  tc.WaitUntilDetectedDead(0);
  // Writes while the node is down give the resync real work per
  // partition (and in-flight writers make the per-partition fences wait).
  for (size_t i = 0; i < mine.size(); i += 3) {
    ASSERT_EQ(tc.InsertCommit(mine[i], std::string(2048, 'e')), Code::kOk);
  }

  bool served = false;
  tc.cluster->RestartDatanode(0, [&] { served = true; });

  // Hammer committed reads of node-0 keys while it recovers. The API
  // node sits in AZ 0, and node 0 is the only AZ-0 replica of its
  // partitions, so AZ-aware routing prefers it as soon as a partition
  // turns catch-up-ready.
  int64_t reads_ok = 0;
  size_t rr = 0;
  auto read_timer = tc.sim->Every(200 * kMicrosecond, [&] {
    if (served) return;
    const std::string& key = mine[rr++ % mine.size()];
    // BeginNoHint lands the TC on the closest alive node (node 1, AZ 0);
    // its committed-read routing then prefers the AZ-0 replica — node 0 —
    // as soon as the key's partition turns catch-up-ready.
    const TxnId txn = tc.api->BeginNoHint();
    if (txn == 0) return;
    tc.api->Read(txn, tc.table, key, LockMode::kReadCommitted,
                 [&, txn](Code c, RowImage) {
                   if (c == Code::kOk) ++reads_ok;
                   tc.api->Abort(txn);
                 });
  });
  tc.RunUntil(served);
  read_timer.Cancel();
  EXPECT_GT(reads_ok, 0);

  ASSERT_FALSE(tc.cluster->recovery_log().empty());
  const auto& rec = tc.cluster->recovery_log().back();
  EXPECT_FALSE(rec.aborted);
  EXPECT_GT(rec.streamed_parts, 0)
      << "resync must stream per partition, not adopt in one gulp";
  EXPECT_GT(rec.catchup_reads, 0)
      << "the rejoining node must serve reads for resynced partitions "
         "before it is fully alive";
  // And the node converged: fully serving, consistent with its peers.
  EXPECT_TRUE(tc.cluster->datanode(0).alive());
  for (const auto& key : mine) {
    const auto v = tc.cluster->datanode(0).store().Read(tc.table, key, 0);
    ASSERT_TRUE(v.has_value()) << key << " missing on the rejoined node";
  }
}

// A saturated (grey-slow) redo-log disk must engage commit backpressure:
// the unflushed backlog stays bounded, some commits shed with
// kResourceExhausted instead of piling up, and the stall clock runs.
TEST(NdbRecoveryTest, LogDiskSaturationBoundsRedoBacklog) {
  NdbNodeConfig node;
  node.redo_stall_backlog_bytes = 32 << 10;  // low threshold, engages fast
  RecoveryCluster tc(node);
  tc.cluster->datanode(0).SetLogDiskSlowdown(5000.0);

  const int64_t bound = 2 * node.redo_stall_backlog_bytes;
  int ok = 0, shed = 0;
  int64_t max_backlog = 0;
  for (int i = 0; i < 400; ++i) {
    const Code c = tc.InsertCommit(StrFormat("%d/f", i), std::string(512, 'z'));
    if (c == Code::kOk) {
      ++ok;
    } else {
      ++shed;
    }
    max_backlog = std::max(max_backlog,
                           tc.cluster->datanode(0).journal().backlog_bytes());
  }
  EXPECT_GT(ok, 0) << "keys avoiding the slow node must still commit";
  EXPECT_GT(shed, 0) << "backpressure must shed commits, not queue forever";
  EXPECT_LE(max_backlog, bound)
      << "unflushed redo must stay bounded under log-disk saturation";
  EXPECT_GT(tc.cluster->datanode(0).redo_stall_ns(), 0)
      << "the stall clock must account the backpressure time";

  // Heal the disk: the backlog drains and commits on the node's
  // partitions succeed again.
  tc.cluster->datanode(0).SetLogDiskSlowdown(1.0);
  tc.sim->RunFor(2 * kSecond);
  EXPECT_EQ(tc.cluster->datanode(0).journal().backlog_bytes(), 0);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(tc.InsertCommit(StrFormat("%d/f", i), "post-heal"), Code::kOk);
  }
}

TEST(NdbRecoveryTest, CrashDuringRecoveryAbandonsAndRetries) {
  RecoveryCluster tc;
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(tc.InsertCommit(StrFormat("%d/f", i), "v"), Code::kOk);
  }
  tc.sim->RunFor(kSecond);
  tc.cluster->CrashDatanode(0);
  tc.sim->RunFor(kMillisecond);

  // First restart: crash the node again while it is still replaying.
  bool first_done = false;
  tc.cluster->RestartDatanode(0, [&] { first_done = true; });
  ASSERT_TRUE(tc.cluster->datanode(0).recovering());
  tc.cluster->CrashDatanode(0);
  tc.RunUntil(first_done);  // the abandoned recovery still fires `done`
  ASSERT_FALSE(tc.cluster->recovery_log().empty());
  EXPECT_TRUE(tc.cluster->recovery_log().back().aborted);
  EXPECT_FALSE(tc.cluster->datanode(0).alive());
  EXPECT_FALSE(tc.cluster->datanode(0).recovering());

  // Second restart completes normally.
  bool served = false;
  tc.cluster->RestartDatanode(0, [&] { served = true; });
  tc.RunUntil(served);
  EXPECT_TRUE(tc.cluster->layout().alive(0));
  const auto& rec = tc.cluster->recovery_log().back();
  EXPECT_FALSE(rec.aborted);
  EXPECT_TRUE(rec.replay_deterministic);
}

// A crash loses the node's lock table with the rest of its memory. A
// transaction that held a row lock at the primary when the primary died
// is gone, and nothing will ever release that lock: the restarted
// primary must come back with no holders, or every later writer of the
// row waits out the lock timeout.
TEST(NdbRecoveryTest, CrashDropsTheLockTable) {
  RecoveryCluster tc;
  const Key key = "1/a";
  auto& layout = tc.cluster->layout();
  ASSERT_EQ(layout.PrimaryOf(layout.PartitionOf(tc.table, key)), 0)
      << "the scenario needs node 0 as the row's primary";

  // Prepare a write and stop there: the primary holds the exclusive lock.
  const TxnId dead = tc.api->Begin(tc.table, key);
  bool prepared = false;
  const RowImage never = RowImage::Of("never-committed");
  tc.api->Write(dead, tc.table, key, never, [&](Code c) {
    EXPECT_EQ(c, Code::kOk);
    prepared = true;
  });
  tc.RunUntil(prepared);
  ASSERT_TRUE(tc.cluster->datanode(0).locks().IsLocked(tc.table, key));

  tc.cluster->CrashDatanode(0);
  tc.WaitUntilDetectedDead(0);
  bool served = false;
  tc.cluster->RestartDatanode(0, [&] { served = true; });
  tc.RunUntil(served);
  ASSERT_EQ(layout.PrimaryOf(layout.PartitionOf(tc.table, key)), 0);
  // The backups' pending writes died with their coordinator (node 0) and
  // are freed by the orphan sweep once they pass the inactivity timeout.
  tc.sim->RunFor(2 * kTxnInactiveTimeout);

  EXPECT_FALSE(tc.cluster->datanode(0).locks().IsLocked(tc.table, key))
      << "the dead transaction's lock survived the crash";
  EXPECT_EQ(tc.InsertCommit(key, "next-writer"), Code::kOk);
}

// Catch-up backups sit in write chains but outside the failure detector's
// purview (it only watches layout-alive nodes), so losing a commit-chain
// or Complete hop to one — e.g. to a partition — must not wedge the
// transaction forever: the inactivity sweep re-drives the stalled phase.
// Without that, the primary's row lock and every backup pending slot stay
// held until the node fully revives — or forever, if it never does.
TEST(NdbRecoveryTest, PartitionedCatchupBackupCannotWedgeCommit) {
  NdbNodeConfig node;
  node.lcp_interval = 1000 * kSecond;  // long replay = long catch-up window
  RecoveryCluster tc(node);

  auto& layout = tc.cluster->layout();
  std::vector<std::string> mine;  // keys node 0 replicates
  for (int i = 0; i < 400; ++i) {
    const std::string key = StrFormat("%d/f", i);
    ASSERT_EQ(tc.InsertCommit(key, std::string(2048, 'd')), Code::kOk);
    for (NodeId r : layout.ReplicaChain(layout.PartitionOf(tc.table, key))) {
      if (r == 0) {
        mine.push_back(key);
        break;
      }
    }
  }
  ASSERT_FALSE(mine.empty());
  tc.sim->RunFor(kSecond);
  tc.cluster->CrashDatanode(0);
  tc.WaitUntilDetectedDead(0);
  for (size_t i = 0; i < mine.size(); i += 3) {
    ASSERT_EQ(tc.InsertCommit(mine[i], std::string(2048, 'e')), Code::kOk);
  }

  bool served = false;
  tc.cluster->RestartDatanode(0, [&] { served = true; });

  // Wait for a partition of node 0 to turn catch-up ready and pick a key
  // in it: that key's write chain now ends at catch-up node 0.
  std::string key;
  const Nanos deadline = tc.sim->now() + 60 * kSecond;
  while (key.empty() && tc.sim->now() < deadline && !served) {
    for (const auto& k : mine) {
      if (layout.catchup_ready(0, layout.PartitionOf(tc.table, k))) {
        key = k;
        break;
      }
    }
    if (key.empty()) tc.sim->RunFor(200 * kMicrosecond);
  }
  ASSERT_FALSE(key.empty()) << "no partition turned catch-up ready";

  // Commit through the catch-up backup, cutting traffic into AZ 0 at the
  // commit point. The commit chain runs backups-first, so its first hop —
  // to node 0, the chain's appended tail — is dropped.
  const TxnId txn = tc.api->Begin(tc.table, key);
  ASSERT_NE(txn, 0u);
  bool prepared = false;
  bool commit_done = false;
  tc.api->Write(txn, tc.table, key, RowImage::Of("wedge-me"), [&](Code c) {
    ASSERT_EQ(c, Code::kOk) << "all replicas, node 0 included, must prepare";
    prepared = true;
    tc.topology->PartitionAzsOneWay(1, 0);
    tc.topology->PartitionAzsOneWay(2, 0);
    tc.api->Commit(txn, [&](Code) { commit_done = true; });
    // Heal well under the failure detector's threshold (4 x 50 ms): this
    // exercises the re-drive, not node eviction. The lost hop is already
    // lost — nothing re-sends it on heal.
    tc.sim->After(60 * kMillisecond,
                  [&] { tc.topology->HealAllPartitions(); });
  });
  tc.RunUntil(commit_done);
  ASSERT_TRUE(prepared);

  // One inactivity timeout later the sweep re-drives the stalled commit
  // chain; the primary applies and unlocks. A fresh write to the same row
  // must then succeed — wedged, it would time out on the primary's lock.
  tc.sim->RunFor(4 * kSecond);
  EXPECT_EQ(tc.InsertCommit(key, "after-heal"), Code::kOk)
      << "commit through a partitioned catch-up backup wedged the row";

  tc.RunUntil(served);
  const auto v = tc.cluster->datanode(0).store().Read(tc.table, key, 0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v, "after-heal");
}

// ---- a crash in every recovery phase ----
//
// Each case restarts node 0, drives the simulation into one phase of the
// recovery, and crashes the node again there. The recovery must abandon
// exactly once, with that phase's reason, fire `done` exactly once and
// leave the node down. The node's disks are slowed so every disk phase
// leaves a window to crash in.
enum class CrashPhase {
  kImageRead,
  kLogRead,
  kReplayApply,
  kPartitionStream,
  kQuiesceFence,
  kRejoinImageWrite,
  kRejoinLogWrite,
};

struct PhaseCase {
  const char* name;
  CrashPhase phase;
  const char* reason;
};

// Names the case in test listings (the default prints the raw bytes,
// pointers included).
void PrintTo(const PhaseCase& c, std::ostream* os) { *os << c.name; }

class RestartFixture : public ::testing::Test {
 protected:
  // Loads rows, crashes node 0 and waits until the failure detector has
  // evicted it: a recovering node the detector still counts as alive
  // would be declared failed mid-recovery, which abandons it for a reason
  // this test does not pin.
  void SetUp() override {
    for (int i = 0; i < 40; ++i) {
      ASSERT_EQ(tc.InsertCommit(StrFormat("%d/f", i), std::string(512, 'v')),
                Code::kOk);
    }
    tc.sim->RunFor(kSecond);
    tc.cluster->CrashDatanode(0);
    tc.WaitUntilDetectedDead(0);
    node().disk().set_slowdown(50.0);
    node().log_disk().set_slowdown(50.0);
  }

  NdbDatanode& node() { return tc.cluster->datanode(0); }

  // Steps the simulation in 10 us slices until `ready()` holds.
  template <typename Ready>
  void StepUntil(Ready ready, const char* what) {
    const Nanos deadline = tc.sim->now() + 10 * kSecond;
    while (!ready() && tc.sim->now() < deadline && !tc.sim->Empty()) {
      tc.sim->RunFor(10 * kMicrosecond);
    }
    ASSERT_TRUE(ready()) << "never reached: " << what;
  }

  // A key whose partition node 0 replicates, and that partition.
  std::pair<std::string, PartitionId> KeyOfNode0() {
    auto& layout = tc.cluster->layout();
    for (int i = 0;; ++i) {
      std::string key = StrFormat("held%d/f", i);
      const PartitionId p = layout.PartitionOf(tc.table, key);
      for (NodeId r : layout.ReplicaChain(p)) {
        if (r == 0) return {key, p};
      }
    }
  }

  // Opens a transaction whose prepared write sits on a partition of node
  // 0: the resync's quiesce fence waits on that partition until the
  // transaction ends.
  TxnId HoldPartition(PartitionId* part) {
    const auto [key, p] = KeyOfNode0();
    *part = p;
    const TxnId txn = tc.api->Begin(tc.table, key);
    bool prepared = false;
    tc.api->Write(txn, tc.table, key, RowImage::Of("held"), [&](Code c) {
      EXPECT_EQ(c, Code::kOk);
      prepared = true;
    });
    tc.RunUntil(prepared);
    return txn;
  }

  RecoveryCluster tc;
};

class NdbRecoveryPhaseTest : public RestartFixture,
                             public ::testing::WithParamInterface<PhaseCase> {
};

TEST_P(NdbRecoveryPhaseTest, CrashAbandonsOnceWithThePhasesReason) {
  const PhaseCase& c = GetParam();
  const DiskStats data0 = node().disk().stats();
  const DiskStats log0 = node().log_disk().stats();
  const auto resyncing = [&] {
    return node().recovery_phase() == NdbDatanode::RecoveryPhase::kResyncing;
  };
  TxnId held = 0;
  PartitionId held_part = -1;
  if (c.phase == CrashPhase::kQuiesceFence) held = HoldPartition(&held_part);

  int done = 0;
  tc.cluster->RestartDatanode(0, [&] { ++done; });
  ASSERT_TRUE(node().recovering());
  switch (c.phase) {
    case CrashPhase::kImageRead:
      break;  // the image read was issued synchronously
    case CrashPhase::kLogRead:
      StepUntil([&] {
        return node().disk().stats().ops == data0.ops + 1 &&
               node().disk().Backlog() == 0;
      }, "image read done");
      ASSERT_GT(node().log_disk().Backlog(), 0);
      break;
    case CrashPhase::kReplayApply:
      StepUntil([&] {
        return node().log_disk().stats().ops == log0.ops + 1 &&
               node().log_disk().Backlog() == 0;
      }, "log read done");
      ASSERT_FALSE(resyncing());
      break;
    case CrashPhase::kPartitionStream:
      StepUntil(resyncing, "resync started");
      break;
    case CrashPhase::kQuiesceFence:
      StepUntil(resyncing, "resync started");
      tc.sim->RunFor(200 * kMillisecond);
      ASSERT_TRUE(resyncing());
      ASSERT_FALSE(tc.cluster->layout().catchup_ready(0, held_part))
          << "the fence should still wait on the held partition";
      break;
    case CrashPhase::kRejoinImageWrite:
      StepUntil([&] {
        return node().disk().stats().ops == data0.ops + 2;
      }, "rejoin image write issued");
      ASSERT_GT(node().disk().Backlog(), 0);
      break;
    case CrashPhase::kRejoinLogWrite:
      StepUntil([&] {
        return node().disk().stats().ops == data0.ops + 2 &&
               node().disk().Backlog() == 0;
      }, "rejoin image write done");
      ASSERT_GT(node().log_disk().Backlog(), 0);
      break;
  }
  ASSERT_TRUE(node().recovering()) << "crash point passed the recovery";
  ASSERT_EQ(done, 0);
  tc.cluster->CrashDatanode(0);
  if (held != 0) tc.api->Abort(held);
  tc.sim->RunFor(5 * kSecond);

  EXPECT_EQ(done, 1) << "`done` must fire exactly once";
  ASSERT_EQ(tc.cluster->recovery_log().size(), 1u);
  const auto& rec = tc.cluster->recovery_log().back();
  EXPECT_TRUE(rec.aborted);
  EXPECT_EQ(rec.abort_reason, c.reason);
  EXPECT_FALSE(node().alive());
  EXPECT_FALSE(node().recovering());
  EXPECT_EQ(node().recovery_phase(), NdbDatanode::RecoveryPhase::kDown);
}

INSTANTIATE_TEST_SUITE_P(
    Phases, NdbRecoveryPhaseTest,
    ::testing::Values(
        PhaseCase{"ImageRead", CrashPhase::kImageRead,
                  "node lost during image read"},
        PhaseCase{"LogRead", CrashPhase::kLogRead,
                  "node lost during log read"},
        PhaseCase{"ReplayApply", CrashPhase::kReplayApply,
                  "node lost during replay"},
        PhaseCase{"PartitionStream", CrashPhase::kPartitionStream,
                  "node lost during resync"},
        PhaseCase{"QuiesceFence", CrashPhase::kQuiesceFence,
                  "node lost during resync"},
        PhaseCase{"RejoinImageWrite", CrashPhase::kRejoinImageWrite,
                  "node lost during rejoin checkpoint"},
        PhaseCase{"RejoinLogWrite", CrashPhase::kRejoinLogWrite,
                  "node lost during rejoin checkpoint"}),
    [](const ::testing::TestParamInfo<PhaseCase>& info) {
      return std::string(info.param.name);
    });

// The resync source dies mid-stream: at the start of the stream, or
// while the quiesce fence waits. The recovery retries from the other
// node-group peer, counts the extra attempt, and the node serves.
class NdbRecoverySourceDeathTest : public RestartFixture {
 protected:
  void KillSourceAndRecover(bool at_fence) {
    TxnId held = 0;
    PartitionId held_part = -1;
    if (at_fence) held = HoldPartition(&held_part);
    int done = 0;
    tc.cluster->RestartDatanode(0, [&] { ++done; });
    StepUntil([&] {
      return node().recovery_phase() ==
             NdbDatanode::RecoveryPhase::kResyncing;
    }, "resync started");
    if (at_fence) {
      tc.sim->RunFor(200 * kMillisecond);
      ASSERT_FALSE(tc.cluster->layout().catchup_ready(0, held_part))
          << "the fence should still wait on the held partition";
    }
    // Node 2 is the lowest-numbered live peer of node 0's group
    // {0, 2, 4}: the resync source.
    tc.cluster->CrashDatanode(2);
    if (held != 0) tc.api->Abort(held);
    const Nanos deadline = tc.sim->now() + 30 * kSecond;
    while (done == 0 && tc.sim->now() < deadline) {
      tc.sim->RunFor(kMillisecond);
    }
    tc.sim->RunFor(kSecond);
    EXPECT_EQ(done, 1);
    ASSERT_EQ(tc.cluster->recovery_log().size(), 1u);
    const auto& rec = tc.cluster->recovery_log().back();
    EXPECT_FALSE(rec.aborted) << rec.abort_reason;
    EXPECT_EQ(rec.attempts, 2);
    EXPECT_TRUE(node().alive());
    EXPECT_TRUE(tc.cluster->layout().alive(0));
  }
};

TEST_F(NdbRecoverySourceDeathTest, AtStreamStart) {
  KillSourceAndRecover(/*at_fence=*/false);
}

TEST_F(NdbRecoverySourceDeathTest, AtQuiesceFence) {
  KillSourceAndRecover(/*at_fence=*/true);
}

}  // namespace
}  // namespace repro::ndb
