// Tests for the extended file-system operations: chown, setTimes, append
// (inline growth, threshold crossing, block allocation), content summary,
// and recursive subtree delete.
#include <gtest/gtest.h>

#include "hopsfs_test_util.h"
#include "ndb/client.h"
#include "util/strings.h"

namespace repro::hopsfs {
namespace {

using testing::TestFs;

Status RunOp(TestFs& fs, std::function<void(HopsFsClient::StatusCb)> op) {
  return fs.Run(std::move(op));
}

// Number of committed rows under `prefix`, read through a fresh NDB API
// node.
size_t CountRows(TestFs& fs, ndb::TableId table, const std::string& prefix) {
  ndb::NdbApiNode api(fs.deployment->ndb(),
                      fs.deployment->topology().AddHost(0, "probe"), 0);
  const ndb::TxnId txn = api.Begin(table, prefix);
  EXPECT_NE(txn, 0u);
  size_t rows = 0;
  bool done = false;
  api.ScanPrefix(txn, table, prefix,
                 [&](Code code,
                     ndb::NdbApiNode::Rows found) {
                   EXPECT_EQ(code, Code::kOk);
                   rows = found.size();
                   api.Commit(txn, [&](Code) { done = true; });
                 });
  while (!done) fs.sim->RunFor(kMillisecond);
  return rows;
}

TEST(HopsFsExtendedOps, ChownChangesOwner) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/o").ok());
  ASSERT_TRUE(fs.Create("/o/f").ok());
  ASSERT_TRUE(
      RunOp(fs, [&](auto cb) { fs.client->Chown("/o/f", "alice", cb); }).ok());
  const auto r = fs.StatFull("/o/f");
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.inode.owner, "alice");
}

TEST(HopsFsExtendedOps, SetTimesUpdatesMtime) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/t").ok());
  ASSERT_TRUE(fs.Create("/t/f").ok());
  ASSERT_TRUE(RunOp(fs, [&](auto cb) {
                fs.client->SetTimes("/t/f", Seconds(1234), cb);
              }).ok());
  const auto r = fs.StatFull("/t/f");
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.inode.mtime_ns, Seconds(1234));
}

TEST(HopsFsExtendedOps, SetAttrOnMissingPathFails) {
  TestFs fs;
  EXPECT_EQ(RunOp(fs, [&](auto cb) {
              fs.client->Chown("/missing", "bob", cb);
            }).code(),
            Code::kNotFound);
}

TEST(HopsFsExtendedOps, AppendGrowsInlineFile) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Create("/a/f", 1000).ok());
  ASSERT_TRUE(
      RunOp(fs, [&](auto cb) { fs.client->Append("/a/f", 2000, cb); }).ok());
  const auto r = fs.Open("/a/f");
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.inode.size, 3000);
  EXPECT_TRUE(r.inode.has_inline_data);
  EXPECT_EQ(r.inline_bytes, 3000);
}

TEST(HopsFsExtendedOps, AppendCrossesSmallFileThreshold) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Create("/a/f", 100 << 10).ok());  // 100 KB inline
  // +40 KB crosses the 128 KB threshold: inline data is dropped and a
  // block is allocated (no datanodes configured -> empty replica list).
  ASSERT_TRUE(RunOp(fs, [&](auto cb) {
                fs.client->Append("/a/f", 40 << 10, cb);
              }).ok());
  const auto r = fs.Open("/a/f");
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.inode.size, 140 << 10);
  EXPECT_FALSE(r.inode.has_inline_data);
  EXPECT_EQ(r.inode.num_blocks, 1);
  ASSERT_EQ(r.blocks.size(), 1u);
  EXPECT_EQ(r.blocks[0].num_bytes, 140 << 10);
  EXPECT_EQ(r.inline_bytes, 0);
}

TEST(HopsFsExtendedOps, AppendToDirectoryFails) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  EXPECT_EQ(RunOp(fs, [&](auto cb) { fs.client->Append("/d", 10, cb); })
                .code(),
            Code::kFailedPrecondition);
}

TEST(HopsFsExtendedOps, ContentSummaryCountsSubtree) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/proj").ok());
  ASSERT_TRUE(fs.Mkdir("/proj/src").ok());
  ASSERT_TRUE(fs.Mkdir("/proj/doc").ok());
  ASSERT_TRUE(fs.Create("/proj/readme", 100).ok());
  ASSERT_TRUE(fs.Create("/proj/src/main", 2000).ok());
  ASSERT_TRUE(fs.Create("/proj/src/util", 3000).ok());

  Status status = Internal("hung");
  int64_t files = 0, dirs = 0, bytes = 0;
  bool done = false;
  fs.client->ContentSummary("/proj", [&](Status s, int64_t f, int64_t d,
                                         int64_t b) {
    status = s;
    files = f;
    dirs = d;
    bytes = b;
    done = true;
  });
  while (!done) fs.sim->RunFor(kMillisecond);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(files, 3);
  EXPECT_EQ(dirs, 3);  // proj, src, doc
  EXPECT_EQ(bytes, 5100);
}

TEST(HopsFsExtendedOps, ContentSummaryOfFile) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/x").ok());
  ASSERT_TRUE(fs.Create("/x/f", 42).ok());
  int64_t files = 0, dirs = 0, bytes = 0;
  bool done = false;
  fs.client->ContentSummary("/x/f", [&](Status s, int64_t f, int64_t d,
                                        int64_t b) {
    ASSERT_TRUE(s.ok());
    files = f;
    dirs = d;
    bytes = b;
    done = true;
  });
  while (!done) fs.sim->RunFor(kMillisecond);
  EXPECT_EQ(files, 1);
  EXPECT_EQ(dirs, 0);
  EXPECT_EQ(bytes, 42);
}

TEST(HopsFsExtendedOps, DeleteRecursiveRemovesSubtree) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/rm").ok());
  ASSERT_TRUE(fs.Mkdir("/rm/a").ok());
  ASSERT_TRUE(fs.Mkdir("/rm/a/b").ok());
  ASSERT_TRUE(fs.Create("/rm/a/b/f1", 500).ok());
  ASSERT_TRUE(fs.Create("/rm/top").ok());
  ASSERT_TRUE(RunOp(fs, [&](auto cb) {
                fs.client->DeleteRecursive("/rm/a", cb);
              }).ok());
  EXPECT_EQ(fs.Stat("/rm/a").code(), Code::kNotFound);
  EXPECT_EQ(fs.Stat("/rm/a/b/f1").code(), Code::kNotFound);
  EXPECT_TRUE(fs.Stat("/rm/top").ok()) << "sibling must survive";
  EXPECT_TRUE(fs.Stat("/rm").ok()) << "parent must survive";
}

TEST(HopsFsExtendedOps, DeleteRecursiveOfFileActsLikeDelete) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/rf").ok());
  ASSERT_TRUE(fs.Create("/rf/f").ok());
  ASSERT_TRUE(RunOp(fs, [&](auto cb) {
                fs.client->DeleteRecursive("/rf/f", cb);
              }).ok());
  EXPECT_EQ(fs.Stat("/rf/f").code(), Code::kNotFound);
}

// rmr removes what rm removes: with the inode go its block rows, the
// block-index rows and, after the commit, the replicas on the datanodes.
TEST(HopsFsExtendedOps, DeleteRecursiveRemovesBlocks) {
  TestFs fs(PaperSetup::kHopsFsCl_3_3, 3, /*block_dns=*/6);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/big", 300 << 10).ok());
  const FsResult st = fs.StatFull("/d/big");
  ASSERT_TRUE(st.status.ok());
  ASSERT_EQ(st.inode.num_blocks, 1);
  const FsTables& tables = fs.deployment->tables();
  blocks::DnRegistry& dns = *fs.deployment->dn_registry();
  const auto index_rows = [&] {
    size_t n = 0;
    for (blocks::DnId d = 0; d < dns.size(); ++d) {
      n += CountRows(fs, tables.dn_blocks, DnBlocksPrefix(d));
    }
    return n;
  };
  const auto replicas = [&] {
    int64_t n = 0;
    for (blocks::DnId d = 0; d < dns.size(); ++d) n += dns.dn(d)->block_count();
    return n;
  };
  ASSERT_EQ(CountRows(fs, tables.blocks, BlocksOfInodePrefix(st.inode.id)),
            1u);
  ASSERT_EQ(index_rows(), 3u);
  ASSERT_EQ(replicas(), 3);

  ASSERT_TRUE(RunOp(fs, [&](auto cb) {
                fs.client->DeleteRecursive("/d", cb);
              }).ok());
  fs.sim->RunFor(Seconds(1));
  EXPECT_EQ(fs.Stat("/d/big").code(), Code::kNotFound);
  EXPECT_EQ(CountRows(fs, tables.blocks, BlocksOfInodePrefix(st.inode.id)),
            0u);
  EXPECT_EQ(index_rows(), 0u);
  EXPECT_EQ(replicas(), 0);
}

// Large-file block transfers: every transfer answers the caller, whether
// its datanode is dead, returns an error, or the namenode's reply came
// after the client's RPC timer had already fired. A 300,000-byte file is
// one block with one replica per AZ; the client sits in AZ 0.
constexpr int64_t kBigFile = 300000;

// The replicas of `path`'s only block, read through an open.
std::vector<blocks::DnId> Replicas(TestFs& fs, const std::string& path) {
  const FsResult open = fs.Open(path);
  EXPECT_TRUE(open.status.ok());
  EXPECT_EQ(open.blocks.size(), 1u);
  return open.blocks.empty() ? std::vector<blocks::DnId>{}
                             : open.blocks[0].replicas;
}

blocks::DnId ReplicaInAz(TestFs& fs, const std::vector<blocks::DnId>& reps,
                         AzId az) {
  for (blocks::DnId d : reps) {
    if (fs.deployment->dn_registry()->az_of(d) == az) return d;
  }
  return -1;
}

TEST(HopsFsBlockIo, ReadFailsOverFromDeadDatanode) {
  TestFs fs(PaperSetup::kHopsFsCl_3_3, 3, /*block_dns=*/9);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/big", kBigFile).ok());
  const std::vector<blocks::DnId> reps = Replicas(fs, "/d/big");
  ASSERT_EQ(reps.size(), 3u);
  const blocks::DnId local = ReplicaInAz(fs, reps, 0);
  ASSERT_GE(local, 0);
  blocks::DnRegistry& dns = *fs.deployment->dn_registry();

  // The AZ-local replica is dead: the read is served by another replica,
  // well inside the deadline.
  dns.dn(local)->Crash();
  const Nanos start = fs.sim->now();
  EXPECT_TRUE(fs.ReadFile("/d/big").ok());
  EXPECT_LT(fs.sim->now() - start, 6 * kSecond);

  // No replica answers: UNAVAILABLE, not a hang. (Every datanode goes:
  // the repair may already have placed the block on a new one.)
  for (blocks::DnId d = 0; d < dns.size(); ++d) dns.dn(d)->Crash();
  EXPECT_EQ(fs.ReadFile("/d/big").code(), Code::kUnavailable);
}

TEST(HopsFsBlockIo, ReadRightAfterADatanodeCrashSkipsIt) {
  TestFs fs(PaperSetup::kHopsFsCl_3_3, 3, /*block_dns=*/9);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/big", kBigFile).ok());
  const std::vector<blocks::DnId> reps = Replicas(fs, "/d/big");
  ASSERT_EQ(reps.size(), 3u);
  // Healthy, the open lists the reader's AZ-local replica first.
  const blocks::DnId local = ReplicaInAz(fs, reps, 0);
  EXPECT_EQ(reps[0], local);

  // The registry counts a crashed datanode dead at once, so the open
  // lists it last and the read goes straight to a live replica in
  // another AZ, instead of first waiting out the client's 5 s RPC
  // timeout on the dead one.
  fs.deployment->dn_registry()->dn(local)->Crash();
  const Nanos start = fs.sim->now();
  EXPECT_TRUE(fs.ReadFile("/d/big").ok());
  EXPECT_LT(fs.sim->now() - start, 100 * kMillisecond);
}

TEST(HopsFsBlockIo, ReadSeesDatanodeErrors) {
  TestFs fs(PaperSetup::kHopsFsCl_3_3, 3, /*block_dns=*/9);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/big", kBigFile).ok());
  const std::vector<blocks::DnId> reps = Replicas(fs, "/d/big");
  ASSERT_EQ(reps.size(), 3u);
  const uint64_t block = fs.Open("/d/big").blocks[0].block_id;
  blocks::DnRegistry& dns = *fs.deployment->dn_registry();

  // The AZ-local replica lost the block: its NOT_FOUND sends the read to
  // a replica in another AZ, so the block's bytes cross an AZ boundary.
  dns.dn(ReplicaInAz(fs, reps, 0))->DeleteBlock(block);
  fs.sim->RunFor(kSecond);
  const int64_t inter_az = fs.deployment->network().inter_az_bytes();
  EXPECT_TRUE(fs.ReadFile("/d/big").ok());
  EXPECT_GE(fs.deployment->network().inter_az_bytes() - inter_az, kBigFile);

  // Every replica lost it: the read fails instead of reporting OK.
  for (blocks::DnId d : reps) dns.dn(d)->DeleteBlock(block);
  fs.sim->RunFor(kSecond);
  EXPECT_EQ(fs.ReadFile("/d/big").code(), Code::kUnavailable);
}

TEST(HopsFsBlockIo, LateNamenodeReplyStillWritesTheBlock) {
  // The create's NN round trip outlasts a 3 ms RPC timer, so the reply
  // that commits the create arrives after its attempt timed out. The
  // client accepts it, and must still stream the block to its replicas
  // before it reports OK.
  TestFs fs(PaperSetup::kHopsFsCl_3_3, 3, /*block_dns=*/9,
            [](DeploymentOptions& o) {
              o.client.rpc_timeout = 3 * kMillisecond;
            });
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/big", kBigFile).ok());
  blocks::DnRegistry& dns = *fs.deployment->dn_registry();
  int64_t replicas = 0;
  for (blocks::DnId d = 0; d < dns.size(); ++d) {
    replicas += dns.dn(d)->block_count();
  }
  EXPECT_EQ(replicas, 3);
}

// With every block datanode dead, a write that needs a new block fails
// retryably and stores nothing, as HDFS refuses an addBlock below its
// minimum replication: no block row, no inode for a create, the old
// bytes for an append, and no read that reports bytes nothing holds.
TEST(HopsFsBlockIo, WriteWithNoLiveDatanodeFailsAndStoresNothing) {
  TestFs fs(PaperSetup::kHopsFsCl_3_3, 3, /*block_dns=*/3);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/small", 1000).ok());
  const InodeId small = fs.StatFull("/d/small").inode.id;
  blocks::DnRegistry& dns = *fs.deployment->dn_registry();
  for (blocks::DnId d = 0; d < dns.size(); ++d) dns.dn(d)->Crash();
  fs.sim->RunFor(Seconds(20));  // their heartbeats stop: all count as dead

  EXPECT_EQ(fs.Create("/d/big", kBigFile).code(), Code::kUnavailable);
  EXPECT_EQ(fs.Stat("/d/big").code(), Code::kNotFound);
  EXPECT_FALSE(fs.ReadFile("/d/big").ok());

  EXPECT_EQ(RunOp(fs, [&](auto cb) {
              fs.client->Append("/d/small", kBigFile, cb);
            }).code(),
            Code::kUnavailable);
  const FsResult open = fs.Open("/d/small");
  ASSERT_TRUE(open.status.ok());
  EXPECT_EQ(open.inode.size, 1000);
  EXPECT_TRUE(open.blocks.empty());
  EXPECT_EQ(CountRows(fs, fs.deployment->tables().blocks,
                      BlocksOfInodePrefix(small)),
            0u);
  EXPECT_TRUE(fs.ReadFile("/d/small").ok());
}

// A block row that names no replica, written here behind the namenode's
// back, fails the read instead of letting it skip the block's bytes.
TEST(HopsFsBlockIo, ReadOfBlockWithNoReplicaFails) {
  TestFs fs(PaperSetup::kHopsFsCl_3_3, 3, /*block_dns=*/3);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/big", kBigFile).ok());
  const FsResult open = fs.Open("/d/big");
  ASSERT_EQ(open.blocks.size(), 1u);
  BlockRow row = open.blocks[0];
  row.replicas.clear();
  const ndb::TableId blocks = fs.deployment->tables().blocks;
  const std::string key = BlockKey(open.inode.id, 0);
  ndb::NdbApiNode api(fs.deployment->ndb(),
                      fs.deployment->topology().AddHost(0, "probe"), 0);
  const ndb::TxnId txn = api.Begin(blocks, key);
  bool done = false;
  api.Update(txn, blocks, ndb::Key(key), row.Encode(), [&](Code code) {
    EXPECT_EQ(code, Code::kOk);
    api.Commit(txn, [&](Code) { done = true; });
  });
  while (!done) fs.sim->RunFor(kMillisecond);

  EXPECT_EQ(fs.ReadFile("/d/big").code(), Code::kUnavailable);
}

TEST(HopsFsExtendedOps, DeleteRecursiveRootRejected) {
  TestFs fs;
  EXPECT_EQ(RunOp(fs, [&](auto cb) {
              fs.client->DeleteRecursive("/", cb);
            }).code(),
            Code::kInvalidArgument);
}

// Ops refused before any NDB work still began a transaction: each must
// end it, or the namenode's API node keeps one entry per call.
TEST(HopsFsExtendedOps, RejectedOpsLeaveNoOpenTransaction) {
  TestFs fs;
  const auto open_txns = [&] {
    fs.sim->RunFor(kSecond);
    size_t open = 0;
    for (const auto& nn : fs.deployment->namenodes()) {
      open += nn->ndb_api().open_txns();
    }
    return open;
  };
  ASSERT_EQ(open_txns(), 0u);
  EXPECT_EQ(fs.Mkdir("/").code(), Code::kAlreadyExists);
  EXPECT_EQ(open_txns(), 0u) << "mkdir /";
  EXPECT_EQ(RunOp(fs, [&](auto cb) {
              fs.client->DeleteRecursive("/", cb);
            }).code(),
            Code::kInvalidArgument);
  EXPECT_EQ(open_txns(), 0u) << "rmr /";
  EXPECT_EQ(fs.Rename("/", "/x").code(), Code::kInvalidArgument);
  EXPECT_EQ(fs.Rename("/a", "/a/b").code(), Code::kInvalidArgument);
  EXPECT_EQ(open_txns(), 0u) << "rename with bad paths";
}

}  // namespace
}  // namespace repro::hopsfs
