// Signal transport lifetime tests: every pooled signal record returns to
// the pool (live count back at zero once the engine has drained) whether
// its message is delivered, dropped by a partition, sent to a crashed
// datanode, answered to an API node that no longer exists, or still
// queued when the cluster is torn down. Meant to run clean under
// ASan/UBSan: the pool outlives every pending event that holds a record.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "ndb_test_util.h"

namespace repro::ndb {
namespace {

using testing::TestCluster;

// A datanode in a different AZ from node 0.
NodeId RemotePeer(NdbCluster& cluster) {
  NodeId peer = 1;
  while (cluster.layout().az_of(peer) == cluster.layout().az_of(0)) ++peer;
  return peer;
}

void SendCommittedAck(NdbCluster& cluster, NodeId from, NodeId to) {
  Transport& t = cluster.transport();
  t.Send(t.New(TxnAck{777}), SignalKind::kCommitted, from, to, 64);
}

TEST(SignalPool, DeliveredSignalsReturnTheirRecords) {
  TestCluster tc;
  const SignalPool::Handle pool = tc.cluster->transport().pool();
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "1/a", "v"), Code::kOk);
  EXPECT_EQ(tc.ReadCommitted(tc.inode_table, "1/a").second, "v");
  tc.sim->Run();
  EXPECT_EQ(pool->live(), 0u);
  EXPECT_GT(pool->capacity(), 0u);
}

TEST(SignalPool, MessageDroppedByPartitionReturnsItsRecord) {
  TestCluster tc;
  NdbCluster& cluster = *tc.cluster;
  const SignalPool::Handle pool = cluster.transport().pool();
  const NodeId peer = RemotePeer(cluster);
  // Partitioned while queued at the SEND thread: the wire never takes it.
  SendCommittedAck(cluster, 0, peer);
  EXPECT_EQ(pool->live(), 1u);
  tc.topology->PartitionAzs(cluster.layout().az_of(0),
                            cluster.layout().az_of(peer));
  tc.sim->Run();
  EXPECT_EQ(pool->live(), 0u);
  // Partitioned while on the wire: dropped at arrival.
  tc.topology->HealAllPartitions();
  SendCommittedAck(cluster, 0, peer);
  tc.sim->RunFor(kSendPerMsg);
  tc.topology->PartitionAzs(cluster.layout().az_of(0),
                            cluster.layout().az_of(peer));
  tc.sim->Run();
  EXPECT_EQ(pool->live(), 0u);
}

TEST(SignalPool, MessageToCrashedReceiverReturnsItsRecord) {
  TestCluster tc;
  NdbCluster& cluster = *tc.cluster;
  const SignalPool::Handle pool = cluster.transport().pool();
  const NodeId peer = RemotePeer(cluster);
  SendCommittedAck(cluster, 0, peer);  // in flight when the peer dies
  cluster.CrashDatanode(peer);
  SendCommittedAck(cluster, 0, peer);  // sent to a dead host
  EXPECT_EQ(pool->live(), 2u);
  tc.sim->Run();
  EXPECT_EQ(pool->live(), 0u);
}

TEST(SignalPool, ReplyToUnregisteredApiNodeReturnsItsRecord) {
  TestCluster tc;
  NdbCluster& cluster = *tc.cluster;
  const SignalPool::Handle pool = cluster.transport().pool();
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "2/b", "v"), Code::kOk);
  tc.sim->Run();
  auto api = std::make_unique<NdbApiNode>(
      cluster, tc.topology->AddHost(1, "api-1"), 1);
  const TxnId txn = api->Begin(tc.inode_table, "2/b");
  bool answered = false;
  api->Read(txn, tc.inode_table, "2/b", LockMode::kReadCommitted,
            [&](Code, RowImage) { answered = true; });
  // Step until the serving LDM has taken the read, then drop the API
  // node: the reply (the same record) is still to be sent.
  const auto reads_served = [&] {
    int64_t n = 0;
    for (NodeId d = 0; d < cluster.num_datanodes(); ++d) {
      n += cluster.datanode(d).protocol_stats().committed_reads;
    }
    return n;
  };
  while (reads_served() == 0 && tc.sim->RunOne()) {
  }
  ASSERT_EQ(reads_served(), 1);
  ASSERT_EQ(pool->live(), 1u);
  api.reset();
  tc.sim->Run();
  EXPECT_FALSE(answered);
  EXPECT_EQ(pool->live(), 0u);
}

TEST(SignalPool, ClusterDestroyedWithSignalsQueuedReleasesThem) {
  TestCluster tc;
  const SignalPool::Handle pool = tc.cluster->transport().pool();
  const NodeId peer = RemotePeer(*tc.cluster);
  for (int i = 0; i < 8; ++i) SendCommittedAck(*tc.cluster, 0, peer);
  const TxnId txn = tc.api->Begin(tc.inode_table, "3/c");
  tc.api->Write(txn, tc.inode_table, "3/c", RowImage::Of("v"), [](Code) {});
  ASSERT_GT(pool->live(), 0u);
  // Tear down in the usual member order: API node and cluster first, the
  // engine (with its still-queued events) last.
  tc.api.reset();
  tc.cluster.reset();
  EXPECT_GT(pool->live(), 0u);  // records still owned by queued events
  tc.sim.reset();
  EXPECT_EQ(pool->live(), 0u);
}

TEST(SignalPool, PoolWithoutHandlesOutlivesQueuedSignals) {
  // No handle kept: the pool frees itself once the engine drops the last
  // queued record (ASan flags a use-after-free or a leak otherwise).
  TestCluster tc;
  const NodeId peer = RemotePeer(*tc.cluster);
  for (int i = 0; i < 8; ++i) SendCommittedAck(*tc.cluster, 0, peer);
  tc.api.reset();
  tc.cluster.reset();
  tc.sim.reset();
}

TEST(SignalPool, RecordsAreRecycled) {
  TestCluster tc;
  NdbCluster& cluster = *tc.cluster;
  const SignalPool::Handle pool = cluster.transport().pool();
  const NodeId peer = RemotePeer(cluster);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) SendCommittedAck(cluster, 0, peer);
    tc.sim->Run();
  }
  EXPECT_EQ(pool->live(), 0u);
  EXPECT_LE(pool->capacity(), 4u);  // three rounds of four reuse one set
}

}  // namespace
}  // namespace repro::ndb
