// Protocol-fidelity tests: the message complexity of the linear 2PC
// commit protocol must match Figure 2 of the paper exactly.
//
// For a transaction writing W rows with replication factor R:
//   * Prepare visits every replica of every row:            W * R
//   * Commit traverses each chain in reverse:               W * R
//   * Complete reaches every replica:                       W * R
// and with Read Backup the client ack is delayed until after the last
// Completed message (ack #14 instead of #10 in Fig. 2's numbering).
#include <gtest/gtest.h>

#include "ndb_test_util.h"

namespace repro::ndb {
namespace {

using testing::TestCluster;

NdbDatanode::ProtocolStats TotalStats(TestCluster& tc) {
  NdbDatanode::ProtocolStats total;
  for (int n = 0; n < tc.cluster->num_datanodes(); ++n) {
    const auto& s = tc.cluster->datanode(n).protocol_stats();
    total.prepares += s.prepares;
    total.commit_hops += s.commit_hops;
    total.completes += s.completes;
    total.committed_reads += s.committed_reads;
    total.locked_reads += s.locked_reads;
    total.scans += s.scans;
  }
  return total;
}

TEST(NdbProtocolFidelity, TwoRowTransactionMessageCounts) {
  // Fig. 2: a transaction writing two rows (r1, r2) to two different
  // partitions with R = 3 replicas each.
  TestCluster tc(6, 3);
  tc.cluster->ResetStats();

  const TxnId txn = tc.api->Begin(tc.inode_table, "100/r1");
  bool done = false;
  const RowImage v1 = RowImage::Of("v1");
  const RowImage v2 = RowImage::Of("v2");
  tc.api->Write(txn, tc.inode_table, "100/r1", v1, [&](Code c1) {
    ASSERT_EQ(c1, Code::kOk);
    tc.api->Write(txn, tc.inode_table, "200/r2", v2, [&](Code c2) {
      ASSERT_EQ(c2, Code::kOk);
      tc.api->Commit(txn, [&](Code c3) {
        ASSERT_EQ(c3, Code::kOk);
        done = true;
      });
    });
  });
  tc.RunUntil(done);
  tc.sim->RunFor(Seconds(1));  // drain the Complete phase

  const auto total = TotalStats(tc);
  EXPECT_EQ(total.prepares, 2 * 3) << "Prepare must visit every replica";
  EXPECT_EQ(total.commit_hops, 2 * 3) << "Commit chain must be linear";
  EXPECT_EQ(total.completes, 2 * 3) << "Complete must reach every replica";
  EXPECT_EQ(total.committed_reads, 0);
  EXPECT_EQ(total.locked_reads, 0);
}

TEST(NdbProtocolFidelity, ReplicationTwoShortensChains) {
  TestCluster tc(6, 2);
  tc.cluster->ResetStats();
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "7/row", "v"), Code::kOk);
  tc.sim->RunFor(Seconds(1));
  const auto total = TotalStats(tc);
  EXPECT_EQ(total.prepares, 2);
  EXPECT_EQ(total.commit_hops, 2);
  EXPECT_EQ(total.completes, 2);
}

TEST(NdbProtocolFidelity, CommittedReadIsSingleReplicaVisit) {
  TestCluster tc;
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "9/row", "v"), Code::kOk);
  tc.sim->RunFor(Seconds(1));
  tc.cluster->ResetStats();
  auto [code, value] = tc.ReadCommitted(tc.inode_table, "9/row");
  ASSERT_TRUE(value.has_value());
  const auto total = TotalStats(tc);
  EXPECT_EQ(total.committed_reads, 1)
      << "a committed read must touch exactly one replica";
  EXPECT_EQ(total.prepares + total.commit_hops + total.completes, 0);
}

TEST(NdbProtocolFidelity, ReadBackupDelaysAckUntilCompletePhase) {
  // With Read Backup the ack (message 14) follows every Completed; in
  // classic mode the ack (message 10) only follows the Committed from
  // the primary. Observable difference: at client-ack time, all backups
  // are already durable under Read Backup.
  for (bool read_backup : {true, false}) {
    TestCluster tc(6, 3, /*az_aware=*/read_backup, read_backup);
    const TxnId txn = tc.api->Begin(tc.inode_table, "55/x");
    bool acked = false;
    int replicas_current_at_ack = -1;
    const RowImage val = RowImage::Of("val");
    tc.api->Insert(txn, tc.inode_table, "55/x", val, [&](Code c) {
      ASSERT_EQ(c, Code::kOk);
      tc.api->Commit(txn, [&](Code c2) {
        ASSERT_EQ(c2, Code::kOk);
        acked = true;
        // Snapshot replica state at the exact ack instant.
        auto& layout = tc.cluster->layout();
        const PartitionId p = layout.PartitionOf(tc.inode_table, "55/x");
        replicas_current_at_ack = 0;
        for (NodeId n : layout.ReplicaChain(p)) {
          auto v =
              tc.cluster->datanode(n).store().Read(tc.inode_table, "55/x", 0);
          if (v == "val") ++replicas_current_at_ack;
        }
      });
    });
    tc.RunUntil(acked);
    if (read_backup) {
      EXPECT_EQ(replicas_current_at_ack, 3)
          << "Read Backup ack must imply every replica is current";
    } else {
      // Classic: only the primary is guaranteed at ack time.
      EXPECT_GE(replicas_current_at_ack, 1);
      EXPECT_LT(replicas_current_at_ack, 3)
          << "classic ack should precede the Complete phase (else the "
             "Read Backup option would be pointless)";
    }
  }
}

TEST(NdbProtocolFidelity, LockedReadGoesToPrimaryOnly) {
  TestCluster tc;
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "77/row", "v"), Code::kOk);
  tc.sim->RunFor(Seconds(1));
  tc.cluster->ResetStats();
  const TxnId txn = tc.api->Begin(tc.inode_table, "77/row");
  bool done = false;
  tc.api->Read(txn, tc.inode_table, "77/row", LockMode::kShared,
               [&](Code c, auto) {
                 ASSERT_EQ(c, Code::kOk);
                 tc.api->Commit(txn, [&](Code) { done = true; });
               });
  tc.RunUntil(done);
  const auto& layout = tc.cluster->layout();
  const PartitionId p = layout.PartitionOf(tc.inode_table, "77/row");
  const NodeId primary = tc.cluster->layout().PrimaryOf(p);
  EXPECT_EQ(tc.cluster->datanode(primary).protocol_stats().locked_reads, 1);
  EXPECT_EQ(TotalStats(tc).locked_reads, 1);
}

}  // namespace
}  // namespace repro::ndb
