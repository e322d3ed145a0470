// Tests for the NDB linear-2PC commit protocol, read routing, table
// options, and transaction semantics (§II-B2, §IV-A).
#include <gtest/gtest.h>

#include "ndb_test_util.h"

namespace repro::ndb {
namespace {

using testing::TestCluster;

TEST(NdbCommit, InsertThenReadCommitted) {
  TestCluster tc;
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "1/foo", "hello"), Code::kOk);
  auto [code, value] = tc.ReadCommitted(tc.inode_table, "1/foo");
  EXPECT_EQ(code, Code::kOk);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value, "hello");
}

TEST(NdbCommit, ReadMissingRowReturnsNoValue) {
  TestCluster tc;
  auto [code, value] = tc.ReadCommitted(tc.inode_table, "1/missing");
  EXPECT_EQ(code, Code::kOk);
  EXPECT_FALSE(value.has_value());
}

TEST(NdbCommit, InsertDuplicateFails) {
  TestCluster tc;
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "1/foo", "a"), Code::kOk);
  EXPECT_EQ(tc.InsertCommit(tc.inode_table, "1/foo", "b"),
            Code::kAlreadyExists);
  // The original value survives the failed insert.
  auto [code, value] = tc.ReadCommitted(tc.inode_table, "1/foo");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value, "a");
}

TEST(NdbCommit, UpdateRequiresExistingRow) {
  TestCluster tc;
  const TxnId txn = tc.api->Begin(tc.inode_table, "1/none");
  Code got = Code::kOk;
  bool done = false;
  tc.api->Update(txn, tc.inode_table, "1/none", RowImage::Of("x"), [&](Code c) {
    got = c;
    done = true;
  });
  tc.RunUntil(done);
  EXPECT_EQ(got, Code::kNotFound);
}

TEST(NdbCommit, DeleteRemovesRow) {
  TestCluster tc;
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "1/foo", "v"), Code::kOk);
  const TxnId txn = tc.api->Begin(tc.inode_table, "1/foo");
  bool done = false;
  Code commit_code = Code::kInternal;
  tc.api->Delete(txn, tc.inode_table, "1/foo", [&](Code c) {
    ASSERT_EQ(c, Code::kOk);
    tc.api->Commit(txn, [&](Code c2) {
      commit_code = c2;
      done = true;
    });
  });
  tc.RunUntil(done);
  EXPECT_EQ(commit_code, Code::kOk);
  auto [code, value] = tc.ReadCommitted(tc.inode_table, "1/foo");
  EXPECT_FALSE(value.has_value());
}

TEST(NdbCommit, AbortDiscardsWrites) {
  TestCluster tc;
  const TxnId txn = tc.api->Begin(tc.inode_table, "1/foo");
  bool inserted = false;
  tc.api->Insert(txn, tc.inode_table, "1/foo", RowImage::Of("v"),
                 [&](Code c) {
                   ASSERT_EQ(c, Code::kOk);
                   inserted = true;
                 });
  tc.RunUntil(inserted);
  tc.api->Abort(txn);
  tc.sim->RunFor(Seconds(1));
  auto [code, value] = tc.ReadCommitted(tc.inode_table, "1/foo");
  EXPECT_FALSE(value.has_value());
  // No lock leaked on the aborted row.
  for (int n = 0; n < tc.cluster->num_datanodes(); ++n) {
    EXPECT_FALSE(tc.cluster->datanode(n).locks().IsLocked(tc.inode_table,
                                                          "1/foo"));
  }
}

TEST(NdbCommit, ReadYourOwnUncommittedWrite) {
  TestCluster tc;
  const TxnId txn = tc.api->Begin(tc.inode_table, "1/foo");
  bool done = false;
  RowImage seen;
  const RowImage mine = RowImage::Of("mine");
  tc.api->Insert(txn, tc.inode_table, "1/foo", mine, [&](Code c) {
    ASSERT_EQ(c, Code::kOk);
    // Locked read within the same transaction sees the pending write.
    tc.api->Read(txn, tc.inode_table, "1/foo", LockMode::kShared,
                 [&](Code c2, RowImage v) {
                   EXPECT_EQ(c2, Code::kOk);
                   seen = std::move(v);
                   tc.api->Commit(txn, [&](Code) { done = true; });
                 });
  });
  tc.RunUntil(done);
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen, "mine");
}

// The core Read Backup guarantee (§IV-A3): after the commit ack, *every*
// replica — not just the primary — serves the new value, because the ack
// is delayed until all Completed messages arrive.
TEST(NdbCommit, ReadBackupReadYourWritesFromEveryReplica) {
  TestCluster tc;
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "7/f", "v2"), Code::kOk);
  const PartitionId part =
      tc.cluster->layout().PartitionOf(tc.inode_table, "7/f");
  for (NodeId n : tc.cluster->layout().ReplicaChain(part)) {
    auto v = tc.cluster->datanode(n).store().Read(tc.inode_table, "7/f", 0);
    ASSERT_TRUE(v.has_value()) << "replica " << n << " missing the row";
    EXPECT_EQ(v, "v2") << "replica " << n << " is stale after commit ack";
  }
}

// Without Read Backup the ack is sent at Committed: the primary is
// guaranteed current, and committed reads are routed to it.
TEST(NdbCommit, ClassicCommitPrimaryCurrentAfterAck) {
  TestCluster tc(6, 3, /*az_aware=*/false, /*read_backup=*/false);
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "9/f", "val"), Code::kOk);
  const PartitionId part =
      tc.cluster->layout().PartitionOf(tc.inode_table, "9/f");
  const NodeId primary = tc.cluster->layout().PrimaryOf(part);
  auto v = tc.cluster->datanode(primary).store().Read(tc.inode_table, "9/f", 0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v, "val");
}

TEST(NdbCommit, ScanPrefixReturnsChildrenInOrder) {
  TestCluster tc;
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "5/a", "1"), Code::kOk);
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "5/b", "2"), Code::kOk);
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "5/c", "3"), Code::kOk);
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "51/x", "other"), Code::kOk);

  const TxnId txn = tc.api->Begin(tc.inode_table, "5/");
  bool done = false;
  NdbApiNode::Rows rows;
  tc.api->ScanPrefix(txn, tc.inode_table, "5/",
                     [&](Code c, NdbApiNode::Rows r) {
                       EXPECT_EQ(c, Code::kOk);
                       rows = std::move(r);
                       tc.api->Commit(txn, [&](Code) { done = true; });
                     });
  tc.RunUntil(done);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, "5/a");
  EXPECT_EQ(rows[1].first, "5/b");
  EXPECT_EQ(rows[2].first, "5/c");
}

TEST(NdbCommit, ExclusiveLockSerialisesConflictingWriters) {
  TestCluster tc;
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "3/f", "v0"), Code::kOk);

  // Txn A takes an exclusive read lock and holds it.
  const TxnId a = tc.api->Begin(tc.inode_table, "3/f");
  bool a_locked = false;
  tc.api->Read(a, tc.inode_table, "3/f", LockMode::kExclusive,
               [&](Code c, RowImage) {
                 ASSERT_EQ(c, Code::kOk);
                 a_locked = true;
               });
  tc.RunUntil(a_locked);

  // Txn B's update must not complete while A holds the lock.
  const TxnId b = tc.api->Begin(tc.inode_table, "3/f");
  bool b_done = false;
  Code b_code = Code::kInternal;
  tc.api->Update(b, tc.inode_table, "3/f", RowImage::Of("v1"), [&](Code c) {
    b_code = c;
    b_done = true;
  });
  tc.sim->RunFor(Millis(50));
  EXPECT_FALSE(b_done) << "writer bypassed an exclusive lock";

  // Commit A; B's prepare should now be granted.
  bool a_done = false;
  tc.api->Commit(a, [&](Code c) {
    EXPECT_EQ(c, Code::kOk);
    a_done = true;
  });
  tc.RunUntil(a_done);
  tc.RunUntil(b_done);
  EXPECT_EQ(b_code, Code::kOk);
}

TEST(NdbCommit, SharedLocksCoexist) {
  TestCluster tc;
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "4/f", "v"), Code::kOk);
  const TxnId a = tc.api->Begin(tc.inode_table, "4/f");
  const TxnId b = tc.api->Begin(tc.inode_table, "4/f");
  int granted = 0;
  bool done_a = false, done_b = false;
  tc.api->Read(a, tc.inode_table, "4/f", LockMode::kShared,
               [&](Code c, RowImage) {
                 EXPECT_EQ(c, Code::kOk);
                 ++granted;
                 done_a = true;
               });
  tc.api->Read(b, tc.inode_table, "4/f", LockMode::kShared,
               [&](Code c, RowImage) {
                 EXPECT_EQ(c, Code::kOk);
                 ++granted;
                 done_b = true;
               });
  tc.RunUntil(done_a);
  tc.RunUntil(done_b);
  EXPECT_EQ(granted, 2);
  tc.api->Abort(a);
  tc.api->Abort(b);
}

TEST(NdbCommit, LockWaitTimeoutBreaksDeadlock) {
  TestCluster tc;
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "8/x", "x"), Code::kOk);
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "8/y", "y"), Code::kOk);

  // A locks x, B locks y, then each requests the other's row: deadlock.
  const TxnId a = tc.api->Begin(tc.inode_table, "8/x");
  const TxnId b = tc.api->Begin(tc.inode_table, "8/y");
  bool a_first = false, b_first = false;
  tc.api->Read(a, tc.inode_table, "8/x", LockMode::kExclusive,
               [&](Code c, auto) { a_first = c == Code::kOk; });
  tc.api->Read(b, tc.inode_table, "8/y", LockMode::kExclusive,
               [&](Code c, auto) { b_first = c == Code::kOk; });
  tc.RunUntil(a_first);
  tc.RunUntil(b_first);

  int failures = 0, successes = 0;
  bool a_second = false, b_second = false;
  tc.api->Read(a, tc.inode_table, "8/y", LockMode::kExclusive,
               [&](Code c, auto) {
                 (c == Code::kOk ? successes : failures) += 1;
                 a_second = true;
               });
  tc.api->Read(b, tc.inode_table, "8/x", LockMode::kExclusive,
               [&](Code c, auto) {
                 (c == Code::kOk ? successes : failures) += 1;
                 b_second = true;
               });
  tc.RunUntil(a_second, Seconds(10));
  tc.RunUntil(b_second, Seconds(10));
  // The deadlock-detection timeout must have broken at least one of them.
  EXPECT_GE(failures, 1);
  tc.api->Abort(a);
  tc.api->Abort(b);
}

TEST(NdbCommit, FullyReplicatedTableVisibleOnAllNodes) {
  TestCluster tc;
  ASSERT_EQ(tc.InsertCommit(tc.dict_table, "leader", "nn4"), Code::kOk);
  for (int n = 0; n < tc.cluster->num_datanodes(); ++n) {
    auto v = tc.cluster->datanode(n).store().Read(tc.dict_table, "leader", 0);
    ASSERT_TRUE(v.has_value()) << "node " << n;
    EXPECT_EQ(v, "nn4");
  }
}

}  // namespace
}  // namespace repro::ndb
