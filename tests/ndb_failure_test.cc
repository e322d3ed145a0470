// Failure-handling tests for the NDB substrate: heartbeat-driven failure
// detection, arbitration, split-brain resolution, cluster viability, and
// node recovery (restart + data resync + rejoin).
#include <gtest/gtest.h>

#include "ndb_test_util.h"
#include "util/strings.h"

namespace repro::ndb {
namespace {

using testing::TestCluster;

TEST(NdbFailure, HeartbeatsDetectCrashedNode) {
  TestCluster tc;
  tc.cluster->StartProtocols();
  tc.sim->RunFor(Seconds(1));
  ASSERT_TRUE(tc.cluster->layout().alive(2));
  // Crash the host without telling the cluster; heartbeats must notice.
  tc.topology->SetHostUp(tc.cluster->datanode(2).host(), false);
  tc.cluster->datanode(2).Shutdown();
  tc.sim->RunFor(Seconds(2));
  EXPECT_FALSE(tc.cluster->layout().alive(2));
  EXPECT_TRUE(tc.cluster->cluster_up());
}

TEST(NdbFailure, WritesContinueAfterNodeFailure) {
  TestCluster tc;
  tc.cluster->StartProtocols();
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "1/pre", "v"), Code::kOk);
  tc.cluster->CrashDatanode(0);
  tc.sim->RunFor(Seconds(2));
  // All partitions still usable: survivors promoted their backups.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(tc.InsertCommit(tc.inode_table, StrFormat("%d/post", i), "v"),
              Code::kOk)
        << "write " << i << " failed after node crash";
  }
}

TEST(NdbFailure, LosingWholeNodeGroupStopsTheCluster) {
  // 6 nodes, RF 3 -> 2 groups; group 0 = nodes {0, 2, 4}.
  TestCluster tc;
  tc.cluster->StartProtocols();
  tc.cluster->CrashDatanode(0);
  tc.sim->RunFor(Seconds(2));
  EXPECT_TRUE(tc.cluster->cluster_up());
  tc.cluster->CrashDatanode(2);
  tc.sim->RunFor(Seconds(2));
  EXPECT_TRUE(tc.cluster->cluster_up()) << "group still has node 4";
  tc.cluster->CrashDatanode(4);
  tc.sim->RunFor(Seconds(2));
  EXPECT_FALSE(tc.cluster->cluster_up())
      << "a whole node group is gone: no copy of its partitions remains";
}

TEST(NdbFailure, PartitionMinorityShutsDownMajorityServes) {
  TestCluster tc;  // RF=3 across AZ 0,1,2; arbitrator mgmt in AZ 0
  tc.cluster->StartProtocols();
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "1/x", "v"), Code::kOk);

  tc.topology->PartitionAzs(2, 0);
  tc.topology->PartitionAzs(2, 1);
  tc.sim->RunFor(Seconds(2));

  auto& layout = tc.cluster->layout();
  for (int n = 0; n < tc.cluster->num_datanodes(); ++n) {
    if (layout.az_of(n) == 2) {
      EXPECT_FALSE(layout.alive(n)) << "AZ-2 node " << n << " survived";
    } else {
      EXPECT_TRUE(layout.alive(n)) << "majority node " << n << " died";
    }
  }
  EXPECT_TRUE(tc.cluster->cluster_up());
  // The majority side keeps serving (the API node is in AZ 0).
  EXPECT_EQ(tc.InsertCommit(tc.inode_table, "1/y", "w"), Code::kOk);
}

// An arbitration reply cancels the timeout of the request it answers, by
// the Timer that request carried. A late reply to an earlier request
// carries that request's spent timer, so it must leave a newer request's
// timeout armed: a node that still cannot hear the arbitrator shuts down
// on time.
TEST(NdbFailure, LateArbitrationReplyLeavesNewerTimeoutArmed) {
  TestCluster tc;  // arbitrator: mgmt node 0, in AZ 0
  tc.cluster->StartProtocols();
  tc.sim->RunFor(Seconds(1));
  const Simulation::Timer spent = tc.sim->After(0, [] {});
  tc.sim->RunFor(Micros(1));

  // AZ 1 stops hearing AZ 0: its nodes suspect the AZ-0 nodes and ask the
  // arbitrator, whose replies are lost on the same link.
  auto& layout = tc.cluster->layout();
  NodeId r = -1;
  NodeId az0 = -1;
  for (NodeId n = tc.cluster->num_datanodes() - 1; n >= 0; --n) {
    if (layout.az_of(n) == 1) r = n;
    if (layout.az_of(n) == 0) az0 = n;
  }
  tc.network->SetDropProbability(0, 1, 1.0);
  const auto& log = tc.cluster->mgmt(0).decision_log();
  const auto asked_at = [&]() -> Nanos {
    for (const auto& d : log) {
      if (d.requester == r) return d.time;
    }
    return -1;
  };
  const Nanos deadline = tc.sim->now() + Seconds(2);
  while (asked_at() < 0 && tc.sim->now() < deadline) {
    tc.sim->RunFor(Micros(50));
  }
  ASSERT_GE(asked_at(), 0) << "node " << r << " never asked the arbitrator";
  ASSERT_TRUE(layout.alive(r));

  // The late reply to an earlier request, granted with the AZ-0 node as
  // suspect, reaches r through the AZ-1 management node.
  Transport& transport = tc.cluster->transport();
  transport.Send(transport.New(ArbReply{true, {az0}, spent}),
                 SignalKind::kArbReply, /*src=*/1, /*dst=*/r, 64);
  tc.sim->RunUntil(asked_at() + kArbitrationTimeout);
  EXPECT_FALSE(layout.alive(az0)) << "the late reply was not delivered";
  EXPECT_FALSE(layout.alive(r))
      << "the late reply disarmed the newer request's timeout";
}

TEST(NdbFailure, RestartResyncsDataAndRejoins) {
  TestCluster tc;
  tc.cluster->StartProtocols();
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "5/before", "old"), Code::kOk);

  tc.cluster->CrashDatanode(0);
  tc.sim->RunFor(Seconds(2));
  ASSERT_FALSE(tc.cluster->layout().alive(0));

  // Writes land while the node is down; it must learn them on rejoin.
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "5/during", "missed"), Code::kOk);
  bool rejoined = false;
  tc.cluster->RestartDatanode(0, [&] { rejoined = true; });
  tc.RunUntil(rejoined, Seconds(60));
  EXPECT_TRUE(tc.cluster->layout().alive(0));

  // The rejoined node holds every row of its partitions, including those
  // written while it was down.
  auto& layout = tc.cluster->layout();
  for (const char* key : {"5/before", "5/during"}) {
    const PartitionId p = layout.PartitionOf(tc.inode_table, key);
    bool replica_of_key = false;
    for (NodeId r : layout.ReplicaChain(p)) replica_of_key |= (r == 0);
    if (!replica_of_key) continue;
    auto v = tc.cluster->datanode(0).store().Read(tc.inode_table, key, 0);
    EXPECT_TRUE(v.has_value()) << "rejoined node missing " << key;
  }

  // And the cluster keeps working with it back in rotation.
  tc.sim->RunFor(Seconds(1));
  EXPECT_EQ(tc.InsertCommit(tc.inode_table, "5/after", "new"), Code::kOk);
}

TEST(NdbFailure, RestartedNodeConvergesWithPeers) {
  TestCluster tc;
  tc.cluster->StartProtocols();
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(tc.InsertCommit(tc.inode_table, StrFormat("%d/f", i), "v1"),
              Code::kOk);
  }
  tc.cluster->CrashDatanode(2);
  tc.sim->RunFor(Seconds(2));
  for (int i = 0; i < 10; ++i) {
    const TxnId txn = tc.api->Begin(tc.inode_table, StrFormat("%d/f", i));
    bool done = false;
    const RowImage v2 = RowImage::Of("v2");
    tc.api->Update(txn, tc.inode_table, StrFormat("%d/f", i), v2,
                   [&](Code c) {
                     ASSERT_EQ(c, Code::kOk);
                     tc.api->Commit(txn, [&](Code c2) {
                       ASSERT_EQ(c2, Code::kOk);
                       done = true;
                     });
                   });
    tc.RunUntil(done);
  }
  bool rejoined = false;
  tc.cluster->RestartDatanode(2, [&] { rejoined = true; });
  tc.RunUntil(rejoined, Seconds(60));
  tc.sim->RunFor(Seconds(1));

  // Every replica (including the rejoined node) agrees on v2.
  auto& layout = tc.cluster->layout();
  for (int i = 0; i < 10; ++i) {
    const std::string key = StrFormat("%d/f", i);
    const PartitionId p = layout.PartitionOf(tc.inode_table, key);
    for (NodeId n : layout.ReplicaChain(p)) {
      ASSERT_TRUE(layout.alive(n));
      auto v = tc.cluster->datanode(n).store().Read(tc.inode_table, key, 0);
      ASSERT_TRUE(v.has_value()) << key << " missing at node " << n;
      EXPECT_EQ(v, "v2") << key << " stale at node " << n;
    }
  }
}

TEST(NdbFailure, ApiTimeoutsSurfaceAsRetryableErrors) {
  TestCluster tc;
  tc.api->set_op_timeout(200 * kMillisecond);
  // The AZ-aware API (AZ 0) selects an AZ-0 TC. Crash both AZ-0 nodes
  // right after Begin, before any failure detection runs: the request is
  // dropped on the floor and only the client-side timeout can finish it.
  const TxnId txn = tc.api->Begin(tc.inode_table, "3/z");
  ASSERT_NE(txn, 0u);
  for (int n = 0; n < tc.cluster->num_datanodes(); ++n) {
    if (tc.cluster->layout().az_of(n) == 0) tc.cluster->CrashDatanode(n);
  }
  bool done = false;
  Code got = Code::kOk;
  tc.api->Read(txn, tc.inode_table, "3/z", LockMode::kReadCommitted,
               [&](Code c, auto) {
                 got = c;
                 done = true;
               });
  tc.RunUntil(done, Seconds(10));
  EXPECT_EQ(got, Code::kTimedOut);
  EXPECT_GE(tc.api->timeouts(), 1);
  Status s = TimedOut("x");
  EXPECT_TRUE(s.retryable());
}

// Regression: replies and op-timeout timers used to hold a raw pointer to
// the API node; destroying the client with operations in flight made each
// of them a use-after-free when it later fired. They now re-resolve the
// node by id through the cluster (slots are nulled on unregister and
// never reused), so a torn-down client's callbacks never run. Pre-fence
// this test crashes under ASan.
TEST(NdbFailure, ApiNodeTeardownWithInFlightOpsIsSafe) {
  TestCluster tc;
  tc.cluster->StartProtocols();
  tc.sim->RunFor(Seconds(1));
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "1/seed", "v"), Code::kOk);

  // Start a read and a scan, then destroy the client while their replies
  // and timeout timers are still in flight.
  const TxnId txn = tc.api->Begin(tc.inode_table, "1/seed");
  ASSERT_NE(txn, 0u);
  int fired = 0;
  tc.api->Read(txn, tc.inode_table, "1/seed", LockMode::kReadCommitted,
               [&](Code, RowImage) { ++fired; });
  tc.api->ScanPrefix(txn, tc.inode_table, "1/",
                     [&](Code, NdbApiNode::Rows) {
                       ++fired;
                     });
  tc.api.reset();
  tc.sim->RunFor(Seconds(5));  // deliver late replies, fire op timers
  EXPECT_EQ(fired, 0) << "callback ran after its client was destroyed";
}

// A locked read's lock lives on the replica that granted it. If the
// partition's primary moves between the grant and the TC's handling of
// the ack (here: the crashed primary is flipped alive again, as a rejoin
// does), the commit must still unlock the granting node, or it keeps the
// row locked forever.
TEST(NdbFailure, LockedReadUnlocksTheNodeThatGrantedIt) {
  TestCluster tc;
  auto& layout = tc.cluster->layout();
  // A key whose chain has neither the primary nor the first backup in the
  // API node's AZ: the TC (the AZ-0 replica) is then a third node, so the
  // ack crosses the network and the primary can flip while it flies.
  Key key;
  PartitionId part = -1;
  for (int i = 0; i < 200 && part < 0; ++i) {
    key = StrFormat("%d/f", i);
    const PartitionId p = layout.PartitionOf(tc.inode_table, key);
    if (layout.az_of(layout.ReplicaChain(p)[2]) == 0) part = p;
  }
  ASSERT_GE(part, 0);
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, key, "v"), Code::kOk);
  const NodeId old_primary = layout.ReplicaChain(part)[0];
  const NodeId promoted = layout.ReplicaChain(part)[1];

  tc.cluster->CrashDatanode(old_primary);
  layout.set_alive(old_primary, false);
  ASSERT_EQ(layout.PrimaryOf(part), promoted);

  const TxnId txn = tc.api->Begin(tc.inode_table, key);
  bool read_done = false;
  Code read_code = Code::kInternal;
  tc.api->Read(txn, tc.inode_table, key, LockMode::kShared,
               [&](Code c, RowImage) {
                 read_code = c;
                 read_done = true;
               });
  // Step until the promoted backup grants the lock; its ack is in flight.
  LockManager& granter = tc.cluster->datanode(promoted).locks();
  const Nanos limit = tc.sim->now() + Seconds(1);
  while (!granter.IsLocked(tc.inode_table, key) && tc.sim->now() < limit) {
    tc.sim->RunUntil(tc.sim->now() + kMicrosecond);
  }
  ASSERT_TRUE(granter.IsLocked(tc.inode_table, key));
  ASSERT_FALSE(read_done) << "the TC handled the ack before the flip";
  layout.set_alive(old_primary, true);
  ASSERT_EQ(layout.PrimaryOf(part), old_primary);

  tc.RunUntil(read_done);
  ASSERT_EQ(read_code, Code::kOk);
  bool committed = false;
  tc.api->Commit(txn, [&](Code c) {
    EXPECT_EQ(c, Code::kOk);
    committed = true;
  });
  tc.RunUntil(committed);
  tc.sim->RunFor(Seconds(1));
  EXPECT_FALSE(granter.IsLocked(tc.inode_table, key))
      << "the commit unlocked node " << old_primary << ", not the granting "
      << "node " << promoted;
}

}  // namespace
}  // namespace repro::ndb
