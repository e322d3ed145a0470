// Tests for AZ-aware routing: TC selection (§IV-A5), proximity ordering
// (§IV-A4), read-backup replica reads (Fig. 14), and layout placement.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "ndb_test_util.h"
#include "util/rng.h"
#include "util/strings.h"

namespace repro::ndb {
namespace {

using testing::TestCluster;

TEST(NdbLayout, NodeGroupsSpanAzs) {
  auto azs = AssignNodeAzs(12, 3, {0, 1, 2});
  // 4 groups of 3; group g = {g, g+4, g+8} must cover all three AZs.
  for (int g = 0; g < 4; ++g) {
    std::set<AzId> seen{azs[g], azs[g + 4], azs[g + 8]};
    EXPECT_EQ(seen.size(), 3u) << "group " << g;
  }
}

TEST(NdbLayout, TwoReplicaLayoutMatchesFig3) {
  // Fig. 3: RF=2 across zones {1,2}: first slot in zone 1, second in 2.
  auto azs = AssignNodeAzs(12, 2, {1, 2});
  for (int n = 0; n < 6; ++n) EXPECT_EQ(azs[n], 1);
  for (int n = 6; n < 12; ++n) EXPECT_EQ(azs[n], 2);
}

TEST(NdbLayout, ReplicaChainsStayWithinNodeGroup) {
  TestCluster tc;
  const auto& layout = tc.cluster->layout();
  for (PartitionId p = 0; p < layout.num_partitions(); ++p) {
    const auto& chain = layout.ReplicaChain(p);
    ASSERT_EQ(static_cast<int>(chain.size()), layout.replication());
    const int g = layout.group_of(chain[0]);
    for (NodeId n : chain) EXPECT_EQ(layout.group_of(n), g);
  }
}

TEST(NdbLayout, PrimaryPromotionOnFailure) {
  TestCluster tc;
  auto& layout = tc.cluster->layout();
  const PartitionId p = 0;
  const auto chain = layout.ReplicaChain(p);
  const NodeId old_primary = layout.PrimaryOf(p);
  ASSERT_EQ(old_primary, chain[0]);
  layout.set_alive(chain[0], false);
  EXPECT_EQ(layout.PrimaryOf(p), chain[1]);
  layout.set_alive(chain[0], true);
}

TEST(NdbLayout, ProximityPrefersSameAz) {
  TestCluster tc;
  const auto& layout = tc.cluster->layout();
  // Build a candidate list with one node per AZ.
  std::vector<NodeId> candidates;
  for (AzId az = 0; az < 3; ++az) {
    for (NodeId n = 0; n < layout.num_nodes(); ++n) {
      if (layout.az_of(n) == az) {
        candidates.push_back(n);
        break;
      }
    }
  }
  for (AzId az = 0; az < 3; ++az) {
    const NodeId picked = layout.PickByProximity(az, candidates, true, 0);
    EXPECT_EQ(layout.az_of(picked), az);
  }
}

// ---- the allocation-free picker and chains select what the vector-based
// versions they replaced selected ----

// The vector-based proximity picker ClusterLayout::PickByProximity used to
// be: collect every usable node at the best score, then index the list.
NodeId ReferencePick(const ClusterLayout& layout, AzId from_az,
                     const std::vector<NodeId>& candidates, bool az_aware,
                     uint64_t tie_break, PartitionId part) {
  if (candidates.empty()) return kNoNode;
  const auto usable = [&](NodeId c) {
    return part >= 0 ? layout.serves(c, part) : layout.alive(c);
  };
  if (!az_aware) {
    const size_t n = candidates.size();
    for (size_t i = 0; i < n; ++i) {
      const NodeId c = candidates[(tie_break + i) % n];
      if (usable(c)) return c;
    }
    return kNoNode;
  }
  int best_score = 3;
  std::vector<NodeId> best;
  for (NodeId c : candidates) {
    if (!usable(c)) continue;
    const int score = layout.ProximityScore(from_az, false, c);
    if (score < best_score) {
      best_score = score;
      best.clear();
    }
    if (score == best_score) best.push_back(c);
  }
  if (best.empty()) return kNoNode;
  return best[tie_break % best.size()];
}

// The fully replicated chain as ClusterLayout::ReplicaChain(table, p) used
// to build it on every call: the partition's chain, then every other node.
std::vector<NodeId> ReferenceFullChain(const ClusterLayout& layout,
                                       PartitionId p) {
  std::vector<NodeId> chain = layout.ReplicaChain(p);
  std::vector<bool> in_chain(layout.num_nodes(), false);
  for (NodeId n : chain) in_chain[n] = true;
  for (NodeId n = 0; n < layout.num_nodes(); ++n) {
    if (!in_chain[n]) chain.push_back(n);
  }
  return chain;
}

struct LayoutRig {
  LayoutRig(int nodes, int replication) {
    TableDef plain;
    plain.name = "plain";
    plain_table = catalog.AddTable(plain);
    TableDef full;
    full.name = "full";
    full.fully_replicated = true;
    full_table = catalog.AddTable(full);
    LayoutConfig config;
    config.num_datanodes = nodes;
    config.replication_factor = replication;
    config.node_az = AssignNodeAzs(nodes, replication, {0, 1, 2});
    config.num_ldm_threads = 2;
    config.partitions_per_ldm = 1;
    layout = std::make_unique<ClusterLayout>(config, &catalog);
  }
  Catalog catalog;
  TableId plain_table = 0;
  TableId full_table = 0;
  std::unique_ptr<ClusterLayout> layout;
};

TEST(NdbLayout, FullyReplicatedChainMatchesTheBuiltChain) {
  for (const auto& [nodes, replication] :
       {std::pair{6, 3}, std::pair{6, 2}, std::pair{12, 2}, std::pair{12, 3}}) {
    LayoutRig rig(nodes, replication);
    const ClusterLayout& layout = *rig.layout;
    for (PartitionId p = 0; p < layout.num_partitions(); ++p) {
      EXPECT_EQ(layout.ReplicaChain(rig.full_table, p),
                ReferenceFullChain(layout, p))
          << nodes << " nodes, partition " << p;
      EXPECT_EQ(&layout.ReplicaChain(rig.plain_table, p),
                &layout.ReplicaChain(p))
          << "a partitioned table's chain is the partition's own";
    }
    std::vector<NodeId> all(nodes);
    for (NodeId n = 0; n < nodes; ++n) all[n] = n;
    EXPECT_EQ(layout.all_nodes(), all);
  }
}

TEST(NdbLayout, PickByProximityMatchesTheVectorPicker) {
  Rng rng(2024);
  int picks = 0;
  for (const int nodes : {6, 12}) {
    LayoutRig rig(nodes, 3);
    ClusterLayout& layout = *rig.layout;
    for (int trial = 0; trial < 40; ++trial) {
      // Random alive mask, then random catch-up fences on dead nodes.
      for (NodeId n = 0; n < nodes; ++n) {
        layout.set_alive(n, rng.NextBelow(4) != 0);
      }
      for (NodeId n = 0; n < nodes; ++n) {
        if (layout.alive(n)) continue;
        for (PartitionId p = 0; p < layout.num_partitions(); ++p) {
          if (rng.NextBelow(2) == 0) layout.SetCatchupReady(n, p);
        }
      }
      for (PartitionId p = 0; p < layout.num_partitions(); ++p) {
        const std::vector<std::vector<NodeId>> candidate_lists = {
            layout.ReplicaChain(p), layout.ReplicaChain(rig.full_table, p),
            layout.all_nodes()};
        for (const auto& candidates : candidate_lists) {
          for (const AzId from_az : {kNoAz, 0, 1, 2}) {
            for (const bool az_aware : {false, true}) {
              for (uint64_t tie = 0; tie < 24; ++tie) {
                for (const PartitionId part : {PartitionId{-1}, p}) {
                  ASSERT_EQ(layout.PickByProximity(from_az, candidates,
                                                   az_aware, tie, part),
                            ReferencePick(layout, from_az, candidates,
                                          az_aware, tie, part))
                      << nodes << " nodes, trial " << trial << ", partition "
                      << p << ", from AZ " << from_az << ", az_aware "
                      << az_aware << ", tie " << tie << ", part " << part;
                  ++picks;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(picks, 0);
}

TEST(NdbLayoutDeathTest, ClusterLargerThanANodeChainIsRejected) {
  const int nodes = NodeChain::kCapacity + 2;
  EXPECT_DEATH({ LayoutRig rig(nodes, 2); }, "replica chain capacity");
}

TEST(NdbRouting, ReadBackupServesAzLocalReplicas) {
  TestCluster tc(/*datanodes=*/6, /*replication=*/3, /*az_aware=*/true,
                 /*read_backup=*/true);
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "2/f", "v"), Code::kOk);
  tc.cluster->ResetStats();
  tc.network->ResetStats();

  for (int i = 0; i < 50; ++i) {
    auto [code, value] = tc.ReadCommitted(tc.inode_table, "2/f");
    ASSERT_TRUE(value.has_value());
  }
  // The API node is in AZ 0 and RF=3 spans all AZs, so with read backup
  // every committed read lands on the AZ-0 replica: zero inter-AZ read
  // traffic beyond the commit protocol (already reset above).
  const PartitionId part =
      tc.cluster->layout().PartitionOf(tc.inode_table, "2/f");
  const auto& counts = tc.cluster->reads_per_replica()[part];
  const auto& chain = tc.cluster->layout().ReplicaChain(part);
  int64_t local = 0, remote = 0;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (tc.cluster->layout().az_of(chain[i]) == 0) {
      local += counts[i];
    } else {
      remote += counts[i];
    }
  }
  EXPECT_EQ(remote, 0);
  EXPECT_EQ(local, 50);
}

TEST(NdbRouting, WithoutReadBackupAllReadsHitPrimary) {
  TestCluster tc(/*datanodes=*/6, /*replication=*/3, /*az_aware=*/false,
                 /*read_backup=*/false);
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "2/f", "v"), Code::kOk);
  tc.cluster->ResetStats();
  for (int i = 0; i < 30; ++i) {
    auto [code, value] = tc.ReadCommitted(tc.inode_table, "2/f");
    ASSERT_TRUE(value.has_value());
  }
  const PartitionId part =
      tc.cluster->layout().PartitionOf(tc.inode_table, "2/f");
  const auto& counts = tc.cluster->reads_per_replica()[part];
  EXPECT_EQ(counts[0], 30);  // configured primary
  for (size_t i = 1; i < counts.size(); ++i) EXPECT_EQ(counts[i], 0);
}

TEST(NdbRouting, LockedReadsAlwaysHitPrimaryEvenWithReadBackup) {
  TestCluster tc;
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, "6/f", "v"), Code::kOk);
  tc.cluster->ResetStats();
  for (int i = 0; i < 10; ++i) {
    const TxnId txn = tc.api->Begin(tc.inode_table, "6/f");
    bool done = false;
    tc.api->Read(txn, tc.inode_table, "6/f", LockMode::kShared,
                 [&](Code c, auto) {
                   EXPECT_EQ(c, Code::kOk);
                   tc.api->Commit(txn, [&](Code) { done = true; });
                 });
    tc.RunUntil(done);
  }
  const PartitionId part =
      tc.cluster->layout().PartitionOf(tc.inode_table, "6/f");
  const auto& counts = tc.cluster->reads_per_replica()[part];
  EXPECT_EQ(counts[0], 10);
  for (size_t i = 1; i < counts.size(); ++i) EXPECT_EQ(counts[i], 0);
}

TEST(NdbRouting, TcSelectionCase1PicksAzLocalReplica) {
  TestCluster tc;  // read-backup table, az-aware
  // With RF=3 over 3 AZs, the replica chain of any partition has exactly
  // one AZ-0 member; the API node (AZ 0) must select it as TC.
  const Key key = "12/file";
  const TxnId txn = tc.api->Begin(tc.inode_table, key);
  ASSERT_NE(txn, 0u);
  // Peek at the TC by running one op and checking no inter-AZ traffic is
  // needed for a local committed read.
  tc.network->ResetStats();
  bool done = false;
  tc.api->Read(txn, tc.inode_table, key, LockMode::kReadCommitted,
               [&](Code, auto) {
                 tc.api->Commit(txn, [&](Code) { done = true; });
               });
  tc.RunUntil(done);
  EXPECT_EQ(tc.network->inter_az_bytes(), 0)
      << "AZ-local read crossed an AZ boundary";
}

TEST(NdbRouting, NonAzAwareReadsCrossAzs) {
  TestCluster tc(/*datanodes=*/6, /*replication=*/3, /*az_aware=*/false,
                 /*read_backup=*/false);
  // Find a key whose primary is not in AZ 0 so the read must cross.
  Key key;
  for (int i = 0; i < 100; ++i) {
    key = repro::StrFormat("%d/f", i);
    const PartitionId p = tc.cluster->layout().PartitionOf(tc.inode_table, key);
    const NodeId primary = tc.cluster->layout().PrimaryOf(p);
    if (tc.cluster->layout().az_of(primary) != 0) break;
  }
  ASSERT_EQ(tc.InsertCommit(tc.inode_table, key, "v"), Code::kOk);
  tc.network->ResetStats();
  auto [code, value] = tc.ReadCommitted(tc.inode_table, key);
  ASSERT_TRUE(value.has_value());
  EXPECT_GT(tc.network->inter_az_bytes(), 0);
}

}  // namespace
}  // namespace repro::ndb

namespace repro::ndb {
namespace {

using testing::TestCluster;

// ---- §IV-A5: the four transaction-coordinator selection cases ----
// The TC choice is observable through which datanode's TC pool does the
// routing work for a transaction's first operation.

NodeId BusiestTc(TestCluster& tc) {
  NodeId best = -1;
  int64_t best_busy = -1;
  for (int n = 0; n < tc.cluster->num_datanodes(); ++n) {
    const int64_t busy = tc.cluster->datanode(n).tc_pool().busy_ns();
    if (busy > best_busy) {
      best_busy = busy;
      best = n;
    }
  }
  return best;
}

TEST(NdbTcSelection, Case1ReadBackupPicksAzLocalReplica) {
  TestCluster tc;  // az-aware, read-backup tables, API in AZ 0
  const Key key = "42/file";
  tc.cluster->ResetStats();
  auto [code, value] = tc.ReadCommitted(tc.inode_table, key);
  const NodeId used = BusiestTc(tc);
  ASSERT_NE(used, -1);
  EXPECT_EQ(tc.cluster->layout().az_of(used), 0)
      << "case 1 must select a TC in the caller's AZ";
  // And the TC must be a replica of the hint partition.
  const PartitionId p = tc.cluster->layout().PartitionOf(tc.inode_table, key);
  bool in_chain = false;
  for (NodeId n : tc.cluster->layout().ReplicaChain(p)) in_chain |= n == used;
  EXPECT_TRUE(in_chain);
}

TEST(NdbTcSelection, Case2FullyReplicatedPicksAzLocalNode) {
  TestCluster tc;
  tc.cluster->ResetStats();
  auto [code, value] = tc.ReadCommitted(tc.dict_table, "any-key");
  const NodeId used = BusiestTc(tc);
  ASSERT_NE(used, -1);
  EXPECT_EQ(tc.cluster->layout().az_of(used), 0)
      << "case 2: every node holds the data; pick by proximity";
}

TEST(NdbTcSelection, Case3ClassicDatPicksPrimary) {
  TestCluster tc(6, 3, /*az_aware=*/false, /*read_backup=*/false);
  const Key key = "77/file";
  tc.cluster->ResetStats();
  auto [code, value] = tc.ReadCommitted(tc.inode_table, key);
  const NodeId used = BusiestTc(tc);
  const PartitionId p = tc.cluster->layout().PartitionOf(tc.inode_table, key);
  EXPECT_EQ(used, tc.cluster->layout().PrimaryOf(p))
      << "classic distribution-aware selection = the primary replica";
}

TEST(NdbTcSelection, Case1SpreadsTiesRoundRobin) {
  // With several same-AZ candidates (RF=3 over ONE az list entry makes
  // all replicas AZ-local), repeated Begins must not pin one TC.
  TestCluster tc;
  std::set<NodeId> used;
  for (int i = 0; i < 12; ++i) {
    tc.cluster->ResetStats();
    auto [code, value] =
        tc.ReadCommitted(tc.dict_table, StrFormat("k%d", i));
    used.insert(BusiestTc(tc));
  }
  // dict is fully replicated: both AZ-0 nodes are equal candidates.
  EXPECT_GE(used.size(), 2u) << "ties must rotate for load balancing";
}

}  // namespace
}  // namespace repro::ndb
