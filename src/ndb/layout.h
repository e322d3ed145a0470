// Cluster layout: node groups, partition placement, and AZ awareness.
//
// N datanodes with replication factor R form N/R node groups (§II-B1).
// Each partition is owned by one node group; one member holds the primary
// replica, the others hold backups. The layout also records each node's
// LocationDomainId (its AZ, §IV-A) and computes the proximity score used
// to order candidate nodes (§IV-A4):
//   1. same host & same AZ  →  2. same AZ  →  3. different AZ.
// On node failure the first alive replica in a partition's chain acts as
// primary (backup promotion, §IV-A2).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "ndb/config.h"
#include "ndb/schema.h"
#include "ndb/types.h"
#include "sim/topology.h"

namespace repro::ndb {

struct LayoutConfig {
  int num_datanodes = 12;
  int replication_factor = 2;
  // LocationDomainId per datanode (same length as num_datanodes). Node
  // group members are interleaved across AZs exactly as Figs. 3 & 4: group
  // g = nodes {g, g + G, g + 2G, ...}, so assigning AZs round-robin per
  // group slot spreads every group over the AZs.
  std::vector<AzId> node_az;
  // Partitions per table = partitions_per_ldm * num_ldm_threads * groups.
  int num_ldm_threads = kLdmThreads;
  int partitions_per_ldm = 2;
};

class ClusterLayout {
 public:
  // Aborts, in every build type, when the cluster has more datanodes than
  // a NodeChain holds (a fully replicated chain spans every node).
  ClusterLayout(LayoutConfig config, const Catalog* catalog);

  int num_nodes() const { return config_.num_datanodes; }
  int num_groups() const { return num_groups_; }
  int replication() const { return config_.replication_factor; }
  int num_partitions() const { return num_partitions_; }
  AzId az_of(NodeId n) const { return config_.node_az[n]; }
  int group_of(NodeId n) const { return n % num_groups_; }

  bool alive(NodeId n) const { return alive_[n]; }
  void set_alive(NodeId n, bool alive) {
    alive_[n] = alive;
    // Either direction ends any streaming catch-up: a fully rejoined node
    // serves as a normal replica, a freshly dead one serves nothing.
    ClearCatchup(n);
  }
  int alive_count() const;

  // ---- streaming catch-up fences (node rejoin) ----
  // While a node resyncs, the cluster marks each partition the moment its
  // delta copy completes; reads (and backup chain hops) may then be
  // routed to the node for those partitions even though it is not alive
  // in the layout yet.
  void SetCatchupReady(NodeId n, PartitionId p) { catchup_[n][p] = true; }
  bool catchup_ready(NodeId n, PartitionId p) const { return catchup_[n][p]; }
  void ClearCatchup(NodeId n) {
    catchup_[n].assign(catchup_[n].size(), false);
  }
  // True if `n` can serve partition `p`: alive, or caught up on it.
  bool serves(NodeId n, PartitionId p) const {
    return alive_[n] || catchup_[n][p];
  }

  // True while every partition still has at least one alive replica.
  bool Viable() const;

  PartitionId PartitionOf(TableId table, std::string_view row_key) const;

  // Replica chain of a partition in configured order (primary first). For
  // fully replicated tables the chain covers every node: the partition's
  // node group first, then all remaining nodes. Both are built once, at
  // construction.
  const std::vector<NodeId>& ReplicaChain(PartitionId p) const {
    return replica_chain_[p];
  }
  const std::vector<NodeId>& ReplicaChain(TableId table, PartitionId p) const;
  // Every datanode, in node order.
  const std::vector<NodeId>& all_nodes() const { return all_nodes_; }
  // True if node n stores rows of `table` in partition p: it is in the
  // partition's chain, or the table is fully replicated.
  bool Holds(NodeId n, TableId table, PartitionId p) const;

  // Current primary: the first alive node in the chain (backup promotion).
  NodeId PrimaryOf(PartitionId p) const;

  // Which LDM thread owns partition p on any of its replicas.
  int LdmThreadOf(PartitionId p) const;

  // Proximity score of serving node `n` from the point of view of a
  // caller in AZ `from_az` on host `from_host` (lower is closer). The
  // host dimension only matters when an API node shares a host with a
  // datanode.
  int ProximityScore(AzId from_az, bool same_host, NodeId n) const;

  // Picks the best node from `candidates` for a caller in `from_az`:
  // lowest proximity score, ties broken round-robin for load balancing.
  // Skips dead nodes; returns kNoNode if none alive. When `az_aware` is
  // false (vanilla HopsFS / classic NDB), picks round-robin among alive
  // candidates regardless of AZ. When `part` >= 0, a rejoining node that
  // has caught up on that partition also qualifies (streaming catch-up).
  NodeId PickByProximity(AzId from_az, std::span<const NodeId> candidates,
                         bool az_aware, uint64_t tie_break,
                         PartitionId part = -1) const;

  const Catalog& catalog() const { return *catalog_; }

 private:
  LayoutConfig config_;
  const Catalog* catalog_;
  int num_groups_;
  int num_partitions_;
  std::vector<bool> alive_;
  // catchup_[n][p]: node n (not alive) has resynced partition p and may
  // serve it mid-rejoin. Cleared whenever n's aliveness flips.
  std::vector<std::vector<bool>> catchup_;
  std::vector<std::vector<NodeId>> replica_chain_;
  // full_chain_[p]: replica_chain_[p], then every other node in node order
  // (the chain of a fully replicated table).
  std::vector<std::vector<NodeId>> full_chain_;
  std::vector<NodeId> all_nodes_;
  std::vector<int> ldm_thread_;
};

// Helpers to build the AZ assignments used throughout the evaluation.
// `azs` lists the AZ of each "deployment zone slot"; e.g. {1} puts all
// nodes in one AZ, {1,2} alternates Fig. 3 style, {0,1,2} spreads over
// three AZs Fig. 4 style.
std::vector<AzId> AssignNodeAzs(int num_nodes, int replication,
                                const std::vector<AzId>& azs);

}  // namespace repro::ndb
