#include "ndb/layout.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace repro::ndb {
namespace {

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::vector<AzId> AssignNodeAzs(int num_nodes, int replication,
                                const std::vector<AzId>& azs) {
  assert(!azs.empty());
  assert(num_nodes % replication == 0);
  const int groups = num_nodes / replication;
  std::vector<AzId> out(num_nodes);
  for (int n = 0; n < num_nodes; ++n) {
    const int slot = n / groups;  // which replica slot of its group
    out[n] = azs[slot % azs.size()];
  }
  return out;
}

ClusterLayout::ClusterLayout(LayoutConfig config, const Catalog* catalog)
    : config_(std::move(config)), catalog_(catalog) {
  assert(config_.num_datanodes % config_.replication_factor == 0);
  assert(static_cast<int>(config_.node_az.size()) == config_.num_datanodes);
  num_groups_ = config_.num_datanodes / config_.replication_factor;
  num_partitions_ =
      num_groups_ * config_.num_ldm_threads * config_.partitions_per_ldm;
  alive_.assign(config_.num_datanodes, true);
  catchup_.assign(config_.num_datanodes,
                  std::vector<bool>(num_partitions_, false));

  replica_chain_.resize(num_partitions_);
  ldm_thread_.resize(num_partitions_);
  const int R = config_.replication_factor;
  for (PartitionId p = 0; p < num_partitions_; ++p) {
    const int g = p % num_groups_;
    // Rotate the primary slot so primaries spread evenly within a group.
    const int rotation = (p / num_groups_) % R;
    auto& chain = replica_chain_[p];
    chain.reserve(R);
    for (int i = 0; i < R; ++i) {
      const int slot = (rotation + i) % R;
      chain.push_back(g + slot * num_groups_);
    }
    ldm_thread_[p] =
        static_cast<int>(Mix(static_cast<uint64_t>(p)) %
                         static_cast<uint64_t>(config_.num_ldm_threads));
  }
}

int ClusterLayout::alive_count() const {
  int n = 0;
  for (bool a : alive_) n += a ? 1 : 0;
  return n;
}

bool ClusterLayout::Viable() const {
  // Every node group must retain at least one alive member.
  for (int g = 0; g < num_groups_; ++g) {
    bool any = false;
    for (int i = 0; i < config_.replication_factor; ++i) {
      if (alive_[g + i * num_groups_]) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

PartitionId ClusterLayout::PartitionOf(TableId table,
                                       std::string_view row_key) const {
  const std::string_view pk = catalog_->table(table).PartitionKeyOf(row_key);
  const uint64_t h = Mix(std::hash<std::string_view>{}(pk));
  return static_cast<PartitionId>(h % static_cast<uint64_t>(num_partitions_));
}

std::vector<NodeId> ClusterLayout::ReplicaChain(TableId table,
                                                PartitionId p) const {
  std::vector<NodeId> chain = replica_chain_[p];
  if (catalog_->table(table).fully_replicated) {
    // Copy fragments on every remaining node, appended in node order.
    std::vector<bool> in_chain(config_.num_datanodes, false);
    for (NodeId n : chain) in_chain[n] = true;
    for (NodeId n = 0; n < config_.num_datanodes; ++n) {
      if (!in_chain[n]) chain.push_back(n);
    }
  }
  return chain;
}

bool ClusterLayout::Holds(NodeId n, TableId table, PartitionId p) const {
  if (catalog_->table(table).fully_replicated) return true;
  const auto& chain = replica_chain_[p];
  return std::find(chain.begin(), chain.end(), n) != chain.end();
}

NodeId ClusterLayout::PrimaryOf(PartitionId p) const {
  for (NodeId n : replica_chain_[p]) {
    if (alive_[n]) return n;
  }
  return kNoNode;
}

int ClusterLayout::LdmThreadOf(PartitionId p) const { return ldm_thread_[p]; }

int ClusterLayout::ProximityScore(AzId from_az, bool same_host,
                                  NodeId n) const {
  if (same_host && az_of(n) == from_az) return 0;
  if (az_of(n) == from_az) return 1;
  return 2;
}

NodeId ClusterLayout::PickByProximity(AzId from_az,
                                      const std::vector<NodeId>& candidates,
                                      bool az_aware, uint64_t tie_break,
                                      PartitionId part) const {
  if (candidates.empty()) return kNoNode;
  const auto usable = [this, part](NodeId c) {
    return part >= 0 ? serves(c, part) : alive_[c];
  };
  if (!az_aware) {
    // Classic NDB: round-robin over alive candidates in chain order.
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
    const int score = ProximityScore(from_az, /*same_host=*/false, c);
    if (score < best_score) {
      best_score = score;
      best.clear();
    }
    if (score == best_score) best.push_back(c);
  }
  if (best.empty()) return kNoNode;
  return best[tie_break % best.size()];
}

}  // namespace repro::ndb
