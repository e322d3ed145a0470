#include "ndb/layout.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
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
  if (config_.num_datanodes > NodeChain::kCapacity) {
    std::fprintf(stderr,
                 "ClusterLayout: %d datanodes exceed the replica chain "
                 "capacity of %d\n",
                 config_.num_datanodes, NodeChain::kCapacity);
    std::abort();
  }
  num_groups_ = config_.num_datanodes / config_.replication_factor;
  num_partitions_ =
      num_groups_ * config_.num_ldm_threads * config_.partitions_per_ldm;
  alive_.assign(config_.num_datanodes, true);
  catchup_.assign(config_.num_datanodes,
                  std::vector<bool>(num_partitions_, false));

  all_nodes_.resize(config_.num_datanodes);
  for (NodeId n = 0; n < config_.num_datanodes; ++n) all_nodes_[n] = n;
  replica_chain_.resize(num_partitions_);
  full_chain_.resize(num_partitions_);
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
    // Copy fragments on every remaining node, appended in node order.
    auto& full = full_chain_[p];
    full = chain;
    for (NodeId n : all_nodes_) {
      if (std::find(chain.begin(), chain.end(), n) == chain.end()) {
        full.push_back(n);
      }
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

const std::vector<NodeId>& ClusterLayout::ReplicaChain(TableId table,
                                                       PartitionId p) const {
  return catalog_->table(table).fully_replicated ? full_chain_[p]
                                                 : replica_chain_[p];
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
                                      std::span<const NodeId> candidates,
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
  // Count the usable nodes tied at the best score, then walk the
  // candidates again to the (tie_break % count)-th of them.
  int best_score = 3;
  uint64_t ties = 0;
  for (NodeId c : candidates) {
    if (!usable(c)) continue;
    const int score = ProximityScore(from_az, /*same_host=*/false, c);
    if (score < best_score) {
      best_score = score;
      ties = 0;
    }
    if (score == best_score) ++ties;
  }
  if (ties == 0) return kNoNode;
  uint64_t skip = tie_break % ties;
  for (NodeId c : candidates) {
    if (!usable(c) ||
        ProximityScore(from_az, /*same_host=*/false, c) != best_score) {
      continue;
    }
    if (skip-- == 0) return c;
  }
  return kNoNode;  // unreachable: `ties` usable nodes score best_score
}

}  // namespace repro::ndb
