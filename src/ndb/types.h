// Common identifiers and enums for the NDB-style metadata store.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <string>

namespace repro::ndb {

using NodeId = int;       // NDB datanode index within the cluster
using ApiNodeId = int;    // API (client library) node index
using TableId = int;
using PartitionId = int;
using TxnId = uint64_t;

constexpr NodeId kNoNode = -1;

// Row keys are opaque strings; tables define how the partition key is
// derived from them (see TableDef::part_key).
using Key = std::string;

enum class LockMode {
  kReadCommitted,  // no lock; routed per table options (§IV-A3)
  kShared,         // always served by the primary replica
  kExclusive,      // always served by the primary replica
};

// A replica chain held inline: the nodes a prepare, commit or complete
// chain visits, primary first. A fully replicated table's chain covers
// every datanode, so the capacity bounds the cluster size; ClusterLayout
// rejects a larger cluster at construction.
class NodeChain {
 public:
  static constexpr int kCapacity = 16;

  void push_back(NodeId n) {
    assert(size_ < kCapacity);
    nodes_[size_++] = n;
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  NodeId operator[](size_t i) const {
    assert(i < size_);
    return nodes_[i];
  }
  NodeId front() const { return (*this)[0]; }
  NodeId back() const { return (*this)[size_ - 1]; }
  const NodeId* begin() const { return nodes_.data(); }
  const NodeId* end() const { return nodes_.data() + size_; }

 private:
  std::array<NodeId, kCapacity> nodes_{};
  uint8_t size_ = 0;
};

}  // namespace repro::ndb
