// Common identifiers and enums for the NDB-style metadata store.
#pragma once

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

}  // namespace repro::ndb
