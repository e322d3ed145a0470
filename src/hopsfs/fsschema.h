// HopsFS metadata schema: fully-normalised file-system metadata in NDB.
//
// Inodes are keyed "parentId/name" and partitioned by the parent inode id
// (application-defined partitioning), so a directory's children live in
// one partition: listings are a single partition-pruned scan, and the
// partition-key hint makes every operation on a directory's entries a
// distribution-aware transaction (§II-B1).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "ndb/row_image.h"
#include "ndb/schema.h"
#include "ndb/types.h"
#include "util/codec.h"

namespace repro::hopsfs {

using InodeId = uint64_t;
constexpr InodeId kRootInode = 1;

// Files up to this size are stored inline in NDB with their metadata
// (§II-A3); larger files go to the block storage layer.
constexpr int64_t kSmallFileThreshold = 128 << 10;  // 128 KB
constexpr int64_t kDefaultBlockSize = 128 << 20;    // 128 MB

struct InodeRow {
  InodeId id = 0;
  bool is_dir = false;
  int64_t size = 0;
  int64_t mtime_ns = 0;
  uint32_t permissions = 0755;
  std::string owner;
  // Small files keep their data in the inline-data table.
  bool has_inline_data = false;
  int32_t num_blocks = 0;

  ndb::RowImage Encode() const;
  static bool Decode(std::string_view data, InodeRow* out);
};

struct BlockRow {
  uint64_t block_id = 0;
  int64_t num_bytes = 0;
  // Datanode ids of the replicas (the replica table of real HopsFS is
  // folded into the block row; see DESIGN.md).
  std::vector<int32_t> replicas;

  ndb::RowImage Encode() const;
  static bool Decode(std::string_view data, BlockRow* out);
};

// Leader-election heartbeat row, one per namenode (§IV-B3).
struct NnHeartbeatRow {
  int32_t nn_id = 0;
  int64_t counter = 0;
  int32_t location_domain_id = -1;
  int32_t host = -1;

  ndb::RowImage Encode() const;
  static bool Decode(std::string_view data, NnHeartbeatRow* out);
};

// Table handles for one deployment.
struct FsTables {
  ndb::TableId inodes = -1;
  ndb::TableId blocks = -1;
  ndb::TableId dn_blocks = -1;   // index: "dnId/blockId" -> blockId row key
  ndb::TableId inline_data = -1; // small-file payloads, keyed by inode id
  ndb::TableId vars = -1;        // leader election + housekeeping, tiny+hot

  // Registers the schema. With `read_backup` (HopsFS-CL) every table gets
  // the Read Backup option so reads can stay AZ-local; `vars` is
  // additionally fully replicated (small, hot, read-mostly).
  static FsTables Register(ndb::Catalog& catalog, bool read_backup);
};

// ---- key construction ----
inline std::string InodeKey(InodeId parent, std::string_view name) {
  return std::to_string(parent) + "/" + std::string(name);
}
inline std::string InodeChildrenPrefix(InodeId dir) {
  return std::to_string(dir) + "/";
}
inline std::string BlockKey(InodeId inode, int32_t index) {
  return std::to_string(inode) + "/" + std::to_string(index);
}
inline std::string BlocksOfInodePrefix(InodeId inode) {
  return std::to_string(inode) + "/";
}
inline std::string DnBlockKey(int32_t dn, uint64_t block_id) {
  return std::to_string(dn) + "/" + std::to_string(block_id);
}
inline std::string DnBlocksPrefix(int32_t dn) {
  return std::to_string(dn) + "/";
}
inline std::string InlineDataKey(InodeId inode) {
  return std::to_string(inode);
}
inline std::string NnHeartbeatKey(int32_t nn_id) {
  return "hb/" + std::to_string(nn_id);
}
inline constexpr std::string_view kNnHeartbeatPrefix = "hb/";

}  // namespace repro::hopsfs
