#include "hopsfs/fsschema.h"

namespace repro::hopsfs {

ndb::RowImage InodeRow::Encode() const {
  return ndb::RowImage::Encode([this](Encoder& e) {
    e.PutU64(id);
    e.PutBool(is_dir);
    e.PutI64(size);
    e.PutI64(mtime_ns);
    e.PutU32(permissions);
    e.PutString(owner);
    e.PutBool(has_inline_data);
    e.PutU32(static_cast<uint32_t>(num_blocks));
  });
}

bool InodeRow::Decode(std::string_view data, InodeRow* out) {
  Decoder d(data);
  out->id = d.GetU64();
  out->is_dir = d.GetBool();
  out->size = d.GetI64();
  out->mtime_ns = d.GetI64();
  out->permissions = d.GetU32();
  out->owner = d.GetString();
  out->has_inline_data = d.GetBool();
  out->num_blocks = static_cast<int32_t>(d.GetU32());
  return d.ok();
}

ndb::RowImage BlockRow::Encode() const {
  return ndb::RowImage::Encode([this](Encoder& e) {
    e.PutU64(block_id);
    e.PutI64(num_bytes);
    e.PutU32(static_cast<uint32_t>(replicas.size()));
    for (int32_t r : replicas) e.PutU32(static_cast<uint32_t>(r));
  });
}

bool BlockRow::Decode(std::string_view data, BlockRow* out) {
  Decoder d(data);
  out->block_id = d.GetU64();
  out->num_bytes = d.GetI64();
  const uint32_t n = d.GetU32();
  out->replicas.clear();
  for (uint32_t i = 0; i < n && d.ok(); ++i) {
    out->replicas.push_back(static_cast<int32_t>(d.GetU32()));
  }
  return d.ok();
}

ndb::RowImage NnHeartbeatRow::Encode() const {
  return ndb::RowImage::Encode([this](Encoder& e) {
    e.PutU32(static_cast<uint32_t>(nn_id));
    e.PutI64(counter);
    e.PutU32(static_cast<uint32_t>(location_domain_id));
    e.PutU32(static_cast<uint32_t>(host));
  });
}

bool NnHeartbeatRow::Decode(std::string_view data, NnHeartbeatRow* out) {
  Decoder d(data);
  out->nn_id = static_cast<int32_t>(d.GetU32());
  out->counter = d.GetI64();
  out->location_domain_id = static_cast<int32_t>(d.GetU32());
  out->host = static_cast<int32_t>(d.GetU32());
  return d.ok();
}

FsTables FsTables::Register(ndb::Catalog& catalog, bool read_backup) {
  FsTables t;
  {
    ndb::TableDef def;
    def.name = "hdfs_inodes";
    def.part_key = ndb::PartKeyRule::kPrefixBeforeSlash;
    def.read_backup = read_backup;
    t.inodes = catalog.AddTable(def);
  }
  {
    ndb::TableDef def;
    def.name = "hdfs_blocks";
    def.part_key = ndb::PartKeyRule::kPrefixBeforeSlash;
    def.read_backup = read_backup;
    t.blocks = catalog.AddTable(def);
  }
  {
    ndb::TableDef def;
    def.name = "hdfs_dn_blocks";
    def.part_key = ndb::PartKeyRule::kPrefixBeforeSlash;
    def.read_backup = read_backup;
    t.dn_blocks = catalog.AddTable(def);
  }
  {
    ndb::TableDef def;
    def.name = "hdfs_inline_data";
    def.read_backup = read_backup;
    t.inline_data = catalog.AddTable(def);
  }
  {
    ndb::TableDef def;
    def.name = "hdfs_vars";
    // "hb/<nn>" rows share the "hb" partition key so the leader-election
    // scan is a single partition-pruned range read.
    def.part_key = ndb::PartKeyRule::kPrefixBeforeSlash;
    def.read_backup = read_backup;
    def.fully_replicated = read_backup;  // tiny, hot, read-mostly
    t.vars = catalog.AddTable(def);
  }
  return t;
}

}  // namespace repro::hopsfs
