// Table catalog and the two AZ-awareness table options the paper adds.
//
// `Read Backup` lets read-committed reads be served consistently from
// backup replicas (the commit protocol delays the client ack until every
// replica has completed). `Fully Replicated` keeps a copy of every
// partition on every datanode, trading slower writes for AZ-local reads
// of small hot tables. (§IV-A3)
#pragma once

#include <cassert>
#include <string>
#include <string_view>
#include <vector>

#include "ndb/types.h"

namespace repro::ndb {

// How the partition key (the distribution-aware-transaction hint) is
// derived from a row key.
enum class PartKeyRule {
  kWholeKey,           // partition key == row key
  kPrefixBeforeSlash,  // e.g. inode keys "parentId/name" hash by parentId,
                       // which keeps a directory's children in one
                       // partition (HopsFS's ADP scheme)
};

struct TableDef {
  std::string name;
  PartKeyRule part_key = PartKeyRule::kWholeKey;
  bool read_backup = false;
  bool fully_replicated = false;

  std::string_view PartitionKeyOf(std::string_view row_key) const {
    if (part_key == PartKeyRule::kPrefixBeforeSlash) {
      const size_t slash = row_key.find('/');
      if (slash != std::string_view::npos) return row_key.substr(0, slash);
    }
    return row_key;
  }
};

class Catalog {
 public:
  TableId AddTable(TableDef def) {
    tables_.push_back(std::move(def));
    return static_cast<TableId>(tables_.size()) - 1;
  }

  const TableDef& table(TableId id) const {
    assert(id >= 0 && id < static_cast<TableId>(tables_.size()));
    return tables_[id];
  }
  int num_tables() const { return static_cast<int>(tables_.size()); }

 private:
  std::vector<TableDef> tables_;
};

}  // namespace repro::ndb
