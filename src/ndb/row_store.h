// Per-datanode in-memory row storage with pending (uncommitted) versions.
//
// A replica holds the committed image of every row of its partitions plus
// at most one pending operation per row (the strict-2PL lock on the
// primary guarantees single-writer). Prepared writes become visible to
// their own transaction immediately (read-your-writes inside a
// transaction) and to everyone else at commit. Like NDB, each table has
// two access paths. Point operations (read, stage, apply, drop, exists)
// find their row through a hash index keyed by the row key. Order comes
// only from an ordered map, which owns the rows: directory listings —
// keys share a "parentId/" prefix under HopsFS's application-defined
// partitioning — are a contiguous range scan of it. The hash index is
// never iterated, so its order cannot reach the simulation. Row values
// are shared `RowImage`s: staging, committing, reading and scanning hand
// the writer's buffer on without copying its bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ndb/row_image.h"
#include "ndb/types.h"
#include "util/indexed_map.h"
#include "util/time.h"

namespace repro::ndb {

enum class WriteType { kPut, kDelete };

class RowStore {
 public:
  explicit RowStore(int num_tables);
  // The point and pending indexes point into the row maps, so a copy
  // would alias the source's rows.
  RowStore(const RowStore&) = delete;
  RowStore& operator=(const RowStore&) = delete;

  // Committed read (null if absent); pending changes of `reader_txn` (if
  // any) are visible.
  RowImage Read(TableId table, const Key& key, TxnId reader_txn) const;

  // Stages a write. Returns false if another transaction's pending write
  // still occupies the row (its Commit/Complete has not landed yet) — the
  // caller must retry shortly; the slot frees when that write applies or
  // aborts. kInsert semantics are enforced by the caller (primary
  // replica) via ExistsCommitted. `tc` and `staged_at` record which
  // coordinator staged the write and when, so the orphaned-slot sweep can
  // trace a stuck pending write back to its transaction.
  [[nodiscard]] bool Prepare(TableId table, const Key& key, WriteType type,
                             RowImage value, TxnId txn,
                             NodeId tc = kNoNode, Nanos staged_at = 0);

  // Applies txn's pending op on the row, making it the committed image.
  // Returns the applied mutation (for redo logging), or nullopt if there
  // was nothing pending for txn on that row.
  struct AppliedWrite {
    WriteType type;
    RowImage value;  // the committed image (null for a delete)
  };
  std::optional<AppliedWrite> Commit(TableId table, const Key& key,
                                     TxnId txn);

  // Drops txn's pending op on the row.
  void Abort(TableId table, const Key& key, TxnId txn);

  bool ExistsCommitted(TableId table, const Key& key) const;
  bool HasPending(TableId table, const Key& key) const;

  // All committed rows whose key starts with `prefix`, plus the reader's
  // own pending rows in that range. Returned in key order; the result is
  // sized once, so a scan allocates its vector at most once.
  std::vector<std::pair<Key, RowImage>> ScanPrefix(TableId table,
                                                   const Key& prefix,
                                                   TxnId reader_txn) const;

  // Drops everything (cluster-recovery restore path).
  void Clear();

  int64_t row_count(TableId table) const;
  int64_t total_bytes() const { return total_bytes_; }

  // Node id stamped on $REPRO_TRACE_KEY row-trace lines (see TraceKey).
  void set_debug_owner(int id) { debug_owner_ = id; }

  // Direct committed write, bypassing the protocol. Used only for bulk
  // namespace bootstrap before an experiment starts and for node-recovery
  // data copy.
  void BootstrapPut(TableId table, const Key& key, RowImage value);
  // Direct committed delete (redo replay of delete entries).
  void BootstrapDelete(TableId table, const Key& key);

  // Iterates the committed image of one table (recovery data copy).
  void ForEachCommitted(
      TableId table,
      const std::function<void(const Key&, const RowImage&)>& fn) const;

  // Iterates every pending (staged, not yet applied) write across all
  // tables, in (table, key) order. Used by the orphaned-slot sweep: a
  // pending write whose transaction no longer exists at its coordinator —
  // and which take-over never saw — must be resolved or it wedges the row
  // forever. Visits only the pending index, so a sweep costs the number of
  // staged writes, not the number of rows. `fn` must not modify the store.
  struct PendingRow {
    TableId table;
    Key key;
    TxnId txn;
    NodeId tc;        // coordinator recorded at Prepare
    Nanos staged_at;  // when it was staged
    WriteType type;
    RowImage value;
  };
  void ForEachPending(const std::function<void(const PendingRow&)>& fn) const;

 private:
  static constexpr uint32_t kNoPending = UINT32_MAX;
  struct Row {
    RowImage committed;            // null: no committed row
    uint32_t pending = kNoPending;  // its staged write's slot in pending_
  };
  // One table: the ordered map owns the rows and is the only structure
  // ever iterated; point operations go through its hash index
  // (util/indexed_map.h).
  using Table = util::IndexedMap<Row>;
  using RowMap = Table::Map;
  using Entry = Table::Entry;
  // A staged write. Few rows hold one at a time, so it lives here rather
  // than in every row.
  struct Pending {
    TableId table;
    Entry* entry;
    TxnId txn;
    NodeId tc;        // coordinator that staged the write
    Nanos staged_at;  // when it was staged
    WriteType type;
    RowImage value;
  };

  Entry* Find(TableId table, const Key& key) const {
    return tables_[table].Find(key);
  }

  // Gives a row that holds no staged write an (unfilled) one / drops the
  // row's staged write.
  Pending& IndexPending(TableId table, Entry& entry);
  void UnindexPending(Row& row);

  std::vector<Table> tables_;
  // Every staged write, unordered (swap-remove on unindex).
  std::vector<Pending> pending_;
  // ForEachPending's sort buffer, kept to reuse its capacity.
  mutable std::vector<const Pending*> pending_sorted_;
  int64_t total_bytes_ = 0;
  int debug_owner_ = -1;
};

}  // namespace repro::ndb
