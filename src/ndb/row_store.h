// Per-datanode in-memory row storage with pending (uncommitted) versions.
//
// A replica holds the committed image of every row of its partitions plus
// at most one pending operation per row (the strict-2PL lock on the
// primary guarantees single-writer). Prepared writes become visible to
// their own transaction immediately (read-your-writes inside a
// transaction) and to everyone else at commit. Keys are kept ordered so
// directory listings — keys share a "parentId/" prefix under HopsFS's
// application-defined partitioning — are a contiguous range scan.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ndb/types.h"
#include "util/time.h"

namespace repro::ndb {

enum class WriteType { kPut, kDelete };

class RowStore {
 public:
  explicit RowStore(int num_tables);
  // The pending index points into the row maps, so a copy would alias
  // the source's rows.
  RowStore(const RowStore&) = delete;
  RowStore& operator=(const RowStore&) = delete;

  // Committed read; pending changes of `reader_txn` (if any) are visible.
  std::optional<std::string> Read(TableId table, const Key& key,
                                  TxnId reader_txn) const;

  // Stages a write. Returns false if another transaction's pending write
  // still occupies the row (its Commit/Complete has not landed yet) — the
  // caller must retry shortly; the slot frees when that write applies or
  // aborts. kInsert semantics are enforced by the caller (primary
  // replica) via ExistsCommitted. `tc` and `staged_at` record which
  // coordinator staged the write and when, so the orphaned-slot sweep can
  // trace a stuck pending write back to its transaction.
  [[nodiscard]] bool Prepare(TableId table, const Key& key, WriteType type,
                             std::string value, TxnId txn,
                             NodeId tc = kNoNode, Nanos staged_at = 0);

  // Applies txn's pending op on the row, making it the committed image.
  // Returns the applied mutation (for redo logging), or nullopt if there
  // was nothing pending for txn on that row.
  struct AppliedWrite {
    WriteType type;
    std::string value;
  };
  std::optional<AppliedWrite> Commit(TableId table, const Key& key,
                                     TxnId txn);

  // Drops txn's pending op on the row.
  void Abort(TableId table, const Key& key, TxnId txn);

  bool ExistsCommitted(TableId table, const Key& key) const;
  bool HasPending(TableId table, const Key& key) const;

  // All committed rows whose key starts with `prefix`, plus the reader's
  // own pending rows in that range. Returned in key order.
  std::vector<std::pair<Key, std::string>> ScanPrefix(TableId table,
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
  void BootstrapPut(TableId table, const Key& key, std::string value);
  // Direct committed delete (redo replay of delete entries).
  void BootstrapDelete(TableId table, const Key& key);

  // Iterates the committed image of one table (recovery data copy).
  void ForEachCommitted(
      TableId table,
      const std::function<void(const Key&, const std::string&)>& fn) const;

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
    std::string value;
  };
  void ForEachPending(const std::function<void(const PendingRow&)>& fn) const;

 private:
  struct Row {
    std::optional<std::string> committed;
    // Pending op staged by the prepare phase.
    bool has_pending = false;
    TxnId pending_txn = 0;
    NodeId pending_tc = kNoNode;  // coordinator that staged the write
    uint32_t pending_slot = 0;    // position in pending_ while has_pending
    Nanos pending_since = 0;      // when it was staged
    WriteType pending_type = WriteType::kPut;
    std::string pending_value;
  };
  using Entry = std::map<Key, Row>::value_type;
  struct PendingRef {
    TableId table;
    Entry* entry;
  };

  // Adds/removes a row whose has_pending flag is being set/cleared.
  void IndexPending(TableId table, Entry& entry);
  void UnindexPending(Row& row);

  std::vector<std::map<Key, Row>> tables_;
  // Every row with has_pending, unordered (swap-remove on unindex).
  std::vector<PendingRef> pending_;
  // ForEachPending's sort buffer, kept to reuse its capacity.
  mutable std::vector<PendingRef> pending_sorted_;
  int64_t total_bytes_ = 0;
  int debug_owner_ = -1;
};

}  // namespace repro::ndb
