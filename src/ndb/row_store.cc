#include "ndb/row_store.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace repro::ndb {

namespace {
// Row-level debugging for deterministic replays: when $REPRO_TRACE_KEY is
// set, every state change of rows whose key contains it is printed with
// the owning node. Combined with a failing chaos seed this pinpoints
// where a row diverged across replicas. Free when unset (one null check).
bool TraceKey(const Key& key) {
  static const char* k = std::getenv("REPRO_TRACE_KEY");
  return k != nullptr && key.find(k) != Key::npos;
}
}  // namespace

RowStore::RowStore(int num_tables) : tables_(num_tables) {}

std::optional<std::string> RowStore::Read(TableId table, const Key& key,
                                          TxnId reader_txn) const {
  const auto& t = tables_[table];
  auto it = t.find(key);
  if (it == t.end()) return std::nullopt;
  const Row& row = it->second;
  if (row.has_pending && row.pending_txn == reader_txn) {
    if (row.pending_type == WriteType::kDelete) return std::nullopt;
    return row.pending_value;
  }
  return row.committed;
}

bool RowStore::Prepare(TableId table, const Key& key, WriteType type,
                       std::string value, TxnId txn, NodeId tc,
                       Nanos staged_at) {
  Entry& entry = *tables_[table].try_emplace(key).first;
  Row& row = entry.second;
  if (TraceKey(key)) {
    std::fprintf(stderr, "[trace] store %d PREPARE %s txn=%lld tc=%d ok=%d\n",
                 debug_owner_, key.c_str(), (long long)txn, (int)tc,
                 !(row.has_pending && row.pending_txn != txn));
  }
  if (row.has_pending && row.pending_txn != txn) return false;
  if (!row.has_pending) IndexPending(table, entry);
  row.has_pending = true;
  row.pending_txn = txn;
  row.pending_tc = tc;
  row.pending_since = staged_at;
  row.pending_type = type;
  row.pending_value = std::move(value);
  return true;
}

std::optional<RowStore::AppliedWrite> RowStore::Commit(TableId table,
                                                       const Key& key,
                                                       TxnId txn) {
  auto& t = tables_[table];
  auto it = t.find(key);
  if (TraceKey(key)) {
    std::fprintf(stderr, "[trace] store %d COMMIT %s txn=%lld applied=%d\n",
                 debug_owner_, key.c_str(), (long long)txn,
                 it != t.end() && it->second.has_pending &&
                     it->second.pending_txn == txn);
  }
  if (it == t.end()) return std::nullopt;
  Row& row = it->second;
  if (!row.has_pending || row.pending_txn != txn) return std::nullopt;
  if (row.committed) total_bytes_ -= static_cast<int64_t>(row.committed->size());
  AppliedWrite applied{row.pending_type, {}};
  if (row.pending_type == WriteType::kDelete) {
    row.committed.reset();
  } else {
    row.committed = std::move(row.pending_value);
    applied.value = *row.committed;
    total_bytes_ += static_cast<int64_t>(row.committed->size());
  }
  UnindexPending(row);
  row.has_pending = false;
  row.pending_value.clear();
  if (!row.committed) t.erase(it);
  return applied;
}

void RowStore::Abort(TableId table, const Key& key, TxnId txn) {
  auto& t = tables_[table];
  auto it = t.find(key);
  if (TraceKey(key)) {
    std::fprintf(stderr, "[trace] store %d ABORT %s txn=%lld hit=%d\n",
                 debug_owner_, key.c_str(), (long long)txn,
                 it != t.end() && it->second.has_pending &&
                     it->second.pending_txn == txn);
  }
  if (it == t.end()) return;
  Row& row = it->second;
  if (!row.has_pending || row.pending_txn != txn) return;
  UnindexPending(row);
  row.has_pending = false;
  row.pending_value.clear();
  if (!row.committed) t.erase(it);
}

bool RowStore::ExistsCommitted(TableId table, const Key& key) const {
  const auto& t = tables_[table];
  auto it = t.find(key);
  return it != t.end() && it->second.committed.has_value();
}

bool RowStore::HasPending(TableId table, const Key& key) const {
  const auto& t = tables_[table];
  auto it = t.find(key);
  return it != t.end() && it->second.has_pending;
}

std::vector<std::pair<Key, std::string>> RowStore::ScanPrefix(
    TableId table, const Key& prefix, TxnId reader_txn) const {
  std::vector<std::pair<Key, std::string>> out;
  const auto& t = tables_[table];
  for (auto it = t.lower_bound(prefix); it != t.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    const Row& row = it->second;
    if (row.has_pending && row.pending_txn == reader_txn) {
      if (row.pending_type != WriteType::kDelete) {
        out.emplace_back(it->first, row.pending_value);
      }
    } else if (row.committed) {
      out.emplace_back(it->first, *row.committed);
    }
  }
  return out;
}

int64_t RowStore::row_count(TableId table) const {
  return static_cast<int64_t>(tables_[table].size());
}

void RowStore::Clear() {
  for (auto& t : tables_) t.clear();
  pending_.clear();
  total_bytes_ = 0;
}

void RowStore::BootstrapDelete(TableId table, const Key& key) {
  auto& t = tables_[table];
  auto it = t.find(key);
  if (it == t.end()) return;
  if (it->second.committed) {
    total_bytes_ -= static_cast<int64_t>(it->second.committed->size());
  }
  if (it->second.has_pending) UnindexPending(it->second);
  t.erase(it);
}

void RowStore::ForEachCommitted(
    TableId table,
    const std::function<void(const Key&, const std::string&)>& fn) const {
  for (const auto& [key, row] : tables_[table]) {
    if (row.committed) fn(key, *row.committed);
  }
}

void RowStore::IndexPending(TableId table, Entry& entry) {
  entry.second.pending_slot = static_cast<uint32_t>(pending_.size());
  pending_.push_back(PendingRef{table, &entry});
}

void RowStore::UnindexPending(Row& row) {
  const uint32_t slot = row.pending_slot;
  pending_[slot] = pending_.back();
  pending_[slot].entry->second.pending_slot = slot;
  pending_.pop_back();
}

void RowStore::ForEachPending(
    const std::function<void(const PendingRow&)>& fn) const {
  // (table, key) order: the order a walk of every row would visit them
  // in, so orphan resolution releases locks and logs redo in that order.
  pending_sorted_.assign(pending_.begin(), pending_.end());
  std::sort(pending_sorted_.begin(), pending_sorted_.end(),
            [](const PendingRef& a, const PendingRef& b) {
              if (a.table != b.table) return a.table < b.table;
              return a.entry->first < b.entry->first;
            });
  for (const PendingRef& p : pending_sorted_) {
    const Row& row = p.entry->second;
    fn(PendingRow{p.table, p.entry->first, row.pending_txn, row.pending_tc,
                  row.pending_since, row.pending_type, row.pending_value});
  }
}

void RowStore::BootstrapPut(TableId table, const Key& key,
                            std::string value) {
  if (TraceKey(key)) {
    std::fprintf(stderr, "[trace] store %d BOOTSTRAP %s\n", debug_owner_,
                 key.c_str());
  }
  Row& row = tables_[table][key];
  if (row.committed) total_bytes_ -= static_cast<int64_t>(row.committed->size());
  row.committed = std::move(value);
  total_bytes_ += static_cast<int64_t>(row.committed->size());
}

}  // namespace repro::ndb
