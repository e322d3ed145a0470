#include "ndb/row_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>

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

RowImage RowStore::Read(TableId table, const Key& key,
                        TxnId reader_txn) const {
  const Entry* e = Find(table, key);
  if (e == nullptr) return {};
  const Row& row = e->second;
  if (row.pending != kNoPending) {
    const Pending& p = pending_[row.pending];
    if (p.txn == reader_txn) {
      return p.type == WriteType::kDelete ? RowImage() : p.value;
    }
  }
  return row.committed;
}

bool RowStore::Prepare(TableId table, const Key& key, WriteType type,
                       RowImage value, TxnId txn, NodeId tc,
                       Nanos staged_at) {
  Entry& entry = tables_[table].FindOrInsert(key);
  Row& row = entry.second;
  const bool blocked =
      row.pending != kNoPending && pending_[row.pending].txn != txn;
  if (TraceKey(key)) {
    std::fprintf(stderr, "[trace] store %d PREPARE %s txn=%lld tc=%d ok=%d\n",
                 debug_owner_, key.c_str(), (long long)txn, (int)tc,
                 !blocked);
  }
  if (blocked) return false;
  Pending& p = row.pending == kNoPending ? IndexPending(table, entry)
                                         : pending_[row.pending];
  p.txn = txn;
  p.tc = tc;
  p.staged_at = staged_at;
  p.type = type;
  p.value = std::move(value);
  return true;
}

std::optional<RowStore::AppliedWrite> RowStore::Commit(TableId table,
                                                       const Key& key,
                                                       TxnId txn) {
  const uint32_t hash = Table::Hash(key);
  Entry* e = tables_[table].Find(key, hash);
  const bool hit = e != nullptr && e->second.pending != kNoPending &&
                   pending_[e->second.pending].txn == txn;
  if (TraceKey(key)) {
    std::fprintf(stderr, "[trace] store %d COMMIT %s txn=%lld applied=%d\n",
                 debug_owner_, key.c_str(), (long long)txn, hit);
  }
  if (!hit) return std::nullopt;
  Row& row = e->second;
  Pending& p = pending_[row.pending];
  total_bytes_ -= static_cast<int64_t>(row.committed.size());
  AppliedWrite applied{p.type, {}};
  if (p.type == WriteType::kDelete) {
    row.committed.reset();
  } else {
    row.committed = std::move(p.value);
    applied.value = row.committed;
    total_bytes_ += static_cast<int64_t>(row.committed.size());
  }
  UnindexPending(row);
  if (!row.committed) tables_[table].Erase(*e, hash);
  return applied;
}

void RowStore::Abort(TableId table, const Key& key, TxnId txn) {
  const uint32_t hash = Table::Hash(key);
  Entry* e = tables_[table].Find(key, hash);
  const bool hit = e != nullptr && e->second.pending != kNoPending &&
                   pending_[e->second.pending].txn == txn;
  if (TraceKey(key)) {
    std::fprintf(stderr, "[trace] store %d ABORT %s txn=%lld hit=%d\n",
                 debug_owner_, key.c_str(), (long long)txn, hit);
  }
  if (!hit) return;
  UnindexPending(e->second);
  if (!e->second.committed) tables_[table].Erase(*e, hash);
}

bool RowStore::ExistsCommitted(TableId table, const Key& key) const {
  const Entry* e = Find(table, key);
  return e != nullptr && e->second.committed;
}

bool RowStore::HasPending(TableId table, const Key& key) const {
  const Entry* e = Find(table, key);
  return e != nullptr && e->second.pending != kNoPending;
}

std::vector<std::pair<Key, RowImage>> RowStore::ScanPrefix(
    TableId table, const Key& prefix, TxnId reader_txn) const {
  // The image `reader_txn` sees of a row, or null if it sees none.
  const auto visible = [this, reader_txn](const Row& row) -> const RowImage* {
    if (row.pending != kNoPending) {
      const Pending& p = pending_[row.pending];
      if (p.txn == reader_txn) {
        return p.type == WriteType::kDelete ? nullptr : &p.value;
      }
    }
    return row.committed ? &row.committed : nullptr;
  };
  // Count the range first so that the result is allocated once.
  const RowMap& rows = tables_[table].map();
  const auto first = rows.lower_bound(prefix);
  auto last = first;
  size_t n = 0;
  for (; last != rows.end(); ++last) {
    if (last->first.compare(0, prefix.size(), prefix) != 0) break;
    if (visible(last->second) != nullptr) ++n;
  }
  std::vector<std::pair<Key, RowImage>> out;
  out.reserve(n);
  for (auto it = first; it != last; ++it) {
    if (const RowImage* image = visible(it->second)) {
      out.emplace_back(it->first, *image);
    }
  }
  return out;
}

int64_t RowStore::row_count(TableId table) const {
  return static_cast<int64_t>(tables_[table].size());
}

void RowStore::Clear() {
  for (Table& t : tables_) t.Clear();
  pending_.clear();
  total_bytes_ = 0;
}

void RowStore::BootstrapDelete(TableId table, const Key& key) {
  const uint32_t hash = Table::Hash(key);
  Entry* e = tables_[table].Find(key, hash);
  if (e == nullptr) return;
  total_bytes_ -= static_cast<int64_t>(e->second.committed.size());
  if (e->second.pending != kNoPending) UnindexPending(e->second);
  tables_[table].Erase(*e, hash);
}

void RowStore::ForEachCommitted(
    TableId table,
    const std::function<void(const Key&, const RowImage&)>& fn) const {
  for (const auto& [key, row] : tables_[table].map()) {
    if (row.committed) fn(key, row.committed);
  }
}

RowStore::Pending& RowStore::IndexPending(TableId table, Entry& entry) {
  entry.second.pending = static_cast<uint32_t>(pending_.size());
  return pending_.emplace_back(Pending{table, &entry, 0, kNoNode, 0,
                                       WriteType::kPut, RowImage()});
}

void RowStore::UnindexPending(Row& row) {
  const uint32_t slot = row.pending;
  row.pending = kNoPending;
  if (slot + 1 != pending_.size()) {
    pending_[slot] = std::move(pending_.back());
    pending_[slot].entry->second.pending = slot;
  }
  pending_.pop_back();
}

void RowStore::ForEachPending(
    const std::function<void(const PendingRow&)>& fn) const {
  // (table, key) order: the order a walk of every row would visit them
  // in, so orphan resolution releases locks and logs redo in that order.
  pending_sorted_.clear();
  pending_sorted_.reserve(pending_.size());
  for (const Pending& p : pending_) pending_sorted_.push_back(&p);
  std::sort(pending_sorted_.begin(), pending_sorted_.end(),
            [](const Pending* a, const Pending* b) {
              if (a->table != b->table) return a->table < b->table;
              return a->entry->first < b->entry->first;
            });
  for (const Pending* p : pending_sorted_) {
    fn(PendingRow{p->table, p->entry->first, p->txn, p->tc, p->staged_at,
                  p->type, p->value});
  }
}

void RowStore::BootstrapPut(TableId table, const Key& key,
                            RowImage value) {
  if (TraceKey(key)) {
    std::fprintf(stderr, "[trace] store %d BOOTSTRAP %s\n", debug_owner_,
                 key.c_str());
  }
  Row& row = tables_[table].FindOrInsert(key).second;
  total_bytes_ -= static_cast<int64_t>(row.committed.size());
  row.committed = std::move(value);
  total_bytes_ += static_cast<int64_t>(row.committed.size());
}

}  // namespace repro::ndb
