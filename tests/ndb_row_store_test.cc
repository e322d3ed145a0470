// Direct unit tests for RowStore's pending-write index: ForEachPending
// visits only rows with a staged write, yet must report exactly what a
// walk of every row would, in the same (table, key) order.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "ndb/row_store.h"
#include "util/rng.h"
#include "util/strings.h"

namespace repro::ndb {
namespace {

constexpr int kTables = 2;

// One reported pending write, comparable field by field.
using Seen = std::tuple<TableId, Key, TxnId, NodeId, Nanos, WriteType,
                        std::string>;

std::vector<Seen> Pending(const RowStore& store) {
  std::vector<Seen> out;
  store.ForEachPending([&](const RowStore::PendingRow& p) {
    out.emplace_back(p.table, p.key, p.txn, p.tc, p.staged_at, p.type,
                     p.value);
  });
  return out;
}

// Reference model of every row the randomized ops can touch.
struct ModelRow {
  std::optional<std::string> committed;
  std::optional<Seen> pending;
};

class Model {
 public:
  explicit Model(const std::vector<Key>& keys) {
    for (TableId t = 0; t < kTables; ++t) {
      for (const Key& k : keys) rows_[{t, k}];
    }
  }

  ModelRow& row(TableId t, const Key& k) { return rows_.at({t, k}); }

  void Clear() {
    for (auto& [id, r] : rows_) r = ModelRow{};
  }

  // The brute-force answer: every row, in (table, key) order, that holds
  // a staged write. Also checks the store agrees on every row's flag.
  std::vector<Seen> Walk(const RowStore& store) const {
    std::vector<Seen> out;
    for (const auto& [id, r] : rows_) {
      EXPECT_EQ(store.HasPending(id.first, id.second), r.pending.has_value())
          << "table " << id.first << " key " << id.second;
      if (r.pending) out.push_back(*r.pending);
    }
    return out;
  }

 private:
  std::map<std::pair<TableId, Key>, ModelRow> rows_;
};

void RunRandomized(uint64_t seed) {
  // Keys that sort non-trivially: shared prefixes, '/' next to '-', '0'.
  const std::vector<Key> keys = {"1/a",  "1/a/b", "1/a-b", "1/a0", "1/b",
                                 "10/a", "2/",    "2/x",   "2/x/y", "3/z"};
  Rng rng(seed);
  RowStore store(kTables);
  Model model(keys);
  TxnId next_txn = 1;
  for (int step = 0; step < 4000; ++step) {
    const TableId t = static_cast<TableId>(rng.NextBelow(kTables));
    const Key& key = keys[rng.NextBelow(keys.size())];
    ModelRow& m = model.row(t, key);
    // Usually act as the row's pending txn, so commits and aborts land.
    const TxnId txn = m.pending && rng.NextBool(0.8)
                          ? std::get<TxnId>(*m.pending)
                          : next_txn++;
    const uint64_t pick = rng.NextBelow(100);
    std::string what;
    if (pick < 35) {
      const WriteType type =
          rng.NextBool(0.7) ? WriteType::kPut : WriteType::kDelete;
      const std::string value = StrFormat("v%d", step);
      const NodeId tc = static_cast<NodeId>(rng.NextBelow(4));
      const Nanos at = step;
      const bool ok = store.Prepare(t, key, type, value, txn, tc, at);
      const bool blocked = m.pending && std::get<TxnId>(*m.pending) != txn;
      ASSERT_EQ(ok, !blocked) << "step " << step;
      if (ok) m.pending = Seen{t, key, txn, tc, at, type, value};
      what = "prepare";
    } else if (pick < 55) {
      const auto applied = store.Commit(t, key, txn);
      const bool hit = m.pending && std::get<TxnId>(*m.pending) == txn;
      ASSERT_EQ(applied.has_value(), hit) << "step " << step;
      if (hit) {
        if (std::get<WriteType>(*m.pending) == WriteType::kDelete) {
          m.committed.reset();
        } else {
          m.committed = std::get<6>(*m.pending);
        }
        m.pending.reset();
      }
      what = "commit";
    } else if (pick < 75) {
      store.Abort(t, key, txn);
      if (m.pending && std::get<TxnId>(*m.pending) == txn) m.pending.reset();
      what = "abort";
    } else if (pick < 87) {
      const std::string value = StrFormat("b%d", step);
      store.BootstrapPut(t, key, value);
      m.committed = value;
      what = "bootstrap-put";
    } else if (pick < 99) {
      store.BootstrapDelete(t, key);
      m = ModelRow{};
      what = "bootstrap-delete";
    } else {
      store.Clear();
      model.Clear();
      what = "clear";
    }
    ASSERT_EQ(Pending(store), model.Walk(store))
        << "seed " << seed << " step " << step << " after " << what << " on "
        << t << "/" << key;
    for (TableId tt = 0; tt < kTables; ++tt) {
      for (const Key& k : keys) {
        ASSERT_EQ(store.ExistsCommitted(tt, k),
                  model.row(tt, k).committed.has_value());
      }
    }
  }
}

TEST(NdbRowStore, PendingIndexMatchesFullWalkUnderRandomOps) {
  for (uint64_t seed : {1u, 2u, 3u, 42u, 7919u}) {
    RunRandomized(seed);
    if (HasFatalFailure()) return;
  }
}

TEST(NdbRowStore, ManyCommittedRowsAndNoPendingYieldNothing) {
  RowStore store(kTables);
  for (int i = 0; i < 100000; ++i) {
    store.BootstrapPut(i % kTables, StrFormat("%d/f", i), "x");
  }
  EXPECT_TRUE(Pending(store).empty());
  // A write that stages and applies leaves nothing behind either.
  ASSERT_TRUE(store.Prepare(0, "0/f", WriteType::kPut, "y", /*txn=*/9));
  EXPECT_EQ(Pending(store).size(), 1u);
  ASSERT_TRUE(store.Commit(0, "0/f", 9).has_value());
  EXPECT_TRUE(Pending(store).empty());
  EXPECT_EQ(store.row_count(0) + store.row_count(1), 100000);
}

}  // namespace
}  // namespace repro::ndb
