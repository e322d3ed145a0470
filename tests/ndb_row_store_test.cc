// Direct unit tests for RowStore against a reference model. Point
// operations go through a hash index and scans through the ordered map;
// after every random step each must answer exactly what the model does,
// and ForEachPending, which visits only rows with a staged write, must
// report what a walk of every row would, in the same (table, key) order.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ndb/row_store.h"
#include "prof/profiler.h"
#include "util/rng.h"
#include "util/strings.h"

namespace repro::ndb {
namespace {

constexpr int kTables = 2;
// The model's directories "d<i>/" and the names "f<j>" in each.
constexpr int kModelDirs = 24;
constexpr int kModelDirFiles = 12;

// One reported pending write, comparable field by field.
using Seen = std::tuple<TableId, Key, TxnId, NodeId, Nanos, WriteType,
                        std::string>;

std::vector<Seen> Pending(const RowStore& store) {
  std::vector<Seen> out;
  store.ForEachPending([&](const RowStore::PendingRow& p) {
    out.emplace_back(p.table, p.key, p.txn, p.tc, p.staged_at, p.type,
                     std::string(p.value.view()));
  });
  return out;
}

using ScanRows = std::vector<std::pair<Key, std::string>>;

ScanRows Scan(const RowStore& store, TableId t, const Key& prefix,
              TxnId reader) {
  ScanRows out;
  for (const auto& [key, value] : store.ScanPrefix(t, prefix, reader)) {
    out.emplace_back(key, std::string(value.view()));
  }
  return out;
}

// Reference model of every row the randomized ops can touch.
struct ModelRow {
  std::optional<std::string> committed;
  std::optional<Seen> pending;

  // What a reader sees: its own staged write, else the committed image.
  std::optional<std::string> Visible(TxnId reader) const {
    if (pending && std::get<TxnId>(*pending) == reader) {
      if (std::get<WriteType>(*pending) == WriteType::kDelete) {
        return std::nullopt;
      }
      return std::get<6>(*pending);
    }
    return committed;
  }
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
  // a staged write.
  std::vector<Seen> Walk() const {
    std::vector<Seen> out;
    for (const auto& [id, r] : rows_) {
      if (r.pending) out.push_back(*r.pending);
    }
    return out;
  }

  // Every row of table `t` whose key starts with `prefix` that `reader`
  // sees, in key order.
  ScanRows Scan(TableId t, const Key& prefix, TxnId reader) const {
    ScanRows out;
    for (auto it = rows_.lower_bound({t, prefix});
         it != rows_.end() && it->first.first == t &&
         it->first.second.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      if (auto v = it->second.Visible(reader)) {
        out.emplace_back(it->first.second, *v);
      }
    }
    return out;
  }

  // The first point operation, over every row, on which the store
  // disagrees with the model, as text; empty if they agree.
  std::string PointMismatch(const RowStore& store, TxnId reader) const {
    for (const auto& [id, r] : rows_) {
      std::string mismatch = Mismatch(store, id.first, id.second, r, reader);
      if (!mismatch.empty()) return mismatch;
    }
    return "";
  }

  int64_t RowCount(TableId t) const {
    int64_t n = 0;
    for (const auto& [id, r] : rows_) {
      n += id.first == t && (r.committed || r.pending);
    }
    return n;
  }

 private:
  static std::string Mismatch(const RowStore& store, TableId t,
                              const Key& key, const ModelRow& r,
                              TxnId reader) {
    const RowImage read = store.Read(t, key, reader);
    const auto want = r.Visible(reader);
    const char* op = nullptr;
    if (read.has_value() != want.has_value() ||
        (want && read.view() != *want)) {
      op = "Read";
    } else if (store.ExistsCommitted(t, key) != r.committed.has_value()) {
      op = "ExistsCommitted";
    } else if (store.HasPending(t, key) != r.pending.has_value()) {
      op = "HasPending";
    } else {
      return "";
    }
    return StrFormat("%s of table %d key %s", op, t, key.c_str());
  }

  std::map<std::pair<TableId, Key>, ModelRow> rows_;
};

// Keys that sort non-trivially (shared prefixes, '/' next to '-', '0'),
// 24 directories of 12 names each (enough rows that a table's index grows
// from its first capacity several times), and keys whose hash ends in ten
// set bits: they share the index's last slot as their home at every
// capacity up to 1024, so their probe chains wrap past the end.
std::vector<Key> ModelKeys() {
  std::vector<Key> keys = {"1/a",  "1/a/b", "1/a-b", "1/a0", "1/b",
                           "10/a", "2/",    "2/x",   "2/x/y", "3/z"};
  for (int d = 0; d < kModelDirs; ++d) {
    for (int f = 0; f < kModelDirFiles; ++f) {
      keys.push_back(StrFormat("d%d/f%d", d, f));
    }
  }
  for (int i = 0, found = 0; found < 6; ++i) {
    Key key = StrFormat("w/%d", i);
    if ((std::hash<Key>{}(key) & 1023) == 1023) {
      keys.push_back(std::move(key));
      ++found;
    }
  }
  return keys;
}

// Scan prefixes: every directory, a few partial ones, and whole tables.
std::vector<Key> ModelPrefixes() {
  std::vector<Key> prefixes = {"", "1/", "1/a", "1", "2/", "2/x", "w/", "d1"};
  for (int d = 0; d < kModelDirs; ++d) {
    prefixes.push_back(StrFormat("d%d/", d));
  }
  return prefixes;
}

void RunRandomized(uint64_t seed) {
  const std::vector<Key> keys = ModelKeys();
  const std::vector<Key> prefixes = ModelPrefixes();
  Rng rng(seed);
  RowStore store(kTables);
  Model model(keys);
  TxnId next_txn = 1;
  std::vector<Seen> staged;  // the model's staged writes after each step
  int64_t max_rows = 0;
  int commit_deletes = 0;
  int clears = 0;
  for (int step = 0; step < 4000; ++step) {
    const uint64_t pick = rng.NextBelow(1000);
    // Commits and aborts mostly pick a row with a staged write, so that
    // they land and the staged set stays small.
    TableId t = static_cast<TableId>(rng.NextBelow(kTables));
    Key key = keys[rng.NextBelow(keys.size())];
    if (pick >= 380 && pick < 750 && !staged.empty() && rng.NextBool(0.9)) {
      const Seen& s = staged[rng.NextBelow(staged.size())];
      t = std::get<0>(s);
      key = std::get<1>(s);
    }
    ModelRow& m = model.row(t, key);
    // Usually act as the row's pending txn, so commits and aborts land.
    const TxnId txn = m.pending && rng.NextBool(0.8)
                          ? std::get<TxnId>(*m.pending)
                          : next_txn++;
    std::string what;
    if (pick < 380) {
      const WriteType type =
          rng.NextBool(0.7) ? WriteType::kPut : WriteType::kDelete;
      const std::string value = StrFormat("v%d", step);
      const NodeId tc = static_cast<NodeId>(rng.NextBelow(4));
      const Nanos at = step;
      const bool ok =
          store.Prepare(t, key, type, RowImage::Of(value), txn, tc, at);
      const bool blocked = m.pending && std::get<TxnId>(*m.pending) != txn;
      ASSERT_EQ(ok, !blocked) << "step " << step;
      if (ok) m.pending = Seen{t, key, txn, tc, at, type, value};
      what = "prepare";
    } else if (pick < 580) {
      const auto applied = store.Commit(t, key, txn);
      const bool hit = m.pending && std::get<TxnId>(*m.pending) == txn;
      ASSERT_EQ(applied.has_value(), hit) << "step " << step;
      if (hit) {
        if (std::get<WriteType>(*m.pending) == WriteType::kDelete) {
          m.committed.reset();
          what = "commit-delete";
          ++commit_deletes;
        } else {
          m.committed = std::get<6>(*m.pending);
          what = "commit-put";
        }
        m.pending.reset();
      } else {
        what = "commit-miss";
      }
    } else if (pick < 750) {
      store.Abort(t, key, txn);
      if (m.pending && std::get<TxnId>(*m.pending) == txn) m.pending.reset();
      what = "abort";
    } else if (pick < 830) {
      const std::string value = StrFormat("b%d", step);
      store.BootstrapPut(t, key, RowImage::Of(value));
      m.committed = value;
      what = "bootstrap-put";
    } else if (pick < 900) {
      // A recovery data copy: every row of one directory at once.
      const int dir = static_cast<int>(rng.NextBelow(kModelDirs));
      for (int f = 0; f < kModelDirFiles; ++f) {
        const Key row_key = StrFormat("d%d/f%d", dir, f);
        const std::string value = StrFormat("c%d", step);
        store.BootstrapPut(t, row_key, RowImage::Of(value));
        model.row(t, row_key).committed = value;
      }
      what = "bootstrap-copy";
    } else if (pick < 990) {
      store.BootstrapDelete(t, key);
      m = ModelRow{};
      what = "bootstrap-delete";
    } else {
      store.Clear();
      model.Clear();
      what = "clear";
      ++clears;
    }
    const std::string context = StrFormat(
        "seed %llu step %d after %s on %d/%s",
        static_cast<unsigned long long>(seed), step, what.c_str(), t,
        key.c_str());
    staged = model.Walk();
    ASSERT_EQ(Pending(store), staged) << context;
    // Every row, read as this step's txn so that its own staged writes
    // are visible.
    ASSERT_EQ(model.PointMismatch(store, txn), "") << context;
    for (const Key& prefix : {prefixes[rng.NextBelow(prefixes.size())],
                              key.substr(0, key.find('/') + 1)}) {
      for (TableId tt = 0; tt < kTables; ++tt) {
        ASSERT_EQ(Scan(store, tt, prefix, txn), model.Scan(tt, prefix, txn))
            << context << ", scan of '" << prefix << "' in table " << tt;
      }
    }
    for (TableId tt = 0; tt < kTables; ++tt) {
      ASSERT_EQ(store.row_count(tt), model.RowCount(tt)) << context;
      max_rows = std::max(max_rows, store.row_count(tt));
    }
  }
  // Over 128 rows: a table's index grew from 16 slots to 512.
  EXPECT_GT(max_rows, 128) << "seed " << seed;
  EXPECT_GT(commit_deletes, 50) << "seed " << seed;
  EXPECT_GT(clears, 20) << "seed " << seed;
}

TEST(NdbRowStore, PendingIndexMatchesFullWalkUnderRandomOps) {
  for (uint64_t seed : {1u, 2u, 3u, 42u, 7919u}) {
    RunRandomized(seed);
    if (HasFatalFailure()) return;
  }
}

TEST(RowImage, NullIsAbsentAndEmptyIsPresent) {
  const RowImage absent;
  EXPECT_FALSE(absent.has_value());
  EXPECT_EQ(absent.size(), 0u);
  EXPECT_EQ(absent.use_count(), 0u);
  const RowImage empty = RowImage::Of("");
  EXPECT_TRUE(empty.has_value());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_NE(absent, empty);
  EXPECT_EQ(absent, RowImage());
  EXPECT_EQ(empty, RowImage::Of(""));
  EXPECT_EQ(empty, "");
  EXPECT_FALSE(absent == "");
}

TEST(RowImage, EqualityComparesBytesNotBuffers) {
  const RowImage a = RowImage::Of("row");
  const RowImage b = RowImage::Of("row");
  EXPECT_FALSE(a.SharesBuffer(b));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, RowImage::Of("rox"));
  EXPECT_NE(a, RowImage::Of("ro"));
  EXPECT_EQ(a, "row");
  EXPECT_EQ(RowImage::Filled(3, 'z'), "zzz");
  const RowImage encoded = RowImage::Encode([](Encoder& e) {
    e.PutU32(7);
    e.PutString("ab");
  });
  EXPECT_EQ(encoded.view(), std::string_view("\x07\0\0\0\x02\0\0\0ab", 10));
}

TEST(RowImage, CopiesShareOneBufferUntilTheLastReleases) {
  RowImage a = RowImage::Of(std::string(64, 'v'));
  EXPECT_EQ(a.use_count(), 1u);
  {
    const RowImage b = a;
    RowImage c;
    c = b;
    EXPECT_TRUE(b.SharesBuffer(a));
    EXPECT_TRUE(c.SharesBuffer(a));
    EXPECT_EQ(a.use_count(), 3u);
    RowImage d = std::move(c);
    EXPECT_FALSE(c.has_value());
    EXPECT_EQ(a.use_count(), 3u);
    d.reset();
    EXPECT_EQ(a.use_count(), 2u);
  }
  EXPECT_EQ(a.use_count(), 1u);
  const RowImage keep = a;
  a = RowImage::Of("other");  // drops one handle on the old buffer
  EXPECT_EQ(keep.use_count(), 1u);
  EXPECT_EQ(keep, std::string(64, 'v'));
  // Copying a handle allocates nothing.
  std::vector<RowImage> holders;
  holders.reserve(8);
  prof::SetAllocCounting(true);
  const uint64_t before = prof::TotalAllocs().count;
  for (int i = 0; i < 8; ++i) holders.push_back(keep);
  const uint64_t allocs = prof::TotalAllocs().count - before;
  prof::SetAllocCounting(false);
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(keep.use_count(), 9u);
  holders.clear();
  EXPECT_EQ(keep.use_count(), 1u);
}

TEST(NdbRowStore, ManyCommittedRowsAndNoPendingYieldNothing) {
  RowStore store(kTables);
  for (int i = 0; i < 100000; ++i) {
    store.BootstrapPut(i % kTables, StrFormat("%d/f", i), RowImage::Of("x"));
  }
  EXPECT_TRUE(Pending(store).empty());
  // A write that stages and applies leaves nothing behind either.
  ASSERT_TRUE(
      store.Prepare(0, "0/f", WriteType::kPut, RowImage::Of("y"), /*txn=*/9));
  EXPECT_EQ(Pending(store).size(), 1u);
  ASSERT_TRUE(store.Commit(0, "0/f", 9).has_value());
  EXPECT_TRUE(Pending(store).empty());
  EXPECT_EQ(store.row_count(0) + store.row_count(1), 100000);
}

}  // namespace
}  // namespace repro::ndb
