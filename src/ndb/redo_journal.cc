#include "ndb/redo_journal.h"

#include <algorithm>
#include <set>

#include "ndb/config.h"
#include "prof/profiler.h"

namespace repro::ndb {

namespace {
// On-disk framing per record (type, seqno, epoch, txn, lengths).
constexpr int64_t kRedoRecordOverheadBytes = 32;
constexpr uint64_t kFnvPrime = 1099511628211ull;
// Separates fields inside the digest stream so ("ab","c") and ("a","bc")
// cannot collide, and marks deleted rows distinctly from empty values.
constexpr unsigned char kFieldSep = 0x1f;
}  // namespace

void ImageDigest::Mix(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash_ ^= p[i];
    hash_ *= kFnvPrime;
  }
}

void ImageDigest::AddRow(TableId table, const Key& key,
                         std::string_view value) {
  Mix(&table, sizeof(table));
  Mix(&kFieldSep, 1);
  Mix(key.data(), key.size());
  Mix(&kFieldSep, 1);
  Mix(value.data(), value.size());
  Mix(&kFieldSep, 1);
}

RedoJournal::RedoJournal(int num_tables, int64_t segment_bytes)
    : segment_bytes_(segment_bytes), base_(num_tables) {}

void RedoJournal::AppendToSegment(Record record) {
  if (segments_.empty() || segments_.back().bytes >= segment_bytes_) {
    Segment seg;
    seg.first_seqno = record.seqno;
    seg.last_seqno = record.seqno - 1;
    segments_.push_back(std::move(seg));
  }
  Segment& seg = segments_.back();
  seg.last_seqno = record.seqno;
  seg.bytes += record.bytes;
  if (!record.folded) seg.unfolded += 1;
  seg.records.push_back(std::move(record));
}

int64_t RedoJournal::Append(int64_t epoch, TxnId txn, TableId table,
                            const Key& key, PartitionId part, bool deleted,
                            RowImage value, Nanos now) {
  Record r;
  r.seqno = ++last_seqno_;
  r.epoch = epoch;
  r.txn = txn;
  r.table = table;
  r.key = key;
  r.part = part;
  r.deleted = deleted;
  r.value = std::move(value);
  r.bytes = static_cast<int64_t>(key.size()) +
            static_cast<int64_t>(r.value.size()) +
            kRedoRecordOverheadBytes;
  r.appended_at = now;
  appended_bytes_ += r.bytes;
  lag_bytes_ += r.bytes;
  lag_entries_ += 1;
  AppendToSegment(std::move(r));
  return last_seqno_;
}

void RedoJournal::BootstrapRow(TableId table, const Key& key,
                               const RowImage& value) {
  auto& rows = base_[table];
  auto it = rows.find(key);
  const int64_t row_bytes = static_cast<int64_t>(key.size()) +
                            static_cast<int64_t>(value.size()) +
                            kRedoRecordOverheadBytes;
  if (it == rows.end()) {
    rows.emplace(key, value);
    base_rows_ += 1;
    base_bytes_ += row_bytes;
  } else {
    base_bytes_ += static_cast<int64_t>(value.size()) -
                   static_cast<int64_t>(it->second.size());
    it->second = value;
  }
}

RowImage RedoJournal::BaseRow(TableId table, const Key& key) const {
  const auto& rows = base_[table];
  auto it = rows.find(key);
  return it == rows.end() ? RowImage() : it->second;
}

RedoJournal::FlushBatch RedoJournal::PrepareFlush() {
  PROF_ZONE("ndb.redo.prepare_flush");
  FlushBatch batch;
  if (last_seqno_ <= flush_requested_seqno_) return batch;
  batch.upto_seqno = last_seqno_;
  for (const Segment& seg : segments_) {
    if (seg.last_seqno <= flush_requested_seqno_) continue;
    for (const Record& r : seg.records) {
      if (r.seqno > flush_requested_seqno_) batch.record_bytes += r.bytes;
    }
  }
  batch.disk_bytes = batch.record_bytes + kRedoFlushOverheadBytes;
  flush_requested_seqno_ = batch.upto_seqno;
  return batch;
}

void RedoJournal::MarkFlushed(const FlushBatch& batch) {
  PROF_ZONE("ndb.redo.mark_flushed");
  if (batch.upto_seqno <= durable_seqno_) return;
  durable_seqno_ = batch.upto_seqno;
  durable_bytes_ += batch.record_bytes;
}

void RedoJournal::DropUnflushed() {
  ++generation_;
  flush_requested_seqno_ = durable_seqno_;
  // Folded records are always <= durable_seqno_ (an LCP only folds the
  // flushed prefix), so the dropped tail is all unfolded.
  while (!segments_.empty() &&
         segments_.back().first_seqno > durable_seqno_) {
    appended_bytes_ -= segments_.back().bytes;
    for (const Record& r : segments_.back().records) DropLag(r);
    segments_.pop_back();
  }
  if (!segments_.empty() && segments_.back().last_seqno > durable_seqno_) {
    Segment& seg = segments_.back();
    while (!seg.records.empty() &&
           seg.records.back().seqno > durable_seqno_) {
      const Record& r = seg.records.back();
      seg.bytes -= r.bytes;
      appended_bytes_ -= r.bytes;
      if (!r.folded) seg.unfolded -= 1;
      DropLag(r);
      seg.records.pop_back();
    }
    seg.last_seqno = durable_seqno_;
  }
}

void RedoJournal::CloseEpoch(int64_t epoch) {
  if (!epoch_bounds_.empty() && epoch_bounds_.back().first >= epoch) return;
  epoch_bounds_.emplace_back(epoch, last_seqno_);
}

int64_t RedoJournal::durable_epoch() const {
  int64_t epoch = base_epoch_;
  for (auto it = epoch_bounds_.rbegin(); it != epoch_bounds_.rend(); ++it) {
    if (it->second <= durable_seqno_) {
      epoch = std::max(epoch, it->first);
      break;
    }
  }
  return epoch;
}

int64_t RedoJournal::CheckpointCutSeqno(
    int64_t cluster_durable_epoch) const {
  int64_t cut = base_seqno_;
  for (const auto& [epoch, boundary] : epoch_bounds_) {
    if (epoch > cluster_durable_epoch) break;
    cut = std::max(cut, boundary);
  }
  // Never fold beyond the locally flushed prefix: the image must not
  // contain rows the log could fail to attest after a crash.
  return std::min(cut, durable_seqno_);
}

int64_t RedoJournal::EpochAtCut(int64_t cut_seqno) const {
  int64_t epoch = base_epoch_;
  for (const auto& [e, boundary] : epoch_bounds_) {
    if (boundary > cut_seqno) break;
    epoch = std::max(epoch, e);
  }
  return epoch;
}

int64_t RedoJournal::FragmentCheckpointBytes(PartitionId part,
                                             int num_partitions,
                                             int64_t cut_seqno) const {
  // The fragment writes its share of the base image plus the records it
  // is about to fold. Shares sum to the whole image across fragments.
  int64_t bytes = base_bytes_ / num_partitions +
                  (part < base_bytes_ % num_partitions ? 1 : 0);
  const int64_t cut_epoch = EpochAtCut(cut_seqno);
  for (const Segment& seg : segments_) {
    if (seg.first_seqno > cut_seqno) break;
    for (const Record& r : seg.records) {
      if (r.seqno > cut_seqno) break;
      if (!r.folded && r.part == part && r.epoch <= cut_epoch) {
        bytes += r.bytes;
      }
    }
  }
  return bytes;
}

void RedoJournal::CompleteFragmentCheckpoint(PartitionId part,
                                             int64_t cut_seqno) {
  // Only records of closed epochs the cut attests may fold: a record of
  // a still-open epoch can sit below the cut seqno (deferred epoch close
  // interleaves), and folding it would bake a commit into the base image
  // that a cluster recovery at the cut epoch must drop.
  const int64_t cut_epoch = EpochAtCut(cut_seqno);
  for (Segment& seg : segments_) {
    if (seg.first_seqno > cut_seqno) break;
    for (Record& r : seg.records) {
      if (r.seqno > cut_seqno) break;
      if (r.folded || r.part != part || r.epoch > cut_epoch) continue;
      FoldIntoBase(r);
      DropLag(r);
      r.folded = true;
      seg.unfolded -= 1;
    }
  }
  max_folded_epoch_ = std::max(max_folded_epoch_, cut_epoch);
  // A partially completed LCP round still truncates what it covered.
  TruncateCoveredSegments();
}

void RedoJournal::FinishCheckpointRound(int64_t cut_seqno, Nanos now) {
  base_seqno_ = std::max(base_seqno_, cut_seqno);
  base_epoch_ = std::max(base_epoch_, EpochAtCut(cut_seqno));
  last_checkpoint_at_ = now;
  // Epoch boundaries at or below the base epoch can never cut again.
  while (epoch_bounds_.size() > 1 &&
         epoch_bounds_.front().first <= base_epoch_ &&
         epoch_bounds_.front().second <= base_seqno_) {
    epoch_bounds_.erase(epoch_bounds_.begin());
  }
  // Truncation drops only fully folded segments: the lag stays.
  TruncateCoveredSegments();
}

void RedoJournal::FoldIntoBase(const Record& record) {
  auto& rows = base_[record.table];
  auto it = rows.find(record.key);
  if (record.deleted) {
    if (it != rows.end()) {
      base_bytes_ -= static_cast<int64_t>(record.key.size()) +
                     static_cast<int64_t>(it->second.size()) +
                     kRedoRecordOverheadBytes;
      base_rows_ -= 1;
      rows.erase(it);
    }
    return;
  }
  if (it == rows.end()) {
    rows.emplace(record.key, record.value);
    base_rows_ += 1;
    base_bytes_ += record.bytes;
  } else {
    base_bytes_ += static_cast<int64_t>(record.value.size()) -
                   static_cast<int64_t>(it->second.size());
    it->second = record.value;
  }
}

void RedoJournal::TruncateCoveredSegments() {
  // A segment whose every record is folded is fully attested by the base
  // image (folding only touches the flushed prefix) — drop it. A segment
  // with any unfolded record stays whole; re-visiting its folded prefix
  // is skipped everywhere via the folded bit.
  while (!segments_.empty() && segments_.front().unfolded == 0) {
    segments_.pop_front();
  }
}

void RedoJournal::InstallImageBegin(int64_t epoch, Nanos now) {
  ++generation_;
  for (auto& rows : base_) rows.clear();
  base_rows_ = 0;
  base_bytes_ = 0;
  segments_.clear();
  epoch_bounds_.clear();
  base_seqno_ = last_seqno_;
  durable_seqno_ = last_seqno_;
  flush_requested_seqno_ = last_seqno_;
  durable_bytes_ = appended_bytes_;
  base_epoch_ = epoch;
  max_folded_epoch_ = epoch;
  last_checkpoint_at_ = now;
  lag_bytes_ = 0;
  lag_entries_ = 0;
}

void RedoJournal::InstallImageRow(TableId table, const Key& key,
                                  const RowImage& value) {
  BootstrapRow(table, key, value);
}

void RedoJournal::InstallImageDelete(TableId table, const Key& key) {
  auto& rows = base_[table];
  auto it = rows.find(key);
  if (it == rows.end()) return;
  base_bytes_ -= static_cast<int64_t>(key.size()) +
                 static_cast<int64_t>(it->second.size()) +
                 kRedoRecordOverheadBytes;
  base_rows_ -= 1;
  rows.erase(it);
}

void RedoJournal::AdoptRecord(int64_t epoch, TxnId txn, TableId table,
                              const Key& key, PartitionId part, bool deleted,
                              RowImage value, Nanos appended_at) {
  Record r;
  r.seqno = ++last_seqno_;
  r.epoch = epoch;
  r.txn = txn;
  r.table = table;
  r.key = key;
  r.part = part;
  r.deleted = deleted;
  r.value = std::move(value);
  r.bytes = static_cast<int64_t>(key.size()) +
            static_cast<int64_t>(r.value.size()) +
            kRedoRecordOverheadBytes;
  r.appended_at = appended_at;
  appended_bytes_ += r.bytes;
  lag_bytes_ += r.bytes;
  lag_entries_ += 1;
  AppendToSegment(std::move(r));
  // Adopted records count as flushed: the rejoin sequence charges their
  // bytes to the log disk in one bulk write before the node serves.
  durable_seqno_ = last_seqno_;
  flush_requested_seqno_ = last_seqno_;
  durable_bytes_ = appended_bytes_;
}

void RedoJournal::RaiseFoldedEpoch(int64_t epoch) {
  max_folded_epoch_ = std::max(max_folded_epoch_, epoch);
}

RedoJournal::ReplayPlan RedoJournal::PlanReplay(int64_t max_epoch) const {
  ReplayPlan plan;
  plan.image_bytes = base_bytes_;
  plan.image_rows = base_rows_;
  for (const Segment& seg : segments_) {
    for (const Record& r : seg.records) {
      if (r.folded || r.seqno > durable_seqno_) continue;
      if (r.epoch > max_epoch) continue;
      plan.entries += 1;
      plan.log_bytes += r.bytes;
    }
  }
  return plan;
}

int64_t RedoJournal::Replay(
    int64_t max_epoch,
    const std::function<void(TableId, const Key&, const RowImage&)>& put,
    const std::function<void(TableId, const Key&)>& del) const {
  for (TableId t = 0; t < static_cast<TableId>(base_.size()); ++t) {
    for (const auto& [key, value] : base_[t]) put(t, key, value);
  }
  int64_t applied = 0;
  for (const Segment& seg : segments_) {
    for (const Record& r : seg.records) {
      if (r.folded || r.seqno > durable_seqno_) continue;
      if (r.epoch > max_epoch) continue;
      if (r.deleted) {
        del(r.table, r.key);
      } else {
        put(r.table, r.key, r.value);
      }
      ++applied;
    }
  }
  return applied;
}

uint64_t RedoJournal::ReplayDigest(int64_t max_epoch) const {
  std::vector<std::map<Key, RowImage>> image(base_.size());
  Replay(
      max_epoch,
      [&image](TableId t, const Key& k, const RowImage& v) {
        image[t][k] = v;
      },
      [&image](TableId t, const Key& k) { image[t].erase(k); });
  ImageDigest digest;
  for (TableId t = 0; t < static_cast<TableId>(image.size()); ++t) {
    for (const auto& [key, value] : image[t]) {
      digest.AddRow(t, key, value.view());
    }
  }
  return digest.value();
}

RedoJournal::LossReport RedoJournal::LossBeyond(int64_t epoch) const {
  LossReport report;
  std::set<TxnId> txns;
  for (const Segment& seg : segments_) {
    for (const Record& r : seg.records) {
      if (r.folded) continue;
      if (r.epoch <= epoch && r.seqno <= durable_seqno_) continue;
      report.entries += 1;
      if (r.txn != 0) txns.insert(r.txn);
      if (report.oldest_append < 0 || r.appended_at < report.oldest_append) {
        report.oldest_append = r.appended_at;
      }
    }
  }
  report.txns.assign(txns.begin(), txns.end());
  return report;
}

int64_t RedoJournal::backlog_bytes() const {
  return appended_bytes_ - durable_bytes_;
}

int64_t RedoJournal::live_records() const {
  int64_t n = 0;
  for (const Segment& seg : segments_) {
    n += static_cast<int64_t>(seg.records.size());
  }
  return n;
}

void RedoJournal::DropLag(const Record& record) {
  if (record.folded) return;
  lag_bytes_ -= record.bytes;
  lag_entries_ -= 1;
}

}  // namespace repro::ndb
