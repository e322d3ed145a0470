// Per-datanode write-ahead redo journal with group commit, log segments,
// and local checkpoints (the NDB REDO log + LCP analogue, §II-B2).
//
// Every write applied at a replica appends one sequence-numbered record
// stamped with the GCP epoch the transaction's coordinator assigned at
// its commit decision (transaction-atomic: all replicas of one commit
// carry the same epoch). Records accumulate in memory and reach disk in
// *group commits*: the flush timer collects everything appended since the
// previous flush into one batch and the caller charges a single disk
// write (batch bytes + an fsync overhead) to the simulated log disk;
// `durable_seqno` advances only when that write lands. A *local
// checkpoint* (LCP) folds the durable log prefix into a base row image,
// truncating fully-covered segments so the journal's memory footprint is
// bounded by the checkpoint image plus roughly one LCP interval of log.
//
// Because the cluster closes epoch E only after every transaction of
// epochs <= E has completed, records of epoch E+1 may be appended before
// E's boundary is recorded. The journal therefore never infers "is this
// record in the base image" from sequence numbers alone: every record
// carries an explicit `folded` bit set when an LCP folds it into the base,
// and replay / loss accounting / truncation all consult it. LCPs are
// per-partition (fragment LCPs, like real NDB): each fragment write folds
// only that partition's records, a partially completed LCP round still
// truncates fully-covered segments, and the checkpoint I/O is spread in
// time instead of one monolithic image write.
//
// Epoch durability is log-driven: the datanode closes epoch E when the
// cluster announces that E has completed (recording the boundary seqno),
// and E counts as durable on this node once the flushed prefix covers
// that boundary. The cluster-wide durable GCP epoch is the minimum over
// nodes — exactly "the epoch only advances when every node's log covering
// it is on disk".
//
// Replay rebuilds the committed row image deterministically: base image
// first, then every flushed unfolded record up to the requested epoch, in
// seqno order. `ReplayDigest` folds the would-be image into an
// order-sensitive FNV-1a digest without touching any store, so recovery
// can prove that two independent replays of the same journal produce
// byte-identical row states (the replay-determinism audit run on every
// recovery).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ndb/row_image.h"
#include "ndb/types.h"
#include "util/time.h"

namespace repro::ndb {

// Order-sensitive FNV-1a digest of a (table, key, value/tombstone) row
// stream. Used to compare replayed images for byte-identity.
class ImageDigest {
 public:
  void AddRow(TableId table, const Key& key, std::string_view value);
  uint64_t value() const { return hash_; }

 private:
  void Mix(const void* data, size_t len);
  uint64_t hash_ = 1469598103934665603ull;  // FNV offset basis
};

class RedoJournal {
 public:
  struct Record {
    int64_t seqno = 0;  // 1-based, monotonic per node, never reused
    int64_t epoch = 0;  // GCP epoch the TC assigned at commit decision
    TxnId txn = 0;
    TableId table = 0;
    Key key;
    PartitionId part = 0;
    bool deleted = false;
    bool folded = false;  // already folded into the base image by an LCP
    RowImage value;       // the replica's committed image; null if deleted
    int64_t bytes = 0;       // on-disk size incl. record overhead
    Nanos appended_at = 0;   // when the replica applied the write
    // While unfolded: the seqno of its partition's next unfolded record
    // (0 = none).
    int64_t next_in_part = 0;
  };

  struct Segment {
    int64_t first_seqno = 0;
    int64_t last_seqno = 0;  // == first-1 while empty
    int64_t bytes = 0;
    int64_t unfolded = 0;    // records not yet folded into the base
    std::vector<Record> records;
  };

  // `segment_bytes` is the segment roll size; truncation drops whole
  // flushed segments.
  RedoJournal(int num_tables, int64_t segment_bytes);

  // ---- append path --------------------------------------------------
  // Appends one redo record; returns its seqno.
  int64_t Append(int64_t epoch, TxnId txn, TableId table, const Key& key,
                 PartitionId part, bool deleted, RowImage value, Nanos now);
  // Bootstrap rows are durable by definition (loaded before the run):
  // they go straight into the checkpoint base image, not the log.
  void BootstrapRow(TableId table, const Key& key, const RowImage& value);

  // ---- group commit -------------------------------------------------
  // Collects everything appended since the previous flush request into
  // one batch. `disk_bytes` (record bytes + flush overhead) is what the
  // caller charges to the log disk; call MarkFlushed when the write
  // lands. Returns upto_seqno == 0 when there is nothing to flush.
  struct FlushBatch {
    int64_t upto_seqno = 0;
    int64_t record_bytes = 0;
    int64_t disk_bytes = 0;
  };
  FlushBatch PrepareFlush();
  void MarkFlushed(const FlushBatch& batch);

  // Crash: the un-flushed tail (including flushes still in flight) never
  // reached disk and is lost. Bumps generation() so stale disk-write
  // completions from before the crash can be recognised and dropped.
  void DropUnflushed();

  // ---- epochs -------------------------------------------------------
  // The cluster announced that GCP epoch `epoch` has completed: every
  // record of epochs <= epoch precedes the current log end. Idempotent
  // per epoch.
  void CloseEpoch(int64_t epoch);
  // Highest closed epoch whose boundary the flushed prefix covers (or
  // the base image epoch if newer). 0 before anything is durable.
  int64_t durable_epoch() const;

  // ---- local checkpoints (fragment LCPs) ----------------------------
  // Log position an LCP round may cut at: the boundary of the cluster-
  // wide durable epoch (never beyond this node's own flushed prefix).
  // Rows of later epochs must stay in the log — folding them into the
  // base image would bake in commits a cluster recovery may need to
  // drop.
  int64_t CheckpointCutSeqno(int64_t cluster_durable_epoch) const;
  // Largest closed epoch whose boundary `cut_seqno` covers (the epoch a
  // checkpoint at that cut attests).
  int64_t EpochAtCut(int64_t cut_seqno) const;
  // Serialized size of one fragment's checkpoint write: this partition's
  // share of the base image plus its foldable log records at the cut.
  int64_t FragmentCheckpointBytes(PartitionId part, int num_partitions,
                                  int64_t cut_seqno) const;
  // The fragment's image write reached disk: fold this partition's
  // records at or below the cut into the base image and mark them folded.
  // A partially completed LCP round still truncates covered segments.
  void CompleteFragmentCheckpoint(PartitionId part, int64_t cut_seqno);
  // Every fragment of the round at `cut_seqno` is on disk: advance the
  // base seqno/epoch the whole image attests, prune closed epoch bounds,
  // truncate covered segments.
  void FinishCheckpointRound(int64_t cut_seqno, Nanos now);

  // Node rejoin / cluster restore: replace the whole journal state with
  // an externally supplied consistent image "as of `epoch`" (the node
  // completes a checkpoint of the adopted image before serving, as real
  // NDB does during node restart). Bumps generation().
  void InstallImageBegin(int64_t epoch, Nanos now);
  void InstallImageRow(TableId table, const Key& key,
                       const RowImage& value);
  void InstallImageDelete(TableId table, const Key& key);
  // Rejoin catch-up: adopts one post-cut redo record from the resync
  // source's journal, preserving its epoch/txn stamps. Adopted records
  // count as flushed (the rejoin checkpoint write charges the disk).
  void AdoptRecord(int64_t epoch, TxnId txn, TableId table, const Key& key,
                   PartitionId part, bool deleted, RowImage value,
                   Nanos appended_at);
  // Records that the adopted base image may attest epochs up to `epoch`
  // for some partitions (the source had folded fragments beyond the
  // cut); a cluster recovery must never cut below this.
  void RaiseFoldedEpoch(int64_t epoch);
  // Highest epoch any fragment of the base image may contain — the floor
  // for a cluster-recovery cut involving this node.
  int64_t max_folded_epoch() const { return max_folded_epoch_; }

  // ---- replay -------------------------------------------------------
  struct ReplayPlan {
    int64_t entries = 0;      // flushed log records to re-apply
    int64_t log_bytes = 0;    // their on-disk size (log-disk read)
    int64_t image_bytes = 0;  // checkpoint base image size (disk read)
    int64_t image_rows = 0;
  };
  // What replaying up to `max_epoch` (durable prefix only) would read
  // and apply. INT64_MAX = everything this node's disks have.
  ReplayPlan PlanReplay(int64_t max_epoch) const;
  // Applies the base image then flushed unfolded records with epoch <=
  // max_epoch in seqno order. Returns the number of log records applied.
  int64_t Replay(int64_t max_epoch,
                 const std::function<void(TableId, const Key&,
                                          const RowImage&)>& put,
                 const std::function<void(TableId, const Key&)>& del) const;
  // Digest of the row image Replay(max_epoch) would produce, computed on
  // a scratch image (no store involved).
  uint64_t ReplayDigest(int64_t max_epoch) const;

  // ---- loss accounting (cluster recovery reporting) ------------------
  // Records a recovery cut at `epoch` would drop: anything of a later
  // epoch, plus anything not yet flushed.
  struct LossReport {
    std::vector<TxnId> txns;      // distinct, ascending
    int64_t entries = 0;
    Nanos oldest_append = -1;     // append time of the oldest dropped record
  };
  LossReport LossBeyond(int64_t epoch) const;

  // ---- introspection / telemetry -------------------------------------
  int64_t last_seqno() const { return last_seqno_; }
  int64_t durable_seqno() const { return durable_seqno_; }
  int64_t base_seqno() const { return base_seqno_; }
  int64_t base_epoch() const { return base_epoch_; }
  int64_t base_rows() const { return base_rows_; }
  int64_t base_bytes() const { return base_bytes_; }
  // The checkpoint base image's row (null if the base lacks it).
  RowImage BaseRow(TableId table, const Key& key) const;
  Nanos last_checkpoint_at() const { return last_checkpoint_at_; }
  // Appended-but-not-yet-durable bytes (group-commit backlog). Grows
  // without bound when the log disk cannot keep up — the redo
  // backpressure stall limit bounds it.
  int64_t backlog_bytes() const;
  // Replay debt: log bytes/records not yet folded into a checkpoint —
  // what a crash right now would cost to replay (the `ndb.lcp.lag`
  // telemetry series).
  int64_t lag_bytes() const { return lag_bytes_; }
  int64_t lag_entries() const { return lag_entries_; }
  // Records currently held in memory (bounded by LCP truncation).
  int64_t live_records() const;
  int64_t num_segments() const {
    return static_cast<int64_t>(segments_.size());
  }
  const std::deque<Segment>& segments() const { return segments_; }
  // Incremented by DropUnflushed / InstallImageBegin; lets in-flight
  // disk completions detect that the journal they flushed is gone.
  uint64_t generation() const { return generation_; }

 private:
  void AppendToSegment(Record record);
  void FoldIntoBase(const Record& record);
  void TruncateCoveredSegments();
  // An unfolded record leaves the replay debt (folded or dropped).
  void DropLag(const Record& record);
  // Where the live record `seqno` sits: (segment index, record index).
  std::pair<size_t, size_t> Locate(int64_t seqno) const;
  Record& RecordAt(int64_t seqno) {
    const auto [s, i] = Locate(seqno);
    return segments_[s].records[i];
  }

  int64_t segment_bytes_;
  std::deque<Segment> segments_;
  // Checkpoint base image: committed rows as of the folded record set,
  // sharing the records' images. (Tombstones are folded away: a deleted
  // row is simply absent.)
  std::vector<std::map<Key, RowImage>> base_;
  int64_t base_seqno_ = 0;
  int64_t base_epoch_ = 0;
  int64_t max_folded_epoch_ = 0;
  int64_t base_rows_ = 0;
  int64_t base_bytes_ = 0;
  Nanos last_checkpoint_at_ = 0;

  int64_t last_seqno_ = 0;
  int64_t durable_seqno_ = 0;
  int64_t flush_requested_seqno_ = 0;
  int64_t appended_bytes_ = 0;   // record bytes appended, cumulative
  int64_t durable_bytes_ = 0;    // record bytes known on disk, cumulative
  int64_t lag_bytes_ = 0;
  int64_t lag_entries_ = 0;
  // Closed-epoch boundaries, ascending: epoch -> last seqno of epochs <=
  // it. Pruned below the base epoch at checkpoint time.
  std::vector<std::pair<int64_t, int64_t>> epoch_bounds_;
  // Per partition id, its unfolded records as a chain in seqno order,
  // linked through Record::next_in_part: a fragment checkpoint visits
  // only its own records. Appends and adoptions add to the tail, folds
  // unlink, DropUnflushed cuts the chain before the dropped tail, and an
  // installed image empties it. Seqno 0 ends a chain.
  struct PartChain {
    int64_t head = 0;
    int64_t tail = 0;
  };
  std::vector<PartChain> unfolded_by_part_;
  uint64_t generation_ = 0;
};

}  // namespace repro::ndb
