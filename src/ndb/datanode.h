// An NDB datanode: transaction coordinator (TC) + local data manager (LDM).
//
// Each datanode models the multi-threaded architecture of Table II: 12 LDM
// threads own table partitions, 7 TC threads coordinate transactions, 3
// RECV / 2 SEND threads handle the wire, and the REP/IO/MAIN singles act
// as helpers when RECV/SEND back up (the effect behind Fig. 11).
//
// The commit protocol is the paper's linear 2PC (Fig. 2):
//
//   execute(write):  TC --Prepare--> primary --Prepare--> B --> B'
//                    B' --Prepared--> TC            (locks taken at primary)
//   commit:          TC --Commit--> B' --> B --> primary
//                    primary applies + unlocks, --Committed--> TC
//   complete:        TC --Complete--> each backup (applies its pending)
//                    backup --Completed--> TC
//
// Classic NDB acks the client after all Committed messages; backups are
// only up to date after Complete, hence committed reads are redirected to
// the primary. With the Read Backup table option (§IV-A3) the TC delays
// the ack until all Completed messages have arrived, making every replica
// safe for committed reads — the enabler for AZ-local reads.
#pragma once

#include <memory>
#include <memory_resource>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ndb/config.h"
#include "ndb/lock_manager.h"
#include "sim/callback.h"
#include "ndb/redo_journal.h"
#include "ndb/row_store.h"
#include "ndb/schema.h"
#include "ndb/transport.h"
#include "ndb/types.h"
#include "sim/network.h"
#include "sim/resources.h"
#include "util/status.h"

namespace repro::ndb {

class NdbCluster;
class NdbApiNode;

// ---- Datanode -----------------------------------------------------------

class NdbDatanode {
 public:
  NdbDatanode(NdbCluster& cluster, NodeId id, HostId host);

  NodeId id() const { return id_; }
  HostId host() const { return host_; }
  AzId az() const;
  bool alive() const { return alive_; }

  // Grey failure injection: degrades this node's compute and disk service
  // times without killing it — heartbeats still flow (slowly), so the
  // failure detector does NOT evict the node and the cluster limps along
  // with a straggler. Factors of 1.0 restore normal speed.
  void SetGreySlowdown(double cpu_factor, double disk_factor);
  bool grey_degraded() const { return grey_degraded_; }
  // Grey-slow / saturated redo log disk only: the data disk and CPUs stay
  // at full speed, so the node limps exactly where real deployments do —
  // group commits stretch, the unflushed backlog grows, and redo
  // backpressure kicks in. 1.0 restores normal speed.
  void SetLogDiskSlowdown(double factor);
  bool log_disk_slow() const { return log_disk_slow_; }

  // TEST-ONLY fault hook: when set, this node's TC acknowledges write
  // operations as kOk without ever staging them on any replica — a
  // deliberate lost-acked-write bug used to prove the chaos harness's
  // durability invariant actually detects violations. Never set outside
  // tests/benchmarks.
  void set_test_lose_acked_writes(bool v) { test_lose_acked_writes_ = v; }

  // Graceful shutdown (lost arbitration / operator stop): stops serving.
  void Shutdown();
  // Brings a stopped node back into service (node recovery; data must
  // already have been resynchronised by the cluster).
  void Revive();
  // True if any transaction this node coordinates touches the partition
  // (fences streaming per-partition catch-up during node rejoin).
  bool HasTxnTouchingPartition(PartitionId part) const;

  // -- signal handlers (invoked by the transport after RECV-thread
  // queueing; each keeps the signal's record through its TC/LDM stage
  // and forwards or answers with the same record) --
  void TcKeyOp(SignalRef sig);                 // KeyOpReq
  void TcScan(SignalRef sig);                  // ScanReq
  void TcCommit(TxnId txn, uint64_t op_id, ApiNodeId api,
                trace::SpanId span = 0);
  void TcAbort(TxnId txn);

  void LdmCommittedRead(SignalRef sig);        // KeyOpReq
  void LdmLockedRead(SignalRef sig);           // PrepareReq probe
  void LdmPrepare(SignalRef sig);              // PrepareReq
  void LdmCommitChain(SignalRef sig);          // CommitChainReq
  void LdmComplete(SignalRef sig);             // CompleteReq
  void LdmAbortRow(SignalRef sig);             // RowRef
  // Releases a shared/exclusive read lock without touching pending writes
  // (used at the commit point for rows that were only read).
  void LdmUnlock(SignalRef sig);               // RowRef
  void LdmScanExec(SignalRef sig);             // ScanReq

  // TC-side protocol confirmations.
  void TcLockedReadResult(SignalRef sig);      // LockedReadAck
  void TcPrepared(SignalRef sig);              // PreparedAck
  void TcCommitted(TxnId txn);
  void TcCompleted(TxnId txn);

  // Failure handling: aborts transactions that involve the given node.
  void AbortTxnsInvolving(NodeId failed);
  // Take-over support: surrenders every row touched by transactions this
  // node coordinates, so survivors can release locks and pending writes
  // after this coordinator dies. Clears the coordinator state.
  struct TakeoverRow {
    TxnId txn;
    TableId table;
    Key key;
    PartitionId part;
    NodeId node;
    // True if the coordinator had passed its commit point: take-over must
    // roll the row forward (apply the pending write), not back — the
    // primary may already have applied, and aborting the backups' pending
    // copies would leave the replicas diverged forever.
    bool commit_forward = false;
    // The dead coordinator's commit-decision epoch (commit_forward rows):
    // roll-forward redo records must carry the same epoch the already-
    // applied replicas logged, or the take-over itself would straddle.
    int64_t epoch = 0;
  };
  std::vector<TakeoverRow> DrainTxnRowsForTakeover();
  // Applies one drained row on a surviving replica (or one the orphan
  // sweep resolves): commit or abort the pending write per
  // `commit_forward`, release the row lock.
  void ResolveTakenOverRow(const TakeoverRow& row);
  // Aborts transactions whose API client is considered gone, and reaps
  // pending writes whose coordinating transaction no longer exists.
  void SweepInactiveTxns();
  // Whether this node (as TC) still tracks the transaction.
  bool HasActiveTxn(TxnId txn) const { return txns_.count(txn) > 0; }

  RowStore& store() { return store_; }
  LockManager& locks() { return locks_; }
  Disk& disk() { return *disk_; }
  // Dedicated redo-log device: group commits and recovery log reads queue
  // here, so a saturated data disk cannot stall the redo path (and vice
  // versa) — and a slow log disk is a distinct, injectable failure mode.
  Disk& log_disk() { return *log_disk_; }

  // ---- durability: write-ahead redo journal ----
  RedoJournal& journal() { return journal_; }
  const RedoJournal& journal() const { return journal_; }
  // The cluster announced a new GCP epoch: commit decisions from now on
  // are stamped with it. Deliberately does NOT close the previous epoch —
  // transactions that took their commit decision under it may still have
  // chain messages in flight, and their redo records must land inside the
  // epoch. The cluster closes epochs separately (CloseGcpEpoch) once no
  // committing transaction at or below them remains.
  void set_gcp_epoch(int64_t epoch) { gcp_epoch_ = epoch; }
  int64_t gcp_epoch() const { return gcp_epoch_; }
  // The cluster determined every transaction of epochs <= epoch has
  // finished committing: record the epoch boundary in the journal.
  void CloseGcpEpoch(int64_t epoch) { journal_.CloseEpoch(epoch); }
  // True if this node coordinates a transaction that took its commit
  // decision at or below `epoch` and has not finished its commit/complete
  // chain — the cluster must not close the epoch yet.
  bool HasCommittingTxnAtOrBelow(int64_t epoch) const;
  // Highest GCP epoch this node's flushed log + checkpoint cover.
  int64_t durable_gcp_epoch() const { return journal_.durable_epoch(); }
  // Starts a local checkpoint if one is due: captures the image at the
  // cluster-durable epoch boundary, charges the image write to the disk,
  // then truncates the journal. No-op while one is already running.
  void StartLocalCheckpoint(int64_t cluster_durable_epoch);
  bool lcp_in_progress() const { return lcp_inflight_; }
  // Bootstrap data is durable by definition (loaded before the run).
  void LogBootstrap(TableId table, const Key& key, const std::string& value) {
    journal_.BootstrapRow(table, key, value);
  }

  // ---- node recovery state machine (down -> replaying -> resyncing ->
  // serving), driven by NdbCluster::RestartDatanode ----
  enum class RecoveryPhase { kServing, kDown, kReplaying, kResyncing };
  RecoveryPhase recovery_phase() const { return recovery_phase_; }
  bool recovering() const {
    return recovery_phase_ == RecoveryPhase::kReplaying ||
           recovery_phase_ == RecoveryPhase::kResyncing;
  }
  // Bumped whenever a crash/install invalidates in-flight recovery or
  // flush continuations; they compare generations and bail when stale.
  uint64_t recovery_generation() const { return recovery_gen_; }
  void BeginRecovery();
  void SetRecoveryPhase(RecoveryPhase phase) { recovery_phase_ = phase; }

  // Replays checkpoint + durable log (epoch <= max_epoch) into the row
  // store, auditing that two independent replays produce byte-identical
  // images and that exactly the planned durable prefix was applied.
  struct ReplayResult {
    int64_t entries = 0;
    uint64_t digest = 0;
    bool deterministic = false;  // replay-twice digests agreed
    bool covered = false;        // applied == planned durable entries
  };
  ReplayResult ReplayFromJournal(int64_t max_epoch);
  // Collapses the journal onto the store's current committed image "as
  // of `epoch`" — the checkpoint a restarting node completes after
  // adopting the resync image, before it serves again.
  void CheckpointAdoptedImage(int64_t epoch);
  // Epoch-filtered journal adoption during node rejoin: rebuilds this
  // node's journal from the resync source's, with the base image cut
  // exactly at `cut_epoch` (the cluster-durable epoch) and everything
  // beyond it re-adopted as ordinary log records. The rejoined node can
  // therefore never smuggle post-durable commits into an immediately
  // following cluster recovery: its base attests cut_epoch, and the
  // fresher rows sit in the log where a recovery cut drops them.
  struct AdoptResult {
    int64_t image_bytes = 0;  // base image write (data disk)
    int64_t tail_bytes = 0;   // adopted post-cut records (log disk)
  };
  AdoptResult AdoptJournalFrom(const NdbDatanode& source, int64_t cut_epoch,
                               int64_t cluster_closed_epoch, Nanos now);
  // Order-sensitive digest of the committed row image.
  uint64_t DigestStore() const;

  // ---- streaming catch-up (serve reads mid-resync) ----
  // While rejoining, a node accepts LDM traffic (committed reads for
  // already-resynced partitions, and backup chain hops so resynced
  // partitions stay fresh) before it is layout-alive again.
  void SetCatchupAccepting(bool v) { catchup_accepting_ = v; }
  bool catchup_accepting() const { return catchup_accepting_; }
  // Committed reads this node served while not yet fully rejoined.
  int64_t catchup_reads_served() const { return catchup_reads_served_; }

  // Cumulative time the redo backlog spent above the stall limit (the
  // `ndb.redo.stall_ns` telemetry series; includes an ongoing stall).
  Nanos redo_stall_ns() const;

  // -- infrastructure used by the cluster --
  // Run* submit the closure as-is: the caller's closure body must begin
  // with its own alive_/accepting() re-check (see RunTc in datanode.cc).
  Booking RunTc(Nanos cost, SmallFn fn);
  Booking RunLdm(PartitionId part, Nanos cost, SmallFn fn);
  void RunIo(Nanos cost, SmallFn fn);
  void FlushRedo();

  // Thread pools, exposed for utilisation reporting (Fig. 11).
  const ThreadPool& ldm_pool() const { return *ldm_; }
  const ThreadPool& tc_pool() const { return *tc_; }
  const ThreadPool& recv_pool() const { return *recv_; }
  const ThreadPool& send_pool() const { return *send_; }
  const ThreadPool& rep_pool() const { return *rep_; }
  const ThreadPool& io_pool() const { return *io_; }
  const ThreadPool& main_pool() const { return *main_; }
  void ResetStats();
  int64_t active_txns() const { return static_cast<int64_t>(txns_.size()); }

  // Protocol message counters (validated against Fig. 2 by tests).
  struct ProtocolStats {
    int64_t prepares = 0;         // LdmPrepare executions
    int64_t commit_hops = 0;      // LdmCommitChain executions
    int64_t completes = 0;        // LdmComplete executions
    int64_t commit_redrives = 0;  // stalled commit/complete re-drives
    int64_t committed_reads = 0;  // LdmCommittedRead executions
    int64_t locked_reads = 0;     // LdmLockedRead executions
    int64_t scans = 0;
  };
  const ProtocolStats& protocol_stats() const { return proto_stats_; }

 private:
  // Allocator-aware: its lists draw from the pool of the table that
  // holds it (txn_pool_).
  struct TcTxn {
    using allocator_type = std::pmr::polymorphic_allocator<>;
    explicit TcTxn(const allocator_type& alloc)
        : writes(alloc), inflight_parts(alloc), read_locks(alloc) {}

    ApiNodeId api = -1;
    bool delay_ack = false;
    bool committing = false;
    // GCP epoch assigned atomically at the commit decision; 0 until then.
    int64_t commit_epoch = 0;
    struct WriteRow {
      TableId table;
      Key key;
      PartitionId part;
      NodeChain chain;
    };
    std::pmr::vector<WriteRow> writes;
    // Partitions with a prepare chain launched but not yet acknowledged.
    // `writes` is only recorded once the whole chain has prepared, so a
    // mid-chain transaction is invisible through it — the restart fence
    // (HasTxnTouchingPartition) must see these too or it can adopt a peer
    // partition that predates a write the chain is about to commit.
    std::pmr::vector<PartitionId> inflight_parts;
    struct HeldLock {
      TableId table;
      Key key;
      PartitionId part;
      NodeId node;
    };
    std::pmr::vector<HeldLock> read_locks;
    int pending_commits = 0;
    int pending_completes = 0;
    uint64_t commit_op_id = 0;
    trace::SpanId commit_span = 0;  // ndb.commit span (0 = unsampled)
    Nanos last_activity = 0;
  };

  TcTxn& Txn(TxnId txn, ApiNodeId api);
  void Touch(TcTxn& t);
  // Chooses the replica that serves a committed read (§IV-A4 routing).
  NodeId RouteCommittedRead(TableId table, PartitionId part,
                            int* replica_idx);
  // The one busy-slot retry: stages the prepare's pending write (the
  // primary under its already-held row lock), waiting out a previous
  // chain's pending write still in the slot.
  void StageOrRetry(SignalRef sig, bool primary);
  // One sender per 2PC phase, shared by the normal path and the re-drive.
  void SendCommitChain(TxnId txn, const TcTxn& t, const TcTxn::WriteRow& row,
                       const NodeChain& chain);
  void SendComplete(TxnId txn, const TcTxn& t, const TcTxn::WriteRow& row,
                    size_t i);
  void SendAbortRow(NodeId n, TxnId txn, TableId table, const Key& key,
                    PartitionId part);
  // The TC's refusal of API request `Req` (KeyOpReq or ScanReq) in its
  // own record: `code`, no payload, no span.
  template <typename Req>
  void Reject(SignalRef sig, Code code);
  // One fragment of a local checkpoint round, then the next.
  void CheckpointFragment(PartitionId part, int64_t cut, uint64_t gen);
  void StartCompletePhase(TxnId txn, TcTxn& t);
  void RedriveStalledCommit(TxnId txn, TcTxn& t);
  void FinishCommit(TxnId txn, TcTxn& t);
  // Rolls back every row the transaction holds and forgets it: `t` is
  // gone on return.
  void AbortTxn(TxnId txn, const TcTxn& t);
  // Sends `sig` (its payload already set) from this node to datanode
  // `dst` through the cluster transport. `span` != 0 records the hop
  // (SEND-thread queue + wire) as a network span under it; local
  // delivery (dst == this node) records nothing.
  void SendToNode(NodeId dst, int64_t bytes, SignalKind kind, SignalRef sig,
                  trace::SpanId span = 0);
  // Answers API node `api` with `reply`, in `sig`'s record when given
  // (the request being answered) or a fresh one.
  void SendToApi(ApiNodeId api, int64_t bytes, OpReply reply,
                 trace::SpanId span = 0, SignalRef sig = {});
  void ForwardPrepare(SignalRef sig);
  // Turns a prepare's record into the TC's PreparedAck and sends it.
  void SendPrepared(SignalRef sig, Code code);

  // Emits queue/service spans for a thread-pool booking under `parent`
  // (no-op when the op is unsampled). `what` names the span: "<what>" for
  // the service slice, "<what>.queue" for any wait before it.
  void TraceCpu(trace::SpanId parent, const char* what, const Booking& b);

  NdbCluster& cluster_;
  NodeId id_;
  HostId host_;
  bool alive_ = true;

  std::unique_ptr<ThreadPool> ldm_, tc_, recv_, send_, rep_, io_, main_;
  std::unique_ptr<Disk> disk_;
  std::unique_ptr<Disk> log_disk_;
  RowStore store_;
  LockManager locks_;

  // Journals a replica's applied write, moving its value into the record.
  void LogRedo(int64_t epoch, PartitionId part, TxnId txn, TableId table,
               const Key& key, std::optional<RowStore::AppliedWrite>&& applied);
  // Transitions the stall clock when the backlog crosses the limit;
  // called after every journal append and flush completion.
  void UpdateRedoStallAccounting();
  // Accepts LDM-side traffic: fully alive, or rejoining with streaming
  // catch-up enabled (reads/chain hops for resynced partitions).
  bool accepting() const { return alive_ || catchup_accepting_; }
  // The transport's per-hop stages run on these (see ndb/transport.h).
  friend class Transport;
  // SEND thread for an outgoing datanode hop; the idle REP single helps
  // when the SEND threads back up.
  ThreadPool& SendStagePool();
  // RECV thread for an incoming signal; idle singles (REP, then MAIN)
  // help overloaded receive threads — the behaviour behind the high REP
  // utilisation in Fig. 11.
  ThreadPool& RecvStagePool();

  // Coordinated transactions. Their nodes and lists are pooled, but the
  // table keeps std::unordered_map's hashing and iteration order: abort,
  // take-over and the inactivity sweep walk it, so that order is part of
  // every pinned seed's behaviour.
  std::pmr::unsynchronized_pool_resource txn_pool_;
  std::pmr::unordered_map<TxnId, TcTxn> txns_{&txn_pool_};
  uint64_t rr_counter_ = 0;      // proximity tie-break round robin
  ProtocolStats proto_stats_;
  RedoJournal journal_;
  int64_t gcp_epoch_ = 0;
  RecoveryPhase recovery_phase_ = RecoveryPhase::kServing;
  uint64_t recovery_gen_ = 0;
  bool lcp_inflight_ = false;
  bool grey_degraded_ = false;
  bool log_disk_slow_ = false;
  bool test_lose_acked_writes_ = false;
  bool catchup_accepting_ = false;
  int64_t catchup_reads_served_ = 0;
  // Redo backpressure stall clock (see redo_stall_ns()).
  bool redo_stalled_ = false;
  Nanos redo_stall_since_ = 0;
  Nanos redo_stall_accum_ = 0;
};

}  // namespace repro::ndb
