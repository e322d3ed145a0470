#include "ndb/datanode.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "ndb/client.h"
#include "ndb/cluster.h"
#include "prof/profiler.h"
#include "resilience/deadline.h"
#include "util/logging.h"

namespace repro::ndb {

namespace {
constexpr const char* kLog = "ndb.dn";

// Thread counts per datanode: Table II of the paper (27 CPUs). REP, IO
// and MAIN have one thread each; REP/MAIN are mostly idle and act as
// helpers for overloaded RECV/SEND threads (§V-D1).
constexpr int kTcThreads = 7;
constexpr int kRecvThreads = 3;
constexpr int kSendThreads = 2;
constexpr Nanos kHelperBacklogThreshold = 30 * kMicrosecond;
constexpr Nanos kLockWaitTimeout = 400 * kMillisecond;  // deadlock detection

// Transaction-coordinator thread costs.
constexpr Nanos kTcBegin = 2 * kMicrosecond;
constexpr Nanos kTcRouteOp = 4 * kMicrosecond;    // per key operation routed
constexpr Nanos kTcCommitRow = 3 * kMicrosecond;  // per row chain commit mgmt
constexpr Nanos kTcCompleteRow = 2 * kMicrosecond;

// LDM (local data manager) thread costs.
constexpr Nanos kLdmRead = 10 * kMicrosecond;
constexpr Nanos kLdmPrepare = 16 * kMicrosecond;  // lock + stage pending write
constexpr Nanos kLdmCommit = 6 * kMicrosecond;
constexpr Nanos kLdmComplete = 2 * kMicrosecond;
constexpr Nanos kLdmScanBase = 12 * kMicrosecond;
constexpr Nanos kLdmScanRow = 1500;               // 1.5 us per row returned

// IO thread: redo-log bookkeeping per commit; the log itself is flushed
// to disk in batches.
constexpr Nanos kIoRedoPerCommit = 1 * kMicrosecond;
constexpr int64_t kRedoRecordOverheadBytes = 32;  // per-record on-disk header

constexpr int64_t kMsgWriteBase = 160;  // PrepareReq excluding the row image

// One row a coordinated transaction holds on one replica: a written row
// once per member of its chain, a read-locked row once at its node.
struct HeldRow {
  TableId table;
  const Key& key;
  PartitionId part;
  NodeId node;
  bool written;
};

// Calls fn(row) for every row transaction `t` holds, write rows in chain
// order first, then read locks: the order abort and take-over send in.
template <typename Txn, typename Fn>
void ForEachHeldRow(const Txn& t, Fn&& fn) {
  for (const auto& w : t.writes) {
    for (NodeId n : w.chain) fn(HeldRow{w.table, w.key, w.part, n, true});
  }
  for (const auto& rl : t.read_locks) {
    fn(HeldRow{rl.table, rl.key, rl.part, rl.node, false});
  }
}
}  // namespace

namespace {
RedoJournal::Config JournalConfig(const NdbCluster& cluster) {
  RedoJournal::Config jc;
  jc.record_overhead_bytes = kRedoRecordOverheadBytes;
  jc.flush_overhead_bytes = kRedoFlushOverheadBytes;
  jc.segment_bytes = cluster.node_config().redo_segment_bytes;
  return jc;
}
}  // namespace

NdbDatanode::NdbDatanode(NdbCluster& cluster, NodeId id, HostId host)
    : cluster_(cluster), id_(id), host_(host),
      store_(cluster.catalog().num_tables()),
      locks_(cluster.sim(), kLockWaitTimeout),
      journal_(cluster.catalog().num_tables(), JournalConfig(cluster)) {
  store_.set_debug_owner(id_);
  auto& sim = cluster_.sim();
  const auto name = [this](const char* pool) {
    return StrFormat("ndb%d.%s", id_, pool);
  };
  ldm_ = std::make_unique<ThreadPool>(sim, name("ldm"), kLdmThreads);
  tc_ = std::make_unique<ThreadPool>(sim, name("tc"), kTcThreads);
  recv_ = std::make_unique<ThreadPool>(sim, name("recv"), kRecvThreads);
  send_ = std::make_unique<ThreadPool>(sim, name("send"), kSendThreads);
  rep_ = std::make_unique<ThreadPool>(sim, name("rep"), 1);
  io_ = std::make_unique<ThreadPool>(sim, name("io"), 1);
  main_ = std::make_unique<ThreadPool>(sim, name("main"), 1);
  disk_ = std::make_unique<Disk>(sim, name("disk"));
  log_disk_ = std::make_unique<Disk>(sim, name("logdisk"));
}

AzId NdbDatanode::az() const { return cluster_.layout().az_of(id_); }

void NdbDatanode::SetGreySlowdown(double cpu_factor, double disk_factor) {
  grey_degraded_ = cpu_factor != 1.0 || disk_factor != 1.0;
  for (ThreadPool* pool :
       {ldm_.get(), tc_.get(), recv_.get(), send_.get(), rep_.get(),
        io_.get(), main_.get()}) {
    pool->set_slowdown(cpu_factor);
  }
  disk_->set_slowdown(disk_factor);
  log_disk_->set_slowdown(disk_factor);
  if (grey_degraded_) {
    RLOG_INFO(kLog, "datanode %d grey-degraded (cpu x%.1f, disk x%.1f)",
              id_, cpu_factor, disk_factor);
  } else {
    RLOG_INFO(kLog, "datanode %d grey degradation cleared", id_);
  }
}

void NdbDatanode::SetLogDiskSlowdown(double factor) {
  log_disk_slow_ = factor != 1.0;
  log_disk_->set_slowdown(factor);
  if (log_disk_slow_) {
    RLOG_INFO(kLog, "datanode %d redo log disk degraded (x%.1f)", id_,
              factor);
  } else {
    RLOG_INFO(kLog, "datanode %d redo log disk restored", id_);
  }
}

void NdbDatanode::Shutdown() {
  // A shutdown mid-recovery must still run: it aborts the recovery (the
  // generation bump invalidates its continuations) and drops whatever
  // the interrupted replay had not made durable.
  if (!alive_ && !recovering() && !catchup_accepting_) return;
  alive_ = false;
  catchup_accepting_ = false;
  recovery_phase_ = RecoveryPhase::kDown;
  ++recovery_gen_;
  lcp_inflight_ = false;
  txns_.clear();
  // The transactions that held or awaited row locks here are gone.
  locks_.Clear();
  // Crash semantics: the un-flushed journal tail never reached disk.
  journal_.DropUnflushed();
  // Settle the redo stall clock: the backlog died with the node.
  if (redo_stalled_) {
    redo_stall_accum_ += cluster_.sim().now() - redo_stall_since_;
    redo_stalled_ = false;
  }
  RLOG_INFO(kLog, "datanode %d shutting down", id_);
}

void NdbDatanode::Revive() {
  alive_ = true;
  catchup_accepting_ = false;
  recovery_phase_ = RecoveryPhase::kServing;
  RLOG_INFO(kLog, "datanode %d rejoined", id_);
}

void NdbDatanode::BeginRecovery() {
  recovery_phase_ = RecoveryPhase::kReplaying;
  ++recovery_gen_;
  catchup_reads_served_ = 0;  // per-recovery counter
}

bool NdbDatanode::HasTxnTouchingPartition(PartitionId part) const {
  for (const auto& [txn, t] : txns_) {
    bool touched = std::find(t.inflight_parts.begin(), t.inflight_parts.end(),
                             part) != t.inflight_parts.end();
    ForEachHeldRow(t, [&](const HeldRow& r) { touched |= r.part == part; });
    if (touched) return true;
  }
  return false;
}

bool NdbDatanode::HasCommittingTxnAtOrBelow(int64_t epoch) const {
  for (const auto& [txn, t] : txns_) {
    if (t.committing && t.commit_epoch != 0 &&
        t.commit_epoch <= epoch) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Infrastructure
// ---------------------------------------------------------------------------

ThreadPool& NdbDatanode::RecvStagePool() {
  if (recv_->Backlog() > kHelperBacklogThreshold) {
    if (rep_->Backlog() < recv_->Backlog()) return *rep_;
    if (main_->Backlog() < recv_->Backlog()) return *main_;
  }
  return *recv_;
}

ThreadPool& NdbDatanode::SendStagePool() {
  if (send_->Backlog() > kHelperBacklogThreshold &&
      rep_->Backlog() < send_->Backlog()) {
    return *rep_;
  }
  return *send_;
}

void NdbDatanode::SendToNode(NodeId dst, int64_t bytes, SignalKind kind,
                             SignalRef sig, trace::SpanId span) {
  cluster_.transport().Send(std::move(sig), kind, id_, dst, bytes, span);
}

void NdbDatanode::SendToApi(ApiNodeId api, int64_t bytes, OpReply reply,
                            trace::SpanId span, SignalRef sig) {
  if (!sig) sig = cluster_.transport().New(std::monostate{});
  sig->msg = std::move(reply);
  cluster_.transport().Send(std::move(sig), SignalKind::kOpReply, id_, api,
                            bytes, span);
}

Booking NdbDatanode::RunTc(Nanos cost, SmallFn fn) {
  // No liveness wrapper here: every submitted closure re-checks alive_
  // itself before touching state, so the submission stays allocation-free
  // for closures that fit the SmallFn inline buffer.
  if (!alive_) return Booking{};
  return tc_->Submit(cost, std::move(fn));
}

Booking NdbDatanode::RunLdm(PartitionId part, Nanos cost, SmallFn fn) {
  // A rejoining node in streaming catch-up runs LDM work (committed
  // reads and backup chain hops for already-resynced partitions) before
  // it is fully alive again; TC/IO roles stay down until Revive.
  // Submitted closures re-check accepting() themselves (see RunTc).
  if (!accepting()) return Booking{};
  const int thread = cluster_.layout().LdmThreadOf(part);
  return ldm_->SubmitTo(thread, cost, std::move(fn));
}

void NdbDatanode::TraceCpu(trace::SpanId parent, const char* what,
                           const Booking& b) {
  if (parent == 0) return;
  trace::Tracer& tr = cluster_.tracer();
  if (b.queued() > 0) {
    tr.AddSpanAt(parent, StrFormat("%s.queue", what), trace::Layer::kNdb,
                 trace::Cause::kCpuQueue, host_, az(), b.submit, b.start);
  }
  tr.AddSpanAt(parent, what, trace::Layer::kNdb, trace::Cause::kCpu, host_,
               az(), b.start, b.finish);
}

void NdbDatanode::RunIo(Nanos cost, SmallFn fn) {
  // Submitted closures re-check alive_ themselves (see RunTc).
  if (!alive_) return;
  io_->Submit(cost, std::move(fn));
}

void NdbDatanode::LogRedo(
    int64_t epoch, PartitionId part, TxnId txn, TableId table, const Key& key,
    std::optional<RowStore::AppliedWrite>&& applied) {
  if (!applied) return;
  // The epoch was assigned once, by the TC, at the commit decision —
  // every replica of the transaction logs the identical epoch, so a GCP
  // tick between two replicas' applies can no longer split a commit
  // across epochs.
  journal_.Append(epoch, txn, table, key, part,
                  applied->type == WriteType::kDelete,
                  std::move(applied->value), cluster_.sim().now());
  UpdateRedoStallAccounting();
}

void NdbDatanode::UpdateRedoStallAccounting() {
  const bool over = journal_.backlog_bytes() >
                    cluster_.node_config().redo_stall_backlog_bytes;
  if (over == redo_stalled_) return;
  const Nanos now = cluster_.sim().now();
  if (over) {
    redo_stalled_ = true;
    redo_stall_since_ = now;
  } else {
    redo_stalled_ = false;
    redo_stall_accum_ += now - redo_stall_since_;
  }
}

Nanos NdbDatanode::redo_stall_ns() const {
  Nanos total = redo_stall_accum_;
  if (redo_stalled_) total += cluster_.sim().now() - redo_stall_since_;
  return total;
}

void NdbDatanode::FlushRedo() {
  PROF_ZONE("ndb.redo.flush");
  // Catch-up backups log live chain writes too; they must keep flushing
  // or their backlog grows until backpressure sheds every write routed
  // through them — permanently, since nothing else drains the journal.
  if (!alive_ && !catchup_accepting_) return;
  // Group commit: one log-disk write covers every record appended since
  // the previous flush (plus the fsync overhead). The batch counts as
  // durable only when the write lands; a crash in between loses it.
  // Queueing on the dedicated log disk means checkpoint and recovery
  // traffic on the data disk cannot delay commits — only a genuinely
  // slow log device can, and that surfaces as backpressure.
  const RedoJournal::FlushBatch batch = journal_.PrepareFlush();
  if (batch.upto_seqno == 0) return;
  const uint64_t gen = journal_.generation();
  RunIo(kIoRedoPerCommit, [this, batch, gen] {
    if (!alive_) return;
    log_disk_->Write(batch.disk_bytes, [this, batch, gen] {
      if (journal_.generation() != gen) return;
      journal_.MarkFlushed(batch);
      UpdateRedoStallAccounting();
    });
  });
}

void NdbDatanode::StartLocalCheckpoint(int64_t cluster_durable_epoch) {
  if (!alive_ || lcp_inflight_) return;
  const int64_t cut = journal_.CheckpointCutSeqno(cluster_durable_epoch);
  // Nothing new to fold: the cut has not advanced past the base in either
  // seqno or epoch terms. (The epoch check matters with deferred epoch
  // close: records of a just-closed epoch can sit below the previous
  // round's cut seqno and only become foldable now.)
  if (cut <= journal_.base_seqno() &&
      journal_.EpochAtCut(cut) <= journal_.base_epoch()) {
    return;
  }
  lcp_inflight_ = true;
  CheckpointFragment(0, cut, journal_.generation());
}

// Fragment LCP: one image write per partition, chained, each folding
// only that partition's records — checkpoint I/O is spread across the
// LCP instead of a single monolithic write, and a crash mid-round still
// leaves every completed fragment's segments truncated.
void NdbDatanode::CheckpointFragment(PartitionId part, int64_t cut,
                                     uint64_t gen) {
  if (!alive_ || journal_.generation() != gen) {
    lcp_inflight_ = false;
    return;
  }
  const int num_parts = cluster_.layout().num_partitions();
  if (part >= num_parts) {
    journal_.FinishCheckpointRound(cut, cluster_.sim().now());
    lcp_inflight_ = false;
    return;
  }
  const int64_t bytes = journal_.FragmentCheckpointBytes(part, num_parts, cut);
  RunIo(kIoRedoPerCommit, [this, part, bytes, cut, gen] {
    if (!alive_) return;
    disk_->Write(bytes, [this, part, cut, gen] {
      if (!alive_ || journal_.generation() != gen) {
        lcp_inflight_ = false;
        return;
      }
      journal_.CompleteFragmentCheckpoint(part, cut);
      CheckpointFragment(part + 1, cut, gen);
    });
  });
}

NdbDatanode::ReplayResult NdbDatanode::ReplayFromJournal(int64_t max_epoch) {
  const RedoJournal::ReplayPlan plan = journal_.PlanReplay(max_epoch);
  // Replay determinism audit: an independent replay into a scratch image
  // must produce byte-for-byte the same rows as the store replay below.
  const uint64_t expected = journal_.ReplayDigest(max_epoch);
  store_.Clear();
  ReplayResult result;
  result.entries = journal_.Replay(
      max_epoch,
      [this](TableId t, const Key& k, const RowImage& v) {
        store_.BootstrapPut(t, k, v);
      },
      [this](TableId t, const Key& k) { store_.BootstrapDelete(t, k); });
  result.digest = DigestStore();
  result.deterministic = (result.digest == expected);
  result.covered = (result.entries == plan.entries);
  return result;
}

void NdbDatanode::CheckpointAdoptedImage(int64_t epoch) {
  journal_.InstallImageBegin(epoch, cluster_.sim().now());
  for (TableId t = 0; t < cluster_.catalog().num_tables(); ++t) {
    store_.ForEachCommitted(t, [this, t](const Key& key,
                                         const RowImage& value) {
      journal_.InstallImageRow(t, key, value);
    });
  }
}

NdbDatanode::AdoptResult NdbDatanode::AdoptJournalFrom(
    const NdbDatanode& source, int64_t cut_epoch,
    int64_t cluster_closed_epoch, Nanos now) {
  const auto& layout = cluster_.layout();
  const auto mine = [&](TableId table, const Key& key) {
    return layout.Holds(id_, table, layout.PartitionOf(table, key));
  };
  const RedoJournal& src = source.journal();
  // Base image: the source's replay exactly at the cluster-durable epoch,
  // restricted to rows this node replicates. The source's own fragment
  // folds may have baked some later-epoch rows into its base for a few
  // partitions; RaiseFoldedEpoch records that so a cluster recovery can
  // never cut below what this image may contain.
  journal_.InstallImageBegin(cut_epoch, now);
  journal_.RaiseFoldedEpoch(src.max_folded_epoch());
  src.Replay(
      cut_epoch,
      [&](TableId t, const Key& k, const RowImage& v) {
        if (mine(t, k)) journal_.InstallImageRow(t, k, v);
      },
      [&](TableId t, const Key& k) {
        if (mine(t, k)) journal_.InstallImageDelete(t, k);
      });
  AdoptResult result;
  result.image_bytes = journal_.base_bytes();
  // Tail: everything the base replay did not cover — records of epochs
  // past the cut, plus any record not yet durable on the source — is
  // re-adopted as ordinary log records with the source's epoch/txn
  // stamps. A cluster recovery cutting at cut_epoch drops them exactly
  // like everywhere else; nothing fresher than the cut hides in the base.
  for (const auto& seg : src.segments()) {
    for (const auto& r : seg.records) {
      if (r.folded) continue;
      if (r.epoch <= cut_epoch && r.seqno <= src.durable_seqno()) continue;
      if (!mine(r.table, r.key)) continue;
      journal_.AdoptRecord(r.epoch, r.txn, r.table, r.key, r.part, r.deleted,
                           r.value, r.appended_at);
      result.tail_bytes += r.bytes;
    }
  }
  // Cluster-closed epochs are complete in the adopted stream, so one
  // boundary at the closed horizon is exact. Later (still-open) epochs
  // must NOT be closed here: their commits may still be in flight, and
  // the cluster will close them on this node once it is alive again.
  journal_.CloseEpoch(cluster_closed_epoch);
  return result;
}

uint64_t NdbDatanode::DigestStore() const {
  ImageDigest digest;
  for (TableId t = 0; t < cluster_.catalog().num_tables(); ++t) {
    store_.ForEachCommitted(t, [&digest, t](const Key& key,
                                            const RowImage& value) {
      digest.AddRow(t, key, value.view());
    });
  }
  return digest.value();
}

void NdbDatanode::ResetStats() {
  proto_stats_ = ProtocolStats{};
  ldm_->ResetStats();
  tc_->ResetStats();
  recv_->ResetStats();
  send_->ResetStats();
  rep_->ResetStats();
  io_->ResetStats();
  main_->ResetStats();
  disk_->ResetStats();
}

// ---------------------------------------------------------------------------
// TC role
// ---------------------------------------------------------------------------

NdbDatanode::TcTxn& NdbDatanode::Txn(TxnId txn, ApiNodeId api) {
  TcTxn& t = txns_[txn];
  if (t.api < 0) t.api = api;
  return t;
}

void NdbDatanode::Touch(TcTxn& t) { t.last_activity = cluster_.sim().now(); }

template <typename Req>
void NdbDatanode::Reject(SignalRef sig, Code code) {
  const Req& req = sig->as<Req>();
  SendToApi(req.api, kMsgSmall,
            OpReply{req.txn, req.op_id, code, {}, {}}, 0, std::move(sig));
}

void NdbDatanode::SendAbortRow(NodeId n, TxnId txn, TableId table,
                               const Key& key, PartitionId part) {
  SendToNode(n, kMsgSmall, SignalKind::kAbortRow,
             cluster_.transport().New(RowRef{txn, table, key, part}));
}

NodeId NdbDatanode::RouteCommittedRead(TableId table, PartitionId part,
                                       int* replica_idx) {
  const TableDef& td = cluster_.catalog().table(table);
  auto& layout = cluster_.layout();
  NodeId node;
  if (td.read_backup || td.fully_replicated) {
    node = layout.PickByProximity(az(), layout.ReplicaChain(table, part),
                                  cluster_.flags().az_aware, rr_counter_++,
                                  part);
  } else {
    // Classic NDB: committed reads are redirected to the primary because
    // backups lag until the Complete phase.
    node = layout.PrimaryOf(part);
  }
  if (node == kNoNode) {
    *replica_idx = -1;
    return kNoNode;
  }
  const auto& configured = layout.ReplicaChain(part);
  *replica_idx = static_cast<int>(
      std::find(configured.begin(), configured.end(), node) -
      configured.begin());
  return node;
}

void NdbDatanode::TcKeyOp(SignalRef sig) {
  PROF_ZONE("ndb.tc.keyop");
  const trace::SpanId op_span = sig->as<KeyOpReq>().span;
  const Booking b = RunTc(kTcRouteOp,
                          [this, sig = std::move(sig)]() mutable {
    if (!alive_) return;
    KeyOpReq& req = sig->as<KeyOpReq>();
    auto& layout = cluster_.layout();
    // Deadline propagation: refuse doomed work before routing it to an
    // LDM (the API node already gave up at the same instant).
    if (resilience::DeadlineExpired(req.deadline, cluster_.sim().now())) {
      Reject<KeyOpReq>(std::move(sig), Code::kDeadlineExceeded);
      return;
    }
    const PartitionId part = layout.PartitionOf(req.table, req.key);
    TcTxn& t = Txn(req.txn, req.api);
    Touch(t);

    if (!req.is_write && req.mode == LockMode::kReadCommitted) {
      int replica_idx = -1;
      const NodeId serving = RouteCommittedRead(req.table, part, &replica_idx);
      if (serving == kNoNode) {
        Reject<KeyOpReq>(std::move(sig), Code::kUnavailable);
        return;
      }
      cluster_.RecordReplicaRead(part, replica_idx);
      const trace::SpanId s = req.span;
      SendToNode(serving, kMsgReadReq, SignalKind::kCommittedRead,
                 std::move(sig), s);
      return;
    }

    if (!req.is_write) {
      // Shared/exclusive read: always the primary replica (§II-B2).
      const NodeId primary = layout.PrimaryOf(part);
      if (primary == kNoNode) {
        Reject<KeyOpReq>(std::move(sig), Code::kUnavailable);
        return;
      }
      cluster_.RecordReplicaRead(part, 0);
      const trace::SpanId s = req.span;
      sig->msg = PrepareReq{.txn = req.txn, .tc = id_, .op_id = req.op_id,
                            .api = req.api, .table = req.table,
                            .key = std::move(req.key), .part = part,
                            // X vs S marker
                            .insert_only = req.mode == LockMode::kExclusive,
                            .span = s};
      SendToNode(primary, kMsgReadReq, SignalKind::kLockedRead,
                 std::move(sig), s);
      return;
    }

    if (test_lose_acked_writes_) {
      // Deliberate bug (see set_test_lose_acked_writes): swallow the write
      // and ack success. The transaction later commits "cleanly" with no
      // staged rows, so the client believes the write is durable.
      Reject<KeyOpReq>(std::move(sig), Code::kOk);
      return;
    }

    // Write: start the prepare chain (locks taken at the primary first).
    // Alive replicas in configured order; a rejoining node that already
    // caught up on this partition joins as a *backup* so live writes keep
    // flowing to it mid-resync — never as primary (its lock table holds
    // none of the locks the live primary granted, so it must not
    // serialise writers).
    NodeChain chain;
    const auto& chain_conf = layout.ReplicaChain(req.table, part);
    for (NodeId n : chain_conf) {
      if (layout.alive(n)) chain.push_back(n);
    }
    for (NodeId n : chain_conf) {
      if (!layout.alive(n) && layout.catchup_ready(n, part)) {
        chain.push_back(n);
      }
    }
    if (chain.empty()) {
      Reject<KeyOpReq>(std::move(sig), Code::kUnavailable);
      return;
    }
    // Read Backup tables ack the commit only once every replica has
    // completed, so backups serve consistent committed reads (§IV-A3).
    const TableDef& td = cluster_.catalog().table(req.table);
    if (td.read_backup || td.fully_replicated) t.delay_ack = true;
    t.inflight_parts.push_back(part);
    const int64_t bytes =
        kMsgWriteBase + static_cast<int64_t>(req.value.size());
    const NodeId first = chain[0];
    const trace::SpanId s = req.span;
    sig->msg = PrepareReq{.txn = req.txn, .tc = id_, .op_id = req.op_id,
                          .api = req.api, .table = req.table,
                          .key = std::move(req.key), .part = part,
                          .type = req.write_type,
                          .insert_only = req.insert_only,
                          .must_exist = req.must_exist,
                          .value = std::move(req.value),
                          .chain = chain, .span = s};
    SendToNode(first, bytes, SignalKind::kPrepare, std::move(sig), s);
  });
  TraceCpu(op_span, "tc.route", b);
}

void NdbDatanode::TcScan(SignalRef sig) {
  PROF_ZONE("ndb.tc.scan");
  const trace::SpanId op_span = sig->as<ScanReq>().span;
  const Booking b = RunTc(kTcRouteOp,
                          [this, sig = std::move(sig)]() mutable {
    if (!alive_) return;
    ScanReq& req = sig->as<ScanReq>();
    if (resilience::DeadlineExpired(req.deadline, cluster_.sim().now())) {
      Reject<ScanReq>(std::move(sig), Code::kDeadlineExceeded);
      return;
    }
    const PartitionId part =
        cluster_.layout().PartitionOf(req.table, req.prefix);
    TcTxn& t = Txn(req.txn, req.api);
    Touch(t);
    int replica_idx = -1;
    const NodeId serving = RouteCommittedRead(req.table, part, &replica_idx);
    if (serving == kNoNode) {
      Reject<ScanReq>(std::move(sig), Code::kUnavailable);
      return;
    }
    cluster_.RecordReplicaRead(part, replica_idx);
    const trace::SpanId s = req.span;
    SendToNode(serving, kMsgScanReq, SignalKind::kScanExec,
               std::move(sig), s);
  });
  TraceCpu(op_span, "tc.route", b);
}

void NdbDatanode::TcPrepared(SignalRef sig) {
  const trace::SpanId span = sig->as<PreparedAck>().req.span;
  const Booking b = RunTc(kTcRouteOp,
                          [this, sig = std::move(sig)]() mutable {
    if (!alive_) return;
    const Code code = sig->as<PreparedAck>().code;
    PrepareReq& req = sig->as<PreparedAck>().req;
    const TxnId txn = req.txn;
    const trace::SpanId span = req.span;
    auto it = txns_.find(txn);
    if (it == txns_.end()) {
      // Txn gone (aborted/timed out): roll the prepared row back.
      for (NodeId n : req.chain) {
        SendAbortRow(n, txn, req.table, req.key, req.part);
      }
      return;
    }
    TcTxn& t = it->second;
    Touch(t);
    const ApiNodeId api = t.api;
    if (code != Code::kOk) {
      // The failed op itself is answered with the specific code.
      AbortTxn(txn, t);
    } else {
      t.writes.push_back(TcTxn::WriteRow{req.table, std::move(req.key),
                                         req.part, req.chain});
    }
    SendToApi(api, kMsgSmall,
              OpReply{txn, req.op_id, code, {}, {}}, span, std::move(sig));
  });
  TraceCpu(span, "tc.prepared", b);
}

void NdbDatanode::TcLockedReadResult(SignalRef sig) {
  const trace::SpanId span = sig->as<LockedReadAck>().probe.span;
  const Booking b = RunTc(kTcRouteOp,
                          [this, sig = std::move(sig)]() mutable {
    if (!alive_) return;
    LockedReadAck& ack = sig->as<LockedReadAck>();
    const PrepareReq& probe = ack.probe;
    const TxnId txn = probe.txn;
    const Code code = ack.code;
    const trace::SpanId span = probe.span;
    // The ack's sender granted the lock. The partition's primary may have
    // moved since (a rejoining node took the role back), so the unlock
    // goes to the granting node, not to the current primary.
    const NodeId granted_by = sig->src;
    auto it = txns_.find(txn);
    if (it == txns_.end()) {
      // Grant raced with an abort: release the stray lock.
      if (code == Code::kOk) {
        SendAbortRow(granted_by, txn, probe.table, probe.key, probe.part);
      }
      return;
    }
    TcTxn& t = it->second;
    Touch(t);
    const ApiNodeId api = t.api;
    if (code == Code::kTimedOut) {
      AbortTxn(txn, t);
    } else if (code == Code::kOk) {
      t.read_locks.push_back(
          TcTxn::HeldLock{probe.table, probe.key, probe.part, granted_by});
    }
    const int64_t bytes =
        kMsgSmall + static_cast<int64_t>(ack.value.size());
    SendToApi(api, bytes,
              OpReply{txn, probe.op_id, code, std::move(ack.value), {}}, span,
              std::move(sig));
  });
  TraceCpu(span, "tc.read_result", b);
}

void NdbDatanode::TcCommit(TxnId txn, uint64_t op_id, ApiNodeId api,
                           trace::SpanId span) {
  PROF_ZONE("ndb.tc.commit");
  const Booking b = RunTc(kTcBegin,
                          [this, txn, op_id, api, span] {
    if (!alive_) return;
    auto it = txns_.find(txn);
    if (it == txns_.end()) {
      // Nothing known (e.g. freshly aborted): report failure.
      SendToApi(api, kMsgSmall,
                OpReply{txn, op_id, Code::kAborted, {}, {}}, span);
      return;
    }
    TcTxn& t = it->second;
    Touch(t);
    t.committing = true;
    t.commit_op_id = op_id;
    t.commit_span = span;
    // Transaction-atomic epoch assignment: the whole transaction belongs
    // to the currently open GCP epoch, decided once, here. Every replica
    // stamps its redo records with this epoch regardless of when its
    // chain message arrives, and the cluster keeps the epoch open until
    // all such transactions have fully committed.
    t.commit_epoch = gcp_epoch_ + 1;

    // Release shared/exclusive read locks: the commit point is reached.
    // Rows that were read-locked *and* written keep their lock until the
    // commit chain reaches the primary (which both applies the pending
    // write and unlocks).
    for (const auto& rl : t.read_locks) {
      bool also_written = false;
      for (const auto& w : t.writes) {
        if (w.table == rl.table && w.key == rl.key) {
          also_written = true;
          break;
        }
      }
      if (also_written) continue;
      SendToNode(rl.node, kMsgSmall, SignalKind::kUnlock,
                 cluster_.transport().New(
                     RowRef{txn, rl.table, rl.key, rl.part}));
    }
    t.read_locks.clear();

    if (t.writes.empty()) {
      SendToApi(t.api, kMsgSmall,
                OpReply{txn, op_id, Code::kOk, {}, {}}, span);
      txns_.erase(txn);
      return;
    }

    // Commit phase: one chain per written row.
    t.pending_commits = static_cast<int>(t.writes.size());
    for (const auto& w : t.writes) {
      RunTc(kTcCommitRow, [] {});
      SendCommitChain(txn, t, w, w.chain);
    }
  });
  TraceCpu(span, "tc.commit", b);
}

void NdbDatanode::TcCommitted(TxnId txn) {
  PROF_ZONE("ndb.tc.committed");
  RunTc(kTcCommitRow, [this, txn] {
    if (!alive_) return;
    auto it = txns_.find(txn);
    if (it == txns_.end()) return;
    TcTxn& t = it->second;
    if (--t.pending_commits > 0) return;
    // All primaries committed. Classic NDB acks the client here (message
    // 10 of Fig. 2); with Read Backup the ack waits for the Complete
    // phase (message 14, §IV-A3).
    if (!t.delay_ack) FinishCommit(txn, t);
    StartCompletePhase(txn, t);
  });
}

// Commit phase, one row: traverses `chain` in reverse (backups first,
// primary last — Fig. 2 messages 5..9).
void NdbDatanode::SendCommitChain(TxnId txn, const TcTxn& t,
                                  const TcTxn::WriteRow& row,
                                  const NodeChain& chain) {
  CommitChainReq creq;
  creq.txn = txn;
  creq.tc = id_;
  creq.table = row.table;
  creq.key = row.key;
  creq.part = row.part;
  creq.epoch = t.commit_epoch;
  creq.chain = chain;
  creq.pos = static_cast<int>(creq.chain.size()) - 1;
  creq.span = t.commit_span;
  const NodeId last = creq.chain.back();
  SendToNode(last, kMsgSmall, SignalKind::kCommitChain,
             cluster_.transport().New(std::move(creq)), t.commit_span);
}

// Complete phase, one replica: row.chain[i] applies its pending write
// (the primary applied at commit and only acknowledges).
void NdbDatanode::SendComplete(TxnId txn, const TcTxn& t,
                               const TcTxn::WriteRow& row, size_t i) {
  CompleteReq creq;
  creq.txn = txn;
  creq.tc = id_;
  creq.table = row.table;
  creq.key = row.key;
  creq.part = row.part;
  creq.epoch = t.commit_epoch;
  creq.is_primary = i == 0;
  creq.span = t.commit_span;
  SendToNode(row.chain[i], kMsgSmall, SignalKind::kComplete,
             cluster_.transport().New(std::move(creq)), t.commit_span);
}

void NdbDatanode::StartCompletePhase(TxnId txn, TcTxn& t) {
  PROF_ZONE("ndb.tc.complete_phase");
  // Acks arrive through the TC thread pool, never inside a send, so
  // counting as the Completes go out is safe.
  t.pending_completes = 0;
  for (const auto& w : t.writes) {
    RunTc(kTcCompleteRow, [] {});
    for (size_t i = 0; i < w.chain.size(); ++i) {
      ++t.pending_completes;
      SendComplete(txn, t, w, i);
    }
  }
  if (t.pending_completes == 0 && t.delay_ack) {
    FinishCommit(txn, t);
    txns_.erase(txn);
  }
}

void NdbDatanode::TcCompleted(TxnId txn) {
  PROF_ZONE("ndb.tc.completed");
  RunTc(kTcCompleteRow, [this, txn] {
    if (!alive_) return;
    auto it = txns_.find(txn);
    if (it == txns_.end()) return;
    TcTxn& t = it->second;
    if (--t.pending_completes > 0) return;
    if (t.delay_ack) FinishCommit(txn, t);
    txns_.erase(txn);
  });
}

void NdbDatanode::FinishCommit(TxnId txn, TcTxn& t) {
  SendToApi(t.api, kMsgSmall,
            OpReply{txn, t.commit_op_id, Code::kOk, {}, {}}, t.commit_span);
  t.commit_op_id = 0;
  t.commit_span = 0;
}

void NdbDatanode::TcAbort(TxnId txn) {
  RunTc(kTcBegin, [this, txn] {
    if (!alive_) return;
    auto it = txns_.find(txn);
    if (it != txns_.end()) AbortTxn(txn, it->second);
  });
}

void NdbDatanode::AbortTxn(TxnId txn, const TcTxn& t) {
  ForEachHeldRow(t, [&](const HeldRow& r) {
    SendAbortRow(r.node, txn, r.table, r.key, r.part);
  });
  txns_.erase(txn);
}

void NdbDatanode::AbortTxnsInvolving(NodeId failed) {
  std::vector<TxnId> doomed;
  for (auto& [txn, t] : txns_) {
    bool involved = false;
    ForEachHeldRow(t, [&](const HeldRow& r) { involved |= r.node == failed; });
    if (involved) doomed.push_back(txn);
  }
  for (TxnId txn : doomed) {
    auto it = txns_.find(txn);
    if (it == txns_.end()) continue;
    const ApiNodeId api = it->second.api;
    const uint64_t op_id = it->second.commit_op_id;
    AbortTxn(txn, it->second);
    if (api >= 0) {
      SendToApi(api, kMsgSmall,
                OpReply{txn, op_id, Code::kUnavailable, {}, {}});
    }
  }
}

std::vector<NdbDatanode::TakeoverRow> NdbDatanode::DrainTxnRowsForTakeover() {
  std::vector<TakeoverRow> rows;
  for (auto& [txn, t] : txns_) {
    ForEachHeldRow(t, [&](const HeldRow& r) {
      // Read locks never roll forward.
      rows.push_back(TakeoverRow{txn, r.table, r.key, r.part, r.node,
                                 r.written && t.committing,
                                 r.written ? t.commit_epoch : 0});
    });
  }
  txns_.clear();
  return rows;
}

void NdbDatanode::ResolveTakenOverRow(const TakeoverRow& row) {
  if (row.commit_forward) {
    // Roll forward with the dead coordinator's commit epoch, matching
    // whatever the already-applied replicas logged for this transaction.
    LogRedo(row.epoch != 0 ? row.epoch : gcp_epoch_ + 1, row.part, row.txn,
            row.table, row.key, store_.Commit(row.table, row.key, row.txn));
  } else {
    store_.Abort(row.table, row.key, row.txn);
  }
  locks_.Release(row.txn, row.table, row.key);
}

void NdbDatanode::SweepInactiveTxns() {
  PROF_ZONE("ndb.tc.sweep");
  const Nanos cutoff =
      cluster_.sim().now() - kTxnInactiveTimeout;
  std::vector<TxnId> doomed;
  std::vector<TxnId> stalled;
  for (auto& [txn, t] : txns_) {
    if (t.last_activity >= cutoff) continue;
    (t.committing ? stalled : doomed).push_back(txn);
  }
  // A committing transaction past its commit point cannot abort; it can
  // only be wedged by a lost Commit/Complete hop. Chain members that are
  // layout-alive are handled by the failure detector (eviction + take-over
  // resolves the txn), but catch-up backups live outside its purview: a
  // partition that swallows their Complete leaves the txn — and every
  // pending replica slot it holds — stuck forever. Re-drive the stalled
  // phase instead: both LdmCommitChain and LdmComplete are idempotent
  // (Commit no-ops without a pending write, acks are always sent).
  for (TxnId txn : stalled) {
    auto it = txns_.find(txn);
    if (it == txns_.end()) continue;
    RedriveStalledCommit(txn, it->second);
  }
  for (TxnId txn : doomed) {
    auto it = txns_.find(txn);
    if (it == txns_.end()) continue;
    RLOG_DEBUG(kLog, "node %d aborting inactive txn %llu", id_,
               static_cast<unsigned long long>(txn));
    AbortTxn(txn, it->second);
  }

  // Resolve pending writes whose coordinating transaction no longer
  // exists. Take-over and TC-side aborts roll back only the rows the TC
  // had recorded, and the TC records a write only once the whole chain
  // has prepared — so a prepare or complete whose ack was lost with its
  // coordinator leaves pending slots (and, on the primary, a row lock)
  // that nothing else will ever free. A pending write is an orphan once
  // it is older than the inactivity timeout (anything younger may still
  // have its TcPrepared/Complete legitimately in flight) and its TC is
  // dead, restarted (empty transaction table), or has forgotten the txn.
  std::vector<RowStore::PendingRow> orphans;
  store_.ForEachPending([&](const RowStore::PendingRow& p) {
    if (p.tc == kNoNode || p.staged_at >= cutoff) return;
    if (!cluster_.layout().alive(p.tc) ||
        !cluster_.datanode(p.tc).HasActiveTxn(p.txn)) {
      orphans.push_back(p);
    }
  });
  for (const auto& o : orphans) {
    // Roll forward or back? The transaction may have reached its commit
    // point — primary applied, client acked — with only this replica's
    // Complete lost, in which case aborting would leave the replica
    // diverged forever. Consult the other alive replicas
    // (copy-fragment-style repair): if any of them has already applied
    // this exact write, commit it here too; otherwise no one acked it
    // and rollback is safe.
    bool committed_elsewhere = false;
    const PartitionId part = cluster_.layout().PartitionOf(o.table, o.key);
    for (NodeId r : cluster_.layout().ReplicaChain(o.table, part)) {
      if (r == id_ || !cluster_.layout().alive(r)) continue;
      const RowStore& other = cluster_.datanode(r).store();
      if (o.type == WriteType::kPut) {
        const auto v = other.Read(o.table, o.key, /*reader_txn=*/0);
        if (v && v == o.value) {
          committed_elsewhere = true;
          break;
        }
      } else if (!other.ExistsCommitted(o.table, o.key) &&
                 store_.ExistsCommitted(o.table, o.key)) {
        committed_elsewhere = true;
        break;
      }
    }
    RLOG_DEBUG(kLog, "node %d resolving orphaned pending write on %s (txn "
               "%llu): %s",
               id_, o.key.c_str(), static_cast<unsigned long long>(o.txn),
               committed_elsewhere ? "roll forward" : "roll back");
    // The coordinator (and its commit-decision epoch) died with the ack:
    // epoch 0 logs a roll-forward under the currently open epoch. Orphan
    // roll-forward only fires minutes of sim-time after a TC death, so
    // the cluster recovery cut has long since passed the original epoch.
    ResolveTakenOverRow(TakeoverRow{o.txn, o.table, o.key, part, id_,
                                    committed_elsewhere, /*epoch=*/0});
  }
}

void NdbDatanode::RedriveStalledCommit(TxnId txn, TcTxn& t) {
  Touch(t);  // one re-drive per inactivity timeout, not per sweep tick
  ++proto_stats_.commit_redrives;
  // A chain member that is neither layout-alive nor still accepting
  // catch-up traffic has lost its in-memory pending writes for good
  // (crashed mid-catch-up, or its resync was abandoned); waiting on its
  // ack would wedge the txn forever. Merely-partitioned members stay in —
  // the next re-drive reaches them once the partition heals.
  auto gone = [this](NodeId n) {
    return !cluster_.layout().alive(n) &&
           !cluster_.datanode(n).catchup_accepting();
  };
  if (t.pending_commits > 0) {
    RLOG_DEBUG(kLog, "node %d re-driving commit chains for stalled txn %llu",
               id_, static_cast<unsigned long long>(txn));
    t.pending_commits = static_cast<int>(t.writes.size());
    for (const auto& w : t.writes) {
      // The primary (chain head) always stays: it is layout-alive or the
      // failure detector's take-over path owns this txn's resolution.
      NodeChain chain;
      chain.push_back(w.chain.front());
      for (size_t i = 1; i < w.chain.size(); ++i) {
        if (!gone(w.chain[i])) chain.push_back(w.chain[i]);
      }
      SendCommitChain(txn, t, w, chain);
    }
    return;
  }
  if (t.pending_completes <= 0) return;
  RLOG_DEBUG(kLog, "node %d re-driving complete phase for stalled txn %llu",
             id_, static_cast<unsigned long long>(txn));
  t.pending_completes = 0;
  for (const auto& w : t.writes) {
    for (size_t i = 0; i < w.chain.size(); ++i) {
      if (i > 0 && gone(w.chain[i])) continue;
      ++t.pending_completes;
      SendComplete(txn, t, w, i);
    }
  }
}

// ---------------------------------------------------------------------------
// LDM role
// ---------------------------------------------------------------------------

void NdbDatanode::LdmCommittedRead(SignalRef sig) {
  PROF_ZONE("ndb.ldm.committed_read");
  ++proto_stats_.committed_reads;
  const KeyOpReq& req = sig->as<KeyOpReq>();
  const PartitionId part = cluster_.layout().PartitionOf(req.table, req.key);
  const trace::SpanId span = req.span;
  const Booking b = RunLdm(part, kLdmRead,
                           [this, sig = std::move(sig)]() mutable {
    if (!accepting()) return;
    // Streaming catch-up availability: reads this node absorbed for
    // already-resynced partitions while still rejoining.
    if (!alive_) ++catchup_reads_served_;
    const KeyOpReq& req = sig->as<KeyOpReq>();
    RowImage value = store_.Read(req.table, req.key, req.txn);
    const int64_t bytes =
        kMsgSmall + static_cast<int64_t>(value.size());
    SendToApi(req.api, bytes,
              OpReply{req.txn, req.op_id, Code::kOk, std::move(value), {}},
              req.span, std::move(sig));
  });
  TraceCpu(span, "ldm.read", b);
}

void NdbDatanode::LdmLockedRead(SignalRef sig) {
  PROF_ZONE("ndb.ldm.locked_read");
  ++proto_stats_.locked_reads;
  const PrepareReq& probe = sig->as<PrepareReq>();
  // `insert_only` doubles as the exclusive-mode marker for lock probes.
  const LockMode mode =
      probe.insert_only ? LockMode::kExclusive : LockMode::kShared;
  const trace::SpanId op_span = probe.span;
  const PartitionId part = probe.part;
  const Booking b = RunLdm(part, kLdmRead,
                           [this, sig = std::move(sig), mode]() mutable {
    if (!accepting()) return;
    const PrepareReq& probe = sig->as<PrepareReq>();
    const trace::SpanId wait = cluster_.tracer().StartSpan(
        probe.span, "lock.wait", trace::Layer::kNdb, trace::Cause::kLockWait,
        host_, az());
    // Acquire copies the row identity before it can run the grant, so
    // the key may live in the record the continuation takes over.
    locks_.Acquire(probe.txn, probe.table, probe.key, mode,
                   [this, sig = std::move(sig), wait](Status s) mutable {
      cluster_.tracer().EndSpan(wait);
      PrepareReq& probe = sig->as<PrepareReq>();
      RowImage value;
      Code code = Code::kOk;
      if (s.ok()) {
        value = store_.Read(probe.table, probe.key, probe.txn);
        if (!value) {
          // Missing row: do not retain a lock on a ghost.
          locks_.Release(probe.txn, probe.table, probe.key);
          code = Code::kNotFound;
        }
      } else {
        code = s.code();
      }
      const int64_t bytes =
          kMsgSmall + static_cast<int64_t>(value.size());
      const NodeId tc = probe.tc;
      const trace::SpanId span = probe.span;
      sig->msg = LockedReadAck{std::move(probe), code, std::move(value)};
      SendToNode(tc, bytes, SignalKind::kLockedReadResult, std::move(sig),
                 span);
    });
  });
  TraceCpu(op_span, "ldm.read", b);
}

void NdbDatanode::SendPrepared(SignalRef sig, Code code) {
  PrepareReq& req = sig->as<PrepareReq>();
  const NodeId tc = req.tc;
  const trace::SpanId span = req.span;
  sig->msg = PreparedAck{std::move(req), code};
  SendToNode(tc, kMsgSmall, SignalKind::kPrepared,
             std::move(sig), span);
}

void NdbDatanode::ForwardPrepare(SignalRef sig) {
  PrepareReq& req = sig->as<PrepareReq>();
  if (req.pos + 1 < static_cast<int>(req.chain.size())) {
    req.pos += 1;
    const NodeId next = req.chain[req.pos];
    const int64_t bytes = kMsgWriteBase +
                          static_cast<int64_t>(req.value.size());
    const trace::SpanId s = req.span;
    SendToNode(next, bytes, SignalKind::kPrepare, std::move(sig), s);
  } else {
    SendPrepared(std::move(sig), Code::kOk);
  }
}

void NdbDatanode::LdmPrepare(SignalRef sig) {
  PROF_ZONE("ndb.ldm.prepare");
  const PrepareReq& req = sig->as<PrepareReq>();
  if (req.busy_retries == 0) ++proto_stats_.prepares;
  const trace::SpanId op_span = req.busy_retries == 0 ? req.span : 0;
  const PartitionId part = req.part;
  const Booking b = RunLdm(part, kLdmPrepare,
                           [this, sig = std::move(sig)]() mutable {
    if (!accepting()) return;
    PrepareReq& req = sig->as<PrepareReq>();
    // Rows staged by earlier chain members (positions < pos) are rolled
    // back when this hop refuses the prepare.
    const auto abort_upstream = [&] {
      for (int i = 0; i < req.pos; ++i) {
        SendAbortRow(req.chain[i], req.txn, req.table, req.key, req.part);
      }
    };
    if (!cluster_.layout().alive(req.tc)) {
      // The coordinator died while this prepare was in flight. Take-over
      // has already rolled its transactions back, but it can only see
      // rows the TC had recorded — and the TC records a write only once
      // the whole chain has prepared. Rows staged by earlier chain
      // members are therefore invisible to take-over: unwind them here
      // instead of staging one more pending write that nobody will ever
      // commit or abort.
      abort_upstream();
      return;
    }
    // Redo backpressure: refuse new work while the unflushed journal
    // backlog exceeds the stall limit (saturated or grey-slow log disk).
    // kResourceExhausted aborts the txn and counts against availability,
    // so the AIMD admission layer sheds load until the log disk catches
    // up — bounding journal memory instead of growing it without limit.
    // Commits already past their decision point are never stalled (WAL
    // semantics: backpressure applies at admission, not at apply).
    if (journal_.backlog_bytes() >
        cluster_.node_config().redo_stall_backlog_bytes) {
      abort_upstream();
      SendPrepared(std::move(sig), Code::kResourceExhausted);
      return;
    }
    if (req.pos > 0) {
      // Backups stage the pending write without locking; the primary's
      // lock serialises writers. A backup may still hold the previous
      // transaction's pending write (applied only when its Complete
      // lands): wait for that slot to free — the predecessor's
      // Complete/Abort is already in flight, and coordinator failure
      // frees the slot via take-over.
      StageOrRetry(std::move(sig), /*primary=*/false);
      return;
    }
    const trace::SpanId wait = cluster_.tracer().StartSpan(
        req.span, "lock.wait", trace::Layer::kNdb, trace::Cause::kLockWait,
        host_, az());
    // Acquire copies the row identity before it can run the grant (see
    // LdmLockedRead).
    locks_.Acquire(req.txn, req.table, req.key, LockMode::kExclusive,
                   [this, sig = std::move(sig), wait](Status s) mutable {
      cluster_.tracer().EndSpan(wait);
      PrepareReq& req = sig->as<PrepareReq>();
      Code code = Code::kOk;
      if (!s.ok()) {
        code = s.code();
      } else if (req.insert_only &&
                 store_.ExistsCommitted(req.table, req.key)) {
        code = Code::kAlreadyExists;
      } else if (req.must_exist &&
                 !store_.ExistsCommitted(req.table, req.key)) {
        code = Code::kNotFound;
      }
      if (code != Code::kOk) {
        if (s.ok()) locks_.Release(req.txn, req.table, req.key);
        SendPrepared(std::move(sig), code);
        return;
      }
      // The row lock serialises writers on a stable primary, but the
      // primary role itself can move — a failover, or a catch-up rejoin
      // that re-attached this node after it staged the row as a backup
      // under the old chain. The slot may therefore hold another
      // transaction's pending write; stage under the lock, waiting for
      // that write's in-flight Complete/Abort (or take-over / the orphan
      // sweep) to free it.
      StageOrRetry(std::move(sig), /*primary=*/true);
    });
  });
  TraceCpu(op_span, "ldm.prepare", b);
}

// Stages the prepare's pending write and forwards the prepare. While the
// slot still holds another transaction's write, retries every 200 us, up
// to 1000 times, then refuses with kTimedOut. The primary holds the row's
// exclusive lock across the retries, so writers stay serialised while
// the previous chain's write drains out of the slot.
void NdbDatanode::StageOrRetry(SignalRef sig, bool primary) {
  PROF_ZONE("ndb.ldm.stage");
  PrepareReq& req = sig->as<PrepareReq>();
  if (store_.Prepare(req.table, req.key, req.type, req.value, req.txn,
                     req.tc, cluster_.sim().now())) {
    ForwardPrepare(std::move(sig));
    return;
  }
  req.busy_retries += 1;
  if (req.busy_retries > 1000) {
    RLOG_WARN(kLog, "node %d: %spending slot on %s never freed", id_,
              primary ? "primary " : "", req.key.c_str());
    if (primary) locks_.Release(req.txn, req.table, req.key);
    SendPrepared(std::move(sig), Code::kTimedOut);
    return;
  }
  const Nanos now = cluster_.sim().now();
  cluster_.tracer().AddSpanAt(req.span, "prepare.busy_wait",
                              trace::Layer::kNdb, trace::Cause::kRetry, host_,
                              az(), now, now + 200 * kMicrosecond);
  cluster_.sim().After(200 * kMicrosecond,
                       [this, sig = std::move(sig), primary]() mutable {
    // A crash clears the lock table and pending rows: the primary's retry
    // dies with them. A backup retries the whole prepare while it accepts
    // traffic — catch-up backups too, or the TC would wait for a reply
    // that never comes.
    if (primary) {
      if (alive_) StageOrRetry(std::move(sig), true);
    } else if (accepting()) {
      LdmPrepare(std::move(sig));
    }
  });
}

void NdbDatanode::LdmCommitChain(SignalRef sig) {
  PROF_ZONE("ndb.ldm.commit_chain");
  ++proto_stats_.commit_hops;
  const CommitChainReq& req = sig->as<CommitChainReq>();
  const trace::SpanId op_span = req.span;
  const PartitionId part = req.part;
  const Booking b = RunLdm(part, kLdmCommit,
                           [this, sig = std::move(sig)]() mutable {
    if (!accepting()) return;
    CommitChainReq& req = sig->as<CommitChainReq>();
    const trace::SpanId s = req.span;
    if (req.pos == 0) {
      // The primary is the commit point: apply, unlock, confirm.
      LogRedo(req.epoch, req.part, req.txn, req.table, req.key,
              store_.Commit(req.table, req.key, req.txn));
      locks_.Release(req.txn, req.table, req.key);
      const NodeId tc = req.tc;
      sig->msg = TxnAck{req.txn};
      SendToNode(tc, kMsgSmall, SignalKind::kCommitted, std::move(sig),
                 s);
      return;
    }
    // Backups only pass the Commit along; their pending write is applied
    // at Complete — the window behind the primary-read redirection rule
    // (§II-B2).
    req.pos -= 1;
    const NodeId next = req.chain[req.pos];
    SendToNode(next, kMsgSmall, SignalKind::kCommitChain, std::move(sig),
               s);
  });
  TraceCpu(op_span, "ldm.commit", b);
}

void NdbDatanode::LdmComplete(SignalRef sig) {
  PROF_ZONE("ndb.ldm.complete");
  ++proto_stats_.completes;
  const CompleteReq& req = sig->as<CompleteReq>();
  const trace::SpanId op_span = req.span;
  const PartitionId part = req.part;
  const Booking b = RunLdm(part, kLdmComplete,
                           [this, sig = std::move(sig)]() mutable {
    if (!accepting()) return;
    const CompleteReq& req = sig->as<CompleteReq>();
    if (!req.is_primary) {
      LogRedo(req.epoch, req.part, req.txn, req.table, req.key,
              store_.Commit(req.table, req.key, req.txn));
    }
    const NodeId tc = req.tc;
    const trace::SpanId s = req.span;
    sig->msg = TxnAck{req.txn};
    SendToNode(tc, kMsgSmall, SignalKind::kCompleted,
               std::move(sig), s);
  });
  TraceCpu(op_span, "ldm.complete", b);
}

void NdbDatanode::LdmAbortRow(SignalRef sig) {
  const PartitionId part = sig->as<RowRef>().part;
  RunLdm(part, kLdmComplete,
         [this, sig = std::move(sig)] {
           if (!accepting()) return;
           const RowRef& row = sig->as<RowRef>();
           store_.Abort(row.table, row.key, row.txn);
           locks_.Release(row.txn, row.table, row.key);
         });
}

void NdbDatanode::LdmUnlock(SignalRef sig) {
  const PartitionId part = sig->as<RowRef>().part;
  RunLdm(part, kLdmComplete,
         [this, sig = std::move(sig)] {
           if (!accepting()) return;
           const RowRef& row = sig->as<RowRef>();
           locks_.Release(row.txn, row.table, row.key);
         });
}

void NdbDatanode::LdmScanExec(SignalRef sig) {
  ++proto_stats_.scans;
  const ScanReq& req = sig->as<ScanReq>();
  // The TC routed by the same partition (a pure function of the prefix).
  const PartitionId part =
      cluster_.layout().PartitionOf(req.table, req.prefix);
  // Row lookup is done inline; the LDM cost scales with rows returned.
  auto rows = store_.ScanPrefix(req.table, req.prefix, req.txn);
  const Nanos work = kLdmScanBase +
                     kLdmScanRow * static_cast<Nanos>(rows.size());
  const trace::SpanId op_span = req.span;
  const Booking b = RunLdm(part, work, [this, sig = std::move(sig),
                                        rows = std::move(rows)]() mutable {
    if (!accepting()) return;
    int64_t bytes = kMsgSmall;
    for (const auto& [k, v] : rows) {
      bytes += static_cast<int64_t>(k.size() + v.size());
    }
    const ScanReq& req = sig->as<ScanReq>();
    SendToApi(req.api, bytes,
              OpReply{req.txn, req.op_id, Code::kOk, {}, std::move(rows)},
              req.span, std::move(sig));
  });
  TraceCpu(op_span, "ldm.scan", b);
}

}  // namespace repro::ndb
