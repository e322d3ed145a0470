#include "ndb/datanode.h"

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
}

namespace {
RedoJournal::Config JournalConfig(const NdbCluster& cluster) {
  RedoJournal::Config jc;
  jc.record_overhead_bytes = cluster.cost().redo_record_overhead_bytes;
  jc.flush_overhead_bytes = cluster.cost().redo_flush_overhead_bytes;
  jc.segment_bytes = cluster.node_config().redo_segment_bytes;
  return jc;
}
}  // namespace

NdbDatanode::NdbDatanode(NdbCluster& cluster, NodeId id, HostId host)
    : cluster_(cluster), id_(id), host_(host),
      store_(cluster.catalog().num_tables()),
      locks_(cluster.sim(), cluster.node_config().lock_wait_timeout),
      journal_(cluster.catalog().num_tables(), JournalConfig(cluster)) {
  store_.set_debug_owner(id_);
  auto& sim = cluster_.sim();
  const auto& nc = cluster_.node_config();
  const auto name = [this](const char* pool) {
    return StrFormat("ndb%d.%s", id_, pool);
  };
  ldm_ = std::make_unique<ThreadPool>(sim, name("ldm"), nc.ldm_threads);
  tc_ = std::make_unique<ThreadPool>(sim, name("tc"), nc.tc_threads);
  recv_ = std::make_unique<ThreadPool>(sim, name("recv"), nc.recv_threads);
  send_ = std::make_unique<ThreadPool>(sim, name("send"), nc.send_threads);
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

bool NdbDatanode::HasTxnTouchingGroup(int group) const {
  const int groups = cluster_.layout().num_groups();
  for (const auto& [txn, t] : txns_) {
    for (const auto& w : t.writes) {
      if (w.part % groups == group) return true;
    }
    for (PartitionId p : t.inflight_parts) {
      if (p % groups == group) return true;
    }
    for (const auto& rl : t.read_locks) {
      if (rl.part % groups == group) return true;
    }
  }
  return false;
}

bool NdbDatanode::HasTxnTouchingPartition(PartitionId part) const {
  for (const auto& [txn, t] : txns_) {
    for (const auto& w : t.writes) {
      if (w.part == part) return true;
    }
    for (PartitionId p : t.inflight_parts) {
      if (p == part) return true;
    }
    for (const auto& rl : t.read_locks) {
      if (rl.part == part) return true;
    }
  }
  return false;
}

bool NdbDatanode::HasCommittingTxnAtOrBelow(int64_t epoch) const {
  for (const auto& [txn, t] : txns_) {
    if (t.committing && !t.aborted && t.commit_epoch != 0 &&
        t.commit_epoch <= epoch) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Infrastructure
// ---------------------------------------------------------------------------

void NdbDatanode::ReceiveMsg(SmallFn handle) {
  if (!accepting()) return;
  const auto& cost = cluster_.cost();
  const auto& nc = cluster_.node_config();
  // Idle singles (REP, then MAIN) help overloaded receive threads —
  // the behaviour behind the high REP utilisation in Fig. 11.
  ThreadPool* pool = recv_.get();
  if (recv_->Backlog() > nc.helper_backlog_threshold) {
    if (rep_->Backlog() < recv_->Backlog()) {
      pool = rep_.get();
    } else if (main_->Backlog() < recv_->Backlog()) {
      pool = main_.get();
    }
  }
  pool->Submit(cost.recv_per_msg, [this, handle = std::move(handle)]() mutable {
    if (accepting()) handle();
  });
}

void NdbDatanode::SendToNode(NodeId dst, int64_t bytes,
                             SmallCall<void(NdbDatanode&)> fn,
                             trace::SpanId span) {
  if (!accepting()) return;
  if (dst == id_) {
    // In-process signal between the TC and LDM blocks of this node.
    fn(*this);
    return;
  }
  const auto& cost = cluster_.cost();
  const auto& nc = cluster_.node_config();
  ThreadPool* pool = send_.get();
  if (send_->Backlog() > nc.helper_backlog_threshold &&
      rep_->Backlog() < send_->Backlog()) {
    pool = rep_.get();
  }
  const AzId dst_az = cluster_.layout().az_of(dst);
  const trace::SpanId hop = cluster_.tracer().StartSpan(
      span, "net.hop", trace::Layer::kNdb, trace::NetCause(az(), dst_az),
      host_, az(), dst_az);
  pool->Submit(cost.send_per_msg, [this, dst, bytes, hop,
                                   fn = std::move(fn)]() mutable {
    NdbDatanode& peer = cluster_.datanode(dst);
    cluster_.network().Send(
        host_, peer.host(), bytes,
        [this, &peer, hop, fn = std::move(fn)]() mutable {
          cluster_.tracer().EndSpan(hop);
          peer.ReceiveMsg([&peer, fn = std::move(fn)]() mutable { fn(peer); });
        });
  });
}

void NdbDatanode::SendToApi(ApiNodeId api, int64_t bytes, OpReply reply,
                            trace::SpanId span) {
  if (!accepting()) return;
  reply.from = id_;  // hedged-read win attribution (see OpReply::from)
  const auto& cost = cluster_.cost();
  NdbApiNode* dst = cluster_.api(api);
  const trace::SpanId hop =
      dst == nullptr ? 0
                     : cluster_.tracer().StartSpan(
                           span, "net.reply", trace::Layer::kNdb,
                           trace::NetCause(az(), dst->az()), host_, az(),
                           dst->az());
  send_->Submit(cost.send_per_msg, [this, api, bytes, hop,
                                    reply = std::move(reply)]() mutable {
    NdbApiNode* a = cluster_.api(api);
    if (a == nullptr) return;
    // Re-resolve at delivery time: the API node can be destroyed while
    // the reply is in flight, and its slot is nulled on unregister.
    cluster_.network().Send(host_, a->host(), bytes,
                            [this, api, hop,
                             reply = std::move(reply)]() mutable {
                              cluster_.tracer().EndSpan(hop);
                              NdbApiNode* dst2 = cluster_.api(api);
                              if (dst2 != nullptr) {
                                dst2->OnOpReply(std::move(reply));
                              }
                            });
  });
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
    const std::optional<RowStore::AppliedWrite>& applied) {
  if (!applied) return;
  // The epoch was assigned once, by the TC, at the commit decision —
  // every replica of the transaction logs the identical epoch, so a GCP
  // tick between two replicas' applies can no longer split a commit
  // across epochs.
  journal_.Append(epoch, txn, table, key, part,
                  applied->type == WriteType::kDelete, applied->value,
                  cluster_.sim().now());
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
  RunIo(cluster_.cost().io_redo_per_commit, [this, batch, gen] {
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
  // Fragment LCP: one image write per partition, chained, each folding
  // only that partition's records — checkpoint I/O is spread across the
  // LCP instead of a single monolithic write, and a crash mid-round
  // still leaves every completed fragment's segments truncated.
  const int num_parts = cluster_.layout().num_partitions();
  const uint64_t gen = journal_.generation();
  auto step = std::make_shared<std::function<void(PartitionId)>>();
  // Capture weakly inside the function itself — a strong self-capture
  // would cycle and leak one continuation per LCP round. The async hops
  // below each hold a strong ref, so the chain stays alive exactly as
  // long as a fragment write is outstanding.
  std::weak_ptr<std::function<void(PartitionId)>> weak_step = step;
  *step = [this, cut, num_parts, gen, weak_step](PartitionId part) {
    auto step = weak_step.lock();
    if (!step || !alive_ || journal_.generation() != gen) {
      lcp_inflight_ = false;
      return;
    }
    if (part >= num_parts) {
      journal_.FinishCheckpointRound(cut, cluster_.sim().now());
      lcp_inflight_ = false;
      return;
    }
    const int64_t bytes =
        journal_.FragmentCheckpointBytes(part, num_parts, cut);
    RunIo(cluster_.cost().io_redo_per_commit, [this, part, bytes, cut, gen,
                                               step] {
      if (!alive_) return;
      disk_->Write(bytes, [this, part, cut, gen, step] {
        if (!alive_ || journal_.generation() != gen) {
          lcp_inflight_ = false;
          return;
        }
        journal_.CompleteFragmentCheckpoint(part, cut);
        (*step)(part + 1);
      });
    });
  };
  (*step)(0);
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
      [this](TableId t, const Key& k, const std::string& v) {
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
                                         const std::string& value) {
      journal_.InstallImageRow(t, key, value);
    });
  }
}

NdbDatanode::AdoptResult NdbDatanode::AdoptJournalFrom(
    const NdbDatanode& source, int64_t cut_epoch,
    int64_t cluster_closed_epoch, Nanos now) {
  const auto& layout = cluster_.layout();
  const auto mine = [&](TableId table, const Key& key) {
    const PartitionId part = layout.PartitionOf(table, key);
    for (NodeId n : layout.ReplicaChain(table, part)) {
      if (n == id_) return true;
    }
    return false;
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
      [&](TableId t, const Key& k, const std::string& v) {
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
                                            const std::string& value) {
      digest.AddRow(t, key, value);
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

NodeId NdbDatanode::RouteCommittedRead(TableId table, PartitionId part,
                                       int* replica_idx) {
  const TableDef& td = cluster_.catalog().table(table);
  auto& layout = cluster_.layout();
  NodeId node;
  if (td.read_backup || td.fully_replicated) {
    const std::vector<NodeId> chain = td.fully_replicated
        ? layout.ReplicaChain(table, part)
        : layout.ReplicaChain(part);
    node = layout.PickByProximity(az(), chain, cluster_.flags().az_aware,
                                  rr_counter_++, part);
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
  *replica_idx = static_cast<int>(configured.size());
  for (size_t i = 0; i < configured.size(); ++i) {
    if (configured[i] == node) {
      *replica_idx = static_cast<int>(i);
      break;
    }
  }
  return node;
}

void NdbDatanode::TcKeyOp(KeyOpReq req) {
  PROF_ZONE("ndb.tc.keyop");
  const trace::SpanId op_span = req.span;
  const Booking b = RunTc(cluster_.cost().tc_route_op,
                          [this, req = std::move(req)]() mutable {
    if (!alive_) return;
    const auto& cost = cluster_.cost();
    auto& layout = cluster_.layout();
    // Deadline propagation: refuse doomed work before routing it to an
    // LDM (the API node already gave up at the same instant).
    if (resilience::DeadlineExpired(req.deadline, cluster_.sim().now())) {
      SendToApi(req.api, cost.msg_small,
                OpReply{req.txn, req.op_id, Code::kDeadlineExceeded, {}, {}});
      return;
    }
    const PartitionId part = layout.PartitionOf(req.table, req.key);
    TcTxn& t = Txn(req.txn, req.api);
    Touch(t);
    if (t.aborted) {
      SendToApi(req.api, cost.msg_small,
                OpReply{req.txn, req.op_id, Code::kAborted, {}, {}});
      return;
    }

    if (!req.is_write && req.mode == LockMode::kReadCommitted) {
      int replica_idx = -1;
      const NodeId serving = RouteCommittedRead(req.table, part, &replica_idx);
      if (serving == kNoNode) {
        SendToApi(req.api, cost.msg_small,
                  OpReply{req.txn, req.op_id, Code::kUnavailable, {}, {}});
        return;
      }
      cluster_.RecordReplicaRead(part, replica_idx);
      const trace::SpanId s = req.span;
      SendToNode(serving, cost.msg_read_req,
                 [req = std::move(req), replica_idx](NdbDatanode& n) mutable {
                   n.LdmCommittedRead(std::move(req), replica_idx);
                 },
                 s);
      return;
    }

    if (!req.is_write) {
      // Shared/exclusive read: always the primary replica (§II-B2).
      const NodeId primary = layout.PrimaryOf(part);
      if (primary == kNoNode) {
        SendToApi(req.api, cost.msg_small,
                  OpReply{req.txn, req.op_id, Code::kUnavailable, {}, {}});
        return;
      }
      cluster_.RecordReplicaRead(part, 0);
      PrepareReq probe;
      probe.txn = req.txn;
      probe.tc = id_;
      probe.op_id = req.op_id;
      probe.api = req.api;
      probe.table = req.table;
      probe.key = std::move(req.key);
      probe.part = part;
      probe.insert_only = req.mode == LockMode::kExclusive;  // X vs S marker
      probe.span = req.span;
      const trace::SpanId s = probe.span;
      SendToNode(primary, cost.msg_read_req,
                 [probe = std::move(probe)](NdbDatanode& n) mutable {
                   n.LdmLockedRead(std::move(probe));
                 },
                 s);
      return;
    }

    if (test_lose_acked_writes_) {
      // Deliberate bug (see set_test_lose_acked_writes): swallow the write
      // and ack success. The transaction later commits "cleanly" with no
      // staged rows, so the client believes the write is durable.
      SendToApi(req.api, cost.msg_small,
                OpReply{req.txn, req.op_id, Code::kOk, {}, {}});
      return;
    }

    // Write: start the prepare chain (locks taken at the primary first).
    // Alive replicas in configured order; a rejoining node that already
    // caught up on this partition joins as a *backup* so live writes keep
    // flowing to it mid-resync — never as primary (its lock manager
    // predates the crash and must not serialise writers).
    std::vector<NodeId> chain;
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
      SendToApi(req.api, cost.msg_small,
                OpReply{req.txn, req.op_id, Code::kUnavailable, {}, {}});
      return;
    }
    const TableDef& td = cluster_.catalog().table(req.table);
    if ((td.read_backup || td.fully_replicated) &&
        cluster_.flags().read_backup_commit_ack) {
      t.delay_ack = true;
    }
    PrepareReq prep;
    prep.txn = req.txn;
    prep.tc = id_;
    prep.op_id = req.op_id;
    prep.api = req.api;
    prep.table = req.table;
    prep.key = std::move(req.key);
    prep.part = part;
    prep.type = req.write_type;
    prep.insert_only = req.insert_only;
    prep.must_exist = req.must_exist;
    prep.value = std::move(req.value);
    prep.chain = std::move(chain);
    prep.pos = 0;
    prep.span = req.span;
    t.inflight_parts.push_back(part);
    const int64_t bytes =
        cost.msg_write_base + static_cast<int64_t>(prep.value.size());
    const NodeId first = prep.chain[0];
    const trace::SpanId s = prep.span;
    SendToNode(first, bytes,
               [prep = std::move(prep)](NdbDatanode& n) mutable {
                 n.LdmPrepare(std::move(prep));
               },
               s);
  });
  TraceCpu(op_span, "tc.route", b);
}

void NdbDatanode::TcScan(ScanReq req) {
  PROF_ZONE("ndb.tc.scan");
  const trace::SpanId op_span = req.span;
  const Booking b = RunTc(cluster_.cost().tc_route_op,
                          [this, req = std::move(req)]() mutable {
    if (!alive_) return;
    const auto& cost = cluster_.cost();
    if (resilience::DeadlineExpired(req.deadline, cluster_.sim().now())) {
      SendToApi(req.api, cost.msg_small,
                OpReply{req.txn, req.op_id, Code::kDeadlineExceeded, {}, {}});
      return;
    }
    const PartitionId part =
        cluster_.layout().PartitionOf(req.table, req.prefix);
    TcTxn& t = Txn(req.txn, req.api);
    Touch(t);
    int replica_idx = -1;
    const NodeId serving = RouteCommittedRead(req.table, part, &replica_idx);
    if (serving == kNoNode) {
      SendToApi(req.api, cost.msg_small,
                OpReply{req.txn, req.op_id, Code::kUnavailable, {}, {}});
      return;
    }
    cluster_.RecordReplicaRead(part, replica_idx);
    const trace::SpanId s = req.span;
    SendToNode(serving, cost.msg_scan_req,
               [req = std::move(req), part,
                replica_idx](NdbDatanode& n) mutable {
                 n.LdmScanExec(std::move(req), part, replica_idx);
               },
               s);
  });
  TraceCpu(op_span, "tc.route", b);
}

void NdbDatanode::TcPrepared(TxnId txn, uint64_t op_id, Code code,
                             TableId table, Key key, PartitionId part,
                             std::vector<NodeId> chain, trace::SpanId span) {
  const Booking b = RunTc(
      cluster_.cost().tc_route_op,
      [this, txn, op_id, code, table, key = std::move(key), part,
       chain = std::move(chain), span]() mutable {
        if (!alive_) return;
        auto it = txns_.find(txn);
        const auto& cost = cluster_.cost();
        if (it == txns_.end() || it->second.aborted) {
          // Txn gone (aborted/timed out): roll the prepared row back.
          for (NodeId n : chain) {
            SendToNode(n, cost.msg_small,
                       [txn, table, key, part](NdbDatanode& d) {
                         d.LdmAbortRow(txn, table, key, part);
                       });
          }
          return;
        }
        TcTxn& t = it->second;
        Touch(t);
        if (code != Code::kOk) {
          AbortTxnInternal(txn, t, /*notify_api=*/false, code);
          // The failed op itself is answered with the specific code.
          SendToApi(t.api, cost.msg_small, OpReply{txn, op_id, code, {}, {}},
                    span);
          txns_.erase(txn);
          return;
        }
        t.writes.push_back(
            TcTxn::WriteRow{table, std::move(key), part, std::move(chain)});
        SendToApi(t.api, cost.msg_small,
                  OpReply{txn, op_id, Code::kOk, {}, {}}, span);
      });
  TraceCpu(span, "tc.prepared", b);
}

void NdbDatanode::TcLockedReadResult(TxnId txn, uint64_t op_id, Code code,
                                     std::optional<std::string> value,
                                     TableId table, Key key, PartitionId part,
                                     trace::SpanId span) {
  const Booking b = RunTc(
      cluster_.cost().tc_route_op,
      [this, txn, op_id, code, value = std::move(value), table,
       key = std::move(key), part, span]() mutable {
          if (!alive_) return;
          const auto& cost = cluster_.cost();
          auto it = txns_.find(txn);
          if (it == txns_.end() || it->second.aborted) {
            if (code == Code::kOk) {
              // Grant raced with an abort: release the stray lock.
              const NodeId primary = cluster_.layout().PrimaryOf(part);
              if (primary != kNoNode) {
                SendToNode(primary, cost.msg_small,
                           [txn, table, key, part](NdbDatanode& d) {
                             d.LdmAbortRow(txn, table, key, part);
                           });
              }
            }
            return;
          }
          TcTxn& t = it->second;
          Touch(t);
          if (code == Code::kTimedOut) {
            AbortTxnInternal(txn, t, /*notify_api=*/false, code);
            SendToApi(t.api, cost.msg_small,
                      OpReply{txn, op_id, code, {}, {}}, span);
            txns_.erase(txn);
            return;
          }
          if (code == Code::kOk) {
            t.read_locks.push_back(TcTxn::HeldLock{
                table, key, part, cluster_.layout().PrimaryOf(part)});
          }
          const int64_t bytes =
              cost.msg_small +
              (value ? static_cast<int64_t>(value->size()) : 0);
          SendToApi(t.api, bytes,
                    OpReply{txn, op_id, code, std::move(value), {}}, span);
        });
  TraceCpu(span, "tc.read_result", b);
}

void NdbDatanode::TcCommit(TxnId txn, uint64_t op_id, ApiNodeId api,
                           trace::SpanId span) {
  PROF_ZONE("ndb.tc.commit");
  const Booking b = RunTc(cluster_.cost().tc_begin,
                          [this, txn, op_id, api, span] {
    if (!alive_) return;
    const auto& cost = cluster_.cost();
    auto it = txns_.find(txn);
    if (it == txns_.end()) {
      // Nothing known (e.g. freshly aborted): report failure.
      SendToApi(api, cost.msg_small,
                OpReply{txn, op_id, Code::kAborted, {}, {}}, span);
      return;
    }
    TcTxn& t = it->second;
    Touch(t);
    if (t.aborted) {
      SendToApi(api, cost.msg_small,
                OpReply{txn, op_id, Code::kAborted, {}, {}}, span);
      txns_.erase(txn);
      return;
    }
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
      SendToNode(rl.node, cost.msg_small,
                 [txn, table = rl.table, key = rl.key,
                  part = rl.part](NdbDatanode& d) {
                   d.LdmUnlock(txn, table, key, part);
                 });
    }
    t.read_locks.clear();

    if (t.writes.empty()) {
      SendToApi(t.api, cost.msg_small,
                OpReply{txn, op_id, Code::kOk, {}, {}}, span);
      txns_.erase(txn);
      return;
    }

    // Commit phase: traverse each row chain in reverse (backups first,
    // primary last — Fig. 2 messages 5..9).
    t.pending_commits = static_cast<int>(t.writes.size());
    for (const auto& w : t.writes) {
      RunTc(cost.tc_commit_row, [] {});
      CommitChainReq creq;
      creq.txn = txn;
      creq.tc = id_;
      creq.table = w.table;
      creq.key = w.key;
      creq.part = w.part;
      creq.epoch = t.commit_epoch;
      creq.chain = w.chain;
      creq.pos = static_cast<int>(w.chain.size()) - 1;
      creq.span = span;
      const NodeId last = w.chain.back();
      SendToNode(last, cost.msg_small,
                 [creq = std::move(creq)](NdbDatanode& n) mutable {
                   n.LdmCommitChain(std::move(creq));
                 },
                 span);
    }
  });
  TraceCpu(span, "tc.commit", b);
}

void NdbDatanode::TcCommitted(TxnId txn) {
  PROF_ZONE("ndb.tc.committed");
  RunTc(cluster_.cost().tc_commit_row, [this, txn] {
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

void NdbDatanode::StartCompletePhase(TxnId txn, TcTxn& t) {
  PROF_ZONE("ndb.tc.complete_phase");
  const auto& cost = cluster_.cost();
  t.pending_completes = 0;
  for (const auto& w : t.writes) t.pending_completes += static_cast<int>(w.chain.size());
  for (const auto& w : t.writes) {
    RunTc(cost.tc_complete_row, [] {});
    for (size_t i = 0; i < w.chain.size(); ++i) {
      CompleteReq creq;
      creq.txn = txn;
      creq.tc = id_;
      creq.table = w.table;
      creq.key = w.key;
      creq.part = w.part;
      creq.epoch = t.commit_epoch;
      creq.is_primary = i == 0;
      creq.span = t.commit_span;
      SendToNode(w.chain[i], cost.msg_small,
                 [creq = std::move(creq)](NdbDatanode& n) mutable {
                   n.LdmComplete(std::move(creq));
                 },
                 t.commit_span);
    }
  }
  if (t.pending_completes == 0 && t.delay_ack) {
    FinishCommit(txn, t);
    txns_.erase(txn);
  }
}

void NdbDatanode::TcCompleted(TxnId txn) {
  PROF_ZONE("ndb.tc.completed");
  RunTc(cluster_.cost().tc_complete_row, [this, txn] {
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
  SendToApi(t.api, cluster_.cost().msg_small,
            OpReply{txn, t.commit_op_id, Code::kOk, {}, {}}, t.commit_span);
  t.commit_op_id = 0;
  t.commit_span = 0;
}

void NdbDatanode::TcAbort(TxnId txn) {
  RunTc(cluster_.cost().tc_begin, [this, txn] {
    if (!alive_) return;
    auto it = txns_.find(txn);
    if (it == txns_.end()) return;
    AbortTxnInternal(txn, it->second, /*notify_api=*/false, Code::kAborted);
    txns_.erase(txn);
  });
}

void NdbDatanode::AbortTxnInternal(TxnId txn, TcTxn& t, bool notify_api,
                                   Code code) {
  const auto& cost = cluster_.cost();
  t.aborted = true;
  for (const auto& w : t.writes) {
    for (NodeId n : w.chain) {
      SendToNode(n, cost.msg_small,
                 [txn, table = w.table, key = w.key,
                  part = w.part](NdbDatanode& d) {
                   d.LdmAbortRow(txn, table, key, part);
                 });
    }
  }
  for (const auto& rl : t.read_locks) {
    SendToNode(rl.node, cost.msg_small,
               [txn, table = rl.table, key = rl.key,
                part = rl.part](NdbDatanode& d) {
                 d.LdmAbortRow(txn, table, key, part);
               });
  }
  t.writes.clear();
  t.read_locks.clear();
  if (notify_api && t.api >= 0) {
    SendToApi(t.api, cost.msg_small,
              OpReply{txn, t.commit_op_id, code, {}, {}});
  }
}

void NdbDatanode::AbortTxnsInvolving(NodeId failed) {
  std::vector<TxnId> doomed;
  for (auto& [txn, t] : txns_) {
    bool involved = false;
    for (const auto& w : t.writes) {
      for (NodeId n : w.chain) {
        if (n == failed) involved = true;
      }
    }
    for (const auto& rl : t.read_locks) {
      if (rl.node == failed) involved = true;
    }
    if (involved) doomed.push_back(txn);
  }
  for (TxnId txn : doomed) {
    auto it = txns_.find(txn);
    if (it == txns_.end()) continue;
    AbortTxnInternal(txn, it->second, /*notify_api=*/true, Code::kUnavailable);
    txns_.erase(it);
  }
}

std::vector<NdbDatanode::TakeoverRow> NdbDatanode::DrainTxnRowsForTakeover() {
  std::vector<TakeoverRow> rows;
  for (auto& [txn, t] : txns_) {
    for (const auto& w : t.writes) {
      for (NodeId n : w.chain) {
        rows.push_back(TakeoverRow{txn, w.table, w.key, w.part, n,
                                   t.committing, t.commit_epoch});
      }
    }
    for (const auto& rl : t.read_locks) {
      rows.push_back(TakeoverRow{txn, rl.table, rl.key, rl.part, rl.node,
                                 /*commit_forward=*/false, /*epoch=*/0});
    }
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
      cluster_.sim().now() - cluster_.node_config().txn_inactive_timeout;
  std::vector<TxnId> doomed;
  std::vector<TxnId> stalled;
  for (auto& [txn, t] : txns_) {
    if (t.last_activity < cutoff && !t.committing) doomed.push_back(txn);
    if (t.last_activity < cutoff && t.committing && !t.aborted) {
      stalled.push_back(txn);
    }
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
    AbortTxnInternal(txn, it->second, /*notify_api=*/false, Code::kTimedOut);
    txns_.erase(it);
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
        if (v && *v == o.value) {
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
    if (committed_elsewhere) {
      // The coordinator (and its commit-decision epoch) died with the
      // ack; log under the currently open epoch. Orphan roll-forward only
      // fires minutes of sim-time after a TC death, so the cluster
      // recovery cut has long since passed the original epoch anyway.
      LogRedo(gcp_epoch_ + 1, part, o.txn, o.table, o.key,
              store_.Commit(o.table, o.key, o.txn));
    } else {
      store_.Abort(o.table, o.key, o.txn);
    }
    locks_.Release(o.txn, o.table, o.key);
  }
}

void NdbDatanode::RedriveStalledCommit(TxnId txn, TcTxn& t) {
  Touch(t);  // one re-drive per inactivity timeout, not per sweep tick
  ++proto_stats_.commit_redrives;
  const auto& cost = cluster_.cost();
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
      CommitChainReq creq;
      creq.txn = txn;
      creq.tc = id_;
      creq.table = w.table;
      creq.key = w.key;
      creq.part = w.part;
      creq.epoch = t.commit_epoch;
      creq.span = t.commit_span;
      // The primary (chain head) always stays: it is layout-alive or the
      // failure detector's take-over path owns this txn's resolution.
      creq.chain.push_back(w.chain.front());
      for (size_t i = 1; i < w.chain.size(); ++i) {
        if (!gone(w.chain[i])) creq.chain.push_back(w.chain[i]);
      }
      creq.pos = static_cast<int>(creq.chain.size()) - 1;
      const NodeId last = creq.chain.back();
      const trace::SpanId s = creq.span;
      SendToNode(last, cost.msg_small,
                 [creq = std::move(creq)](NdbDatanode& n) mutable {
                   n.LdmCommitChain(std::move(creq));
                 },
                 s);
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
    }
  }
  for (const auto& w : t.writes) {
    for (size_t i = 0; i < w.chain.size(); ++i) {
      if (i > 0 && gone(w.chain[i])) continue;
      CompleteReq creq;
      creq.txn = txn;
      creq.tc = id_;
      creq.table = w.table;
      creq.key = w.key;
      creq.part = w.part;
      creq.epoch = t.commit_epoch;
      creq.is_primary = i == 0;
      creq.span = t.commit_span;
      SendToNode(w.chain[i], cost.msg_small,
                 [creq = std::move(creq)](NdbDatanode& n) mutable {
                   n.LdmComplete(std::move(creq));
                 },
                 t.commit_span);
    }
  }
}

// ---------------------------------------------------------------------------
// LDM role
// ---------------------------------------------------------------------------

void NdbDatanode::LdmCommittedRead(KeyOpReq req, int replica_idx) {
  PROF_ZONE("ndb.ldm.committed_read");
  (void)replica_idx;
  ++proto_stats_.committed_reads;
  const PartitionId part = cluster_.layout().PartitionOf(req.table, req.key);
  const trace::SpanId span = req.span;
  const Booking b =
      RunLdm(part, cluster_.cost().ldm_read, [this, req = std::move(req)] {
        if (!accepting()) return;
        // Streaming catch-up availability: reads this node absorbed for
        // already-resynced partitions while still rejoining.
        if (!alive_) ++catchup_reads_served_;
        const auto value = store_.Read(req.table, req.key, req.txn);
        const int64_t bytes =
            cluster_.cost().msg_small +
            (value ? static_cast<int64_t>(value->size()) : 0);
        SendToApi(req.api, bytes,
                  OpReply{req.txn, req.op_id, Code::kOk, value, {}}, req.span);
      });
  TraceCpu(span, "ldm.read", b);
}

void NdbDatanode::LdmLockedRead(PrepareReq probe) {
  PROF_ZONE("ndb.ldm.locked_read");
  ++proto_stats_.locked_reads;
  // `insert_only` doubles as the exclusive-mode marker for lock probes.
  const LockMode mode =
      probe.insert_only ? LockMode::kExclusive : LockMode::kShared;
  const trace::SpanId op_span = probe.span;
  const Booking b = RunLdm(
      probe.part, cluster_.cost().ldm_read,
      [this, probe = std::move(probe), mode] {
        if (!accepting()) return;
        const trace::SpanId wait = cluster_.tracer().StartSpan(
            probe.span, "lock.wait", trace::Layer::kNdb,
            trace::Cause::kLockWait, host_, az());
        locks_.Acquire(
            probe.txn, probe.table, probe.key, mode,
            [this, probe, wait](Status s) {
              cluster_.tracer().EndSpan(wait);
              std::optional<std::string> value;
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
                  cluster_.cost().msg_small +
                  (value ? static_cast<int64_t>(value->size()) : 0);
              const trace::SpanId s2 = probe.span;
              SendToNode(probe.tc, bytes,
                         [probe, code, value](NdbDatanode& tc) {
                           tc.TcLockedReadResult(probe.txn, probe.op_id, code,
                                                 value, probe.table, probe.key,
                                                 probe.part, probe.span);
                         },
                         s2);
            });
      });
  TraceCpu(op_span, "ldm.read", b);
}

void NdbDatanode::ForwardPrepare(PrepareReq req) {
  const auto& cost = cluster_.cost();
  if (req.pos + 1 < static_cast<int>(req.chain.size())) {
    req.pos += 1;
    const NodeId next = req.chain[req.pos];
    const int64_t bytes =
        cost.msg_write_base + static_cast<int64_t>(req.value.size());
    const trace::SpanId s = req.span;
    SendToNode(next, bytes,
               [req = std::move(req)](NdbDatanode& n) mutable {
                 n.LdmPrepare(std::move(req));
               },
               s);
  } else {
    const trace::SpanId s = req.span;
    SendToNode(req.tc, cost.msg_small,
               [req = std::move(req)](NdbDatanode& tc) {
                 tc.TcPrepared(req.txn, req.op_id, Code::kOk, req.table,
                               req.key, req.part, req.chain, req.span);
               },
               s);
  }
}

void NdbDatanode::LdmPrepare(PrepareReq req) {
  PROF_ZONE("ndb.ldm.prepare");
  if (req.busy_retries == 0) ++proto_stats_.prepares;
  const trace::SpanId op_span = req.busy_retries == 0 ? req.span : 0;
  const Booking b = RunLdm(
      req.part, cluster_.cost().ldm_prepare,
      [this, req = std::move(req)]() mutable {
           if (!accepting()) return;
           if (!cluster_.layout().alive(req.tc)) {
             // The coordinator died while this prepare was in flight.
             // Take-over has already rolled its transactions back, but it
             // can only see rows the TC had recorded — and the TC records
             // a write only once the whole chain has prepared. Rows staged
             // by earlier chain members are therefore invisible to
             // take-over: unwind them here instead of staging one more
             // pending write that nobody will ever commit or abort.
             const auto& cost = cluster_.cost();
             for (int i = 0; i < req.pos; ++i) {
               SendToNode(req.chain[i], cost.msg_small,
                          [txn = req.txn, table = req.table, key = req.key,
                           part = req.part](NdbDatanode& d) {
                            d.LdmAbortRow(txn, table, key, part);
                          });
             }
             return;
           }
           // Redo backpressure: refuse new work while the unflushed
           // journal backlog exceeds the stall limit (saturated or
           // grey-slow log disk). kResourceExhausted aborts the txn and
           // counts against availability, so the AIMD admission layer
           // sheds load until the log disk catches up — bounding journal
           // memory instead of growing it without limit. Commits already
           // past their decision point are never stalled (WAL semantics:
           // backpressure applies at admission, not at apply).
           if (journal_.backlog_bytes() >
               cluster_.node_config().redo_stall_backlog_bytes) {
             const auto& cost = cluster_.cost();
             for (int i = 0; i < req.pos; ++i) {
               SendToNode(req.chain[i], cost.msg_small,
                          [txn = req.txn, table = req.table, key = req.key,
                           part = req.part](NdbDatanode& d) {
                            d.LdmAbortRow(txn, table, key, part);
                          });
             }
             const trace::SpanId sp = req.span;
             SendToNode(req.tc, cost.msg_small,
                        [req](NdbDatanode& tc) {
                          tc.TcPrepared(req.txn, req.op_id,
                                        Code::kResourceExhausted, req.table,
                                        req.key, req.part, req.chain,
                                        req.span);
                        },
                        sp);
             return;
           }
           trace::Tracer& tracer = cluster_.tracer();
           const bool is_primary = req.pos == 0;
           if (!is_primary) {
             // Backups stage the pending write without locking; the
             // primary's lock serialises writers. A backup may still hold
             // the previous transaction's pending write (applied only when
             // its Complete lands): wait for that slot to free — the
             // predecessor's Complete/Abort is already in flight, and
             // coordinator failure frees the slot via take-over.
             if (!store_.Prepare(req.table, req.key, req.type, req.value,
                                 req.txn, req.tc, cluster_.sim().now())) {
               req.busy_retries += 1;
               if (req.busy_retries > 1000) {
                 RLOG_WARN(kLog, "node %d: pending slot on %s never freed",
                           id_, req.key.c_str());
                 const trace::SpanId s = req.span;
                 SendToNode(req.tc, cluster_.cost().msg_small,
                            [req](NdbDatanode& tc) {
                              tc.TcPrepared(req.txn, req.op_id,
                                            Code::kTimedOut, req.table,
                                            req.key, req.part, req.chain,
                                            req.span);
                            },
                            s);
                 return;
               }
               const Nanos now = cluster_.sim().now();
               tracer.AddSpanAt(req.span, "prepare.busy_wait",
                                trace::Layer::kNdb, trace::Cause::kRetry,
                                host_, az(), now, now + 200 * kMicrosecond);
               cluster_.sim().After(200 * kMicrosecond,
                                    [this, req = std::move(req)]() mutable {
                                      // Catch-up backups must keep retrying
                                      // (and eventually NACK) like any other
                                      // backup — dying silently here leaves
                                      // the TC waiting for a reply that
                                      // never comes.
                                      if (accepting()) {
                                        LdmPrepare(std::move(req));
                                      }
                                    });
               return;
             }
             ForwardPrepare(std::move(req));
             return;
           }
           // Copy the lock identity out before moving req into the
           // continuation (argument evaluation order is unspecified).
           const TxnId txn = req.txn;
           const TableId table = req.table;
           const Key key = req.key;
           const trace::SpanId wait =
               tracer.StartSpan(req.span, "lock.wait", trace::Layer::kNdb,
                                trace::Cause::kLockWait, host_, az());
           locks_.Acquire(
               txn, table, key, LockMode::kExclusive,
               [this, req = std::move(req), wait](Status s) mutable {
                 cluster_.tracer().EndSpan(wait);
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
                   const trace::SpanId sp = req.span;
                   SendToNode(req.tc, cluster_.cost().msg_small,
                              [req, code](NdbDatanode& tc) {
                                tc.TcPrepared(req.txn, req.op_id, code,
                                              req.table, req.key, req.part,
                                              req.chain, req.span);
                              },
                              sp);
                   return;
                 }
                 // The row lock serialises writers on a stable primary,
                 // but the primary role itself can move — a failover, or
                 // a catch-up rejoin that re-attached this node after it
                 // staged the row as a backup under the old chain. The
                 // slot may therefore hold another transaction's pending
                 // write; stage under the lock, waiting for that write's
                 // in-flight Complete/Abort (or take-over / the orphan
                 // sweep) to free it.
                 LdmPrimaryStage(std::move(req));
               });
         });
  TraceCpu(op_span, "ldm.prepare", b);
}

// Stages the primary's pending write. Caller holds the row's exclusive
// lock; the lock outlives the retries, so writers stay serialised while
// a previous chain's pending write drains out of the slot.
void NdbDatanode::LdmPrimaryStage(PrepareReq req) {
  PROF_ZONE("ndb.ldm.primary_stage");
  if (store_.Prepare(req.table, req.key, req.type, req.value, req.txn,
                     req.tc, cluster_.sim().now())) {
    ForwardPrepare(std::move(req));
    return;
  }
  req.busy_retries += 1;
  if (req.busy_retries > 1000) {
    RLOG_WARN(kLog, "node %d: primary pending slot on %s never freed", id_,
              req.key.c_str());
    locks_.Release(req.txn, req.table, req.key);
    const trace::SpanId sp = req.span;
    SendToNode(req.tc, cluster_.cost().msg_small,
               [req](NdbDatanode& tc) {
                 tc.TcPrepared(req.txn, req.op_id, Code::kTimedOut, req.table,
                               req.key, req.part, req.chain, req.span);
               },
               sp);
    return;
  }
  const Nanos now = cluster_.sim().now();
  cluster_.tracer().AddSpanAt(req.span, "prepare.busy_wait",
                              trace::Layer::kNdb, trace::Cause::kRetry, host_,
                              az(), now, now + 200 * kMicrosecond);
  cluster_.sim().After(200 * kMicrosecond,
                       [this, req = std::move(req)]() mutable {
                         // A crash clears the lock table and pending rows;
                         // the retry dies with them.
                         if (alive_) LdmPrimaryStage(std::move(req));
                       });
}

void NdbDatanode::LdmCommitChain(CommitChainReq req) {
  PROF_ZONE("ndb.ldm.commit_chain");
  ++proto_stats_.commit_hops;
  const trace::SpanId op_span = req.span;
  const Booking b = RunLdm(
      req.part, cluster_.cost().ldm_commit,
      [this, req = std::move(req)]() mutable {
        if (!accepting()) return;
        const auto& cost = cluster_.cost();
        if (req.pos == 0) {
          // The primary is the commit point: apply, unlock, confirm.
          LogRedo(req.epoch, req.part, req.txn, req.table, req.key,
                  store_.Commit(req.table, req.key, req.txn));
          locks_.Release(req.txn, req.table, req.key);
          SendToNode(req.tc, cost.msg_small,
                     [txn = req.txn](NdbDatanode& tc) {
                       tc.TcCommitted(txn);
                     },
                     req.span);
          return;
        }
        // Backups only pass the Commit along; their pending write is
        // applied at Complete — the window behind the primary-read
        // redirection rule (§II-B2).
        req.pos -= 1;
        const NodeId next = req.chain[req.pos];
        const trace::SpanId s = req.span;
        SendToNode(next, cost.msg_small,
                   [req = std::move(req)](NdbDatanode& n) mutable {
                     n.LdmCommitChain(std::move(req));
                   },
                   s);
      });
  TraceCpu(op_span, "ldm.commit", b);
}

void NdbDatanode::LdmComplete(CompleteReq req) {
  PROF_ZONE("ndb.ldm.complete");
  ++proto_stats_.completes;
  const trace::SpanId op_span = req.span;
  const Booking b = RunLdm(
      req.part, cluster_.cost().ldm_complete,
      [this, req = std::move(req)] {
        if (!accepting()) return;
        if (!req.is_primary) {
          LogRedo(req.epoch, req.part, req.txn, req.table, req.key,
                  store_.Commit(req.table, req.key, req.txn));
        }
        SendToNode(req.tc, cluster_.cost().msg_small,
                   [txn = req.txn](NdbDatanode& tc) {
                     tc.TcCompleted(txn);
                   },
                   req.span);
      });
  TraceCpu(op_span, "ldm.complete", b);
}

void NdbDatanode::LdmAbortRow(TxnId txn, TableId table, Key key,
                              PartitionId part) {
  RunLdm(part, cluster_.cost().ldm_complete,
         [this, txn, table, key = std::move(key)] {
           if (!accepting()) return;
           store_.Abort(table, key, txn);
           locks_.Release(txn, table, key);
         });
}

void NdbDatanode::LdmUnlock(TxnId txn, TableId table, Key key,
                            PartitionId part) {
  RunLdm(part, cluster_.cost().ldm_complete,
         [this, txn, table, key = std::move(key)] {
           if (!accepting()) return;
           locks_.Release(txn, table, key);
         });
}

void NdbDatanode::LdmScanExec(ScanReq req, PartitionId part, int replica_idx) {
  (void)replica_idx;
  ++proto_stats_.scans;
  // Row lookup is done inline; the LDM cost scales with rows returned.
  auto rows = store_.ScanPrefix(req.table, req.prefix, req.txn);
  const auto& cost = cluster_.cost();
  const Nanos work = cost.ldm_scan_base +
                     cost.ldm_scan_row * static_cast<Nanos>(rows.size());
  const trace::SpanId op_span = req.span;
  const Booking b = RunLdm(part, work, [this, req = std::move(req),
                                        rows = std::move(rows)]() mutable {
    if (!accepting()) return;
    int64_t bytes = cluster_.cost().msg_small;
    for (const auto& [k, v] : rows) {
      bytes += static_cast<int64_t>(k.size() + v.size());
    }
    OpReply reply{req.txn, req.op_id, Code::kOk, {}, std::move(rows)};
    SendToApi(req.api, bytes, std::move(reply), req.span);
  });
  TraceCpu(op_span, "ldm.scan", b);
}

}  // namespace repro::ndb
