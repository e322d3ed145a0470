#include "ndb/cluster.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <iterator>
#include <set>

#include "ndb/client.h"
#include "prof/profiler.h"
#include "util/logging.h"

namespace repro::ndb {

namespace {
constexpr const char* kLog = "ndb.cluster";
constexpr int64_t kHeartbeatBytes = 48;
constexpr int64_t kArbBytes = 96;
// Per-node epoch-close bookkeeping on the IO thread. Epoch durability
// itself comes from the flushed redo log covering the epoch, not from a
// marker write.
constexpr Nanos kGcpCloseCpu = 5 * kMicrosecond;
constexpr Nanos kHeartbeatInterval = 50 * kMillisecond;
// A peer silent for four heartbeats is a suspect.
constexpr Nanos kSuspectAfter = 4 * kHeartbeatInterval;
// Node-recovery costs: per-phase protocol setup, and the CPU to re-apply
// one redo record.
constexpr Nanos kRecoverySetup = 20 * kMillisecond;
constexpr Nanos kReplayPerEntry = 2 * kMicrosecond;
// Bounded ring of per-recovery RecoveryStats; long restart-storm soaks
// evict the oldest entries past this.
constexpr size_t kRecoveryLogCap = 512;
// AZ of each management node; the first one whose host is up acts as
// arbitrator (M1 in Fig. 4).
constexpr AzId kMgmtAzs[] = {0, 1, 2};
}  // namespace

bool NdbMgmtNode::HandleArbRequest(NodeId requester,
                                   const std::vector<bool>& reachable,
                                   Nanos now) {
  if (last_grant_ < 0 || now - last_grant_ > kEpisodeWindow) {
    // New episode: the first claimant's view wins.
    granted_view_ = reachable;
    last_grant_ = now;
    decision_log_.push_back(
        ArbDecision{now, requester, true, true, granted_view_});
    return true;
  }
  const bool in_view = requester >= 0 &&
                       requester < static_cast<NodeId>(granted_view_.size()) &&
                       granted_view_[requester];
  if (in_view) last_grant_ = now;
  decision_log_.push_back(
      ArbDecision{now, requester, in_view, false, granted_view_});
  return in_view;
}

NdbCluster::NdbCluster(Simulation& sim, Network& network,
                       const Catalog* catalog, NdbClusterConfig config)
    : sim_(sim), network_(network), catalog_(catalog),
      config_(std::move(config)), layout_(config_.layout, catalog) {
  auto& topo = network_.topology();
  const int n = config_.layout.num_datanodes;
  datanodes_.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    const HostId host =
        topo.AddHost(config_.layout.node_az[i], StrFormat("ndb-dn-%d", i));
    datanodes_.push_back(std::make_unique<NdbDatanode>(*this, i, host));
  }
  for (size_t m = 0; m < std::size(kMgmtAzs); ++m) {
    const HostId host = topo.AddHost(kMgmtAzs[m],
                                     StrFormat("ndb-mgmt-%zu", m));
    mgmt_.push_back(std::make_unique<NdbMgmtNode>(static_cast<int>(m), host));
  }
  last_heard_.assign(n, std::vector<Nanos>(n, 0));
  arbitration_in_flight_.assign(n, false);
  replica_reads_.assign(layout_.num_partitions(),
                        std::vector<int64_t>(n, 0));
}

trace::Tracer& NdbCluster::tracer() { return sim_.tracer(); }

ApiNodeId NdbCluster::RegisterApi(NdbApiNode* api) {
  apis_.push_back(api);
  return static_cast<ApiNodeId>(apis_.size()) - 1;
}

void NdbCluster::StartProtocols() {
  assert(!protocols_started_);
  protocols_started_ = true;
  const auto& nc = config_.node;
  const Nanos start = sim_.now();
  for (auto& row : last_heard_) row.assign(row.size(), start);

  for (NodeId i = 0; i < num_datanodes(); ++i) {
    timers_.push_back(
        sim_.Every(kHeartbeatInterval, [this, i] { HeartbeatTick(i); }));
    timers_.push_back(sim_.Every(nc.redo_flush_interval, [this, i] {
      datanodes_[i]->FlushRedo();
    }));
    timers_.push_back(sim_.Every(500 * kMillisecond, [this, i] {
      // Catch-up backups sweep too: they hold pending slots for live chain
      // traffic, and an orphaned slot there (Complete/Abort lost to a
      // partition, coordinator long gone) would otherwise block the row
      // until the node fully revives.
      if (datanodes_[i]->alive() || datanodes_[i]->catchup_accepting()) {
        datanodes_[i]->SweepInactiveTxns();
      }
    }));
    // Local checkpoints: fold the durable log prefix into the base image
    // and truncate the journal (bounds its memory; sets replay cost).
    timers_.push_back(sim_.Every(nc.lcp_interval, [this, i] {
      datanodes_[i]->StartLocalCheckpoint(DurableGcpEpoch());
    }));
  }
  // Global checkpoint: advance the epoch on every node, then close older
  // epochs once their commits have finished (transaction-atomic epochs:
  // a transaction's commit epoch is fixed at its commit decision, so the
  // boundary of epoch E may only be recorded after every transaction
  // with commit epoch <= E has finished its commit chains — otherwise a
  // straggling chain hop would straddle the boundary). An epoch becomes
  // durable on a node once the flushed redo log covers its boundary;
  // cluster-wide durability (DurableGcpEpoch) is the minimum over nodes.
  timers_.push_back(sim_.Every(nc.gcp_interval, [this] {
    if (!cluster_up_) return;
    ++gcp_epoch_;
    for (auto& dn : datanodes_) {
      if (dn->alive()) dn->set_gcp_epoch(gcp_epoch_);
    }
    TryCloseEpochs();
  }));
}

void NdbCluster::TryCloseEpochs() {
  PROF_ZONE("ndb.gcp.close_epochs");
  if (!cluster_up_) return;
  while (closed_epoch_ < gcp_epoch_) {
    const int64_t e = closed_epoch_ + 1;
    bool busy = false;
    for (auto& dn : datanodes_) {
      if (dn->alive() && dn->HasCommittingTxnAtOrBelow(e)) {
        busy = true;
        break;
      }
    }
    if (busy) {
      // Commits of this epoch are still draining their chains; poll until
      // they finish. A wedged commit cannot stall closes forever: node
      // failure aborts its transactions, and the inactivity sweep reaps
      // the rest.
      if (!close_retry_pending_) {
        close_retry_pending_ = true;
        sim_.After(1 * kMillisecond, [this] {
          close_retry_pending_ = false;
          TryCloseEpochs();
        });
      }
      return;
    }
    for (auto& dn : datanodes_) {
      if (!dn->alive()) continue;
      dn->CloseGcpEpoch(e);
      dn->RunIo(kGcpCloseCpu, nullptr);
    }
    closed_epoch_ = e;
  }
}

int64_t NdbCluster::DurableGcpEpoch() const {
  int64_t epoch = INT64_MAX;
  bool any = false;
  for (NodeId n = 0; n < static_cast<NodeId>(datanodes_.size()); ++n) {
    if (!layout_.alive(n)) continue;
    any = true;
    epoch = std::min(epoch, datanodes_[n]->durable_gcp_epoch());
  }
  return any ? epoch : 0;
}

void NdbCluster::HeartbeatTick(NodeId i) {
  PROF_ZONE("ndb.heartbeat.tick");
  if (!cluster_up_) return;
  NdbDatanode& self = *datanodes_[i];
  if (!self.alive()) return;

  for (NodeId j = 0; j < num_datanodes(); ++j) {
    if (j == i || !layout_.alive(j)) continue;
    transport_.Send(transport_.New(std::monostate{}), SignalKind::kHeartbeat,
                    i, j, kHeartbeatBytes);
  }

  // Failure detection: peers silent for too long are suspects.
  const Nanos deadline = sim_.now() - kSuspectAfter;
  bool any_suspect = false;
  for (NodeId j = 0; j < num_datanodes(); ++j) {
    if (j == i || !layout_.alive(j)) continue;
    if (last_heard_[i][j] < deadline) any_suspect = true;
  }
  if (any_suspect && !arbitration_in_flight_[i]) RequestArbitration(i);
}

int NdbCluster::CurrentArbitratorIndex() const {
  for (size_t m = 0; m < mgmt_.size(); ++m) {
    if (network_.topology().HostUp(mgmt_[m]->host())) {
      return static_cast<int>(m);
    }
  }
  return -1;
}

void NdbCluster::RequestArbitration(NodeId requester) {
  NdbDatanode& self = *datanodes_[requester];
  if (!self.alive()) return;
  const int arb = CurrentArbitratorIndex();
  if (arb < 0) {
    // No arbitrator anywhere: assume we are partitioned and shut down
    // gracefully (§IV-A2).
    RLOG_WARN(kLog, "node %d: no arbitrator available, shutting down",
              requester);
    DeclareNodeFailed(requester);
    return;
  }
  arbitration_in_flight_[requester] = true;

  const Nanos deadline = sim_.now() - kSuspectAfter;
  std::vector<bool> reachable(num_datanodes(), false);
  std::vector<NodeId> suspects;
  reachable[requester] = true;
  for (NodeId j = 0; j < num_datanodes(); ++j) {
    if (j == requester || !layout_.alive(j)) continue;
    if (last_heard_[requester][j] >= deadline) {
      reachable[j] = true;
    } else {
      suspects.push_back(j);
    }
  }

  // The reply carries this request's timer back and cancels it; a late
  // reply to an earlier request names that request's spent timer, which
  // Cancel ignores.
  const Simulation::Timer timeout =
      sim_.After(kArbitrationTimeout, [this, requester] {
    arbitration_in_flight_[requester] = false;
    if (!datanodes_[requester]->alive()) return;
    RLOG_INFO(kLog, "node %d cannot reach arbitrator, shutting down",
              requester);
    DeclareNodeFailed(requester);
  });
  transport_.Send(
      transport_.New(ArbRequest{std::move(reachable), std::move(suspects),
                                timeout}),
      SignalKind::kArbRequest, requester, arb, kArbBytes);
}

void NdbCluster::OnArbRequest(SignalRef sig) {
  const NodeId requester = sig->src;
  const int arb = sig->dst;
  ArbRequest& req = sig->as<ArbRequest>();
  const bool grant =
      mgmt_[arb]->HandleArbRequest(requester, req.reachable, sim_.now());
  sig->msg = ArbReply{grant, std::move(req.suspects), req.timeout};
  transport_.Send(std::move(sig), SignalKind::kArbReply, arb, requester,
                  kArbBytes);
}

void NdbCluster::OnArbReply(Signal& sig) {
  const NodeId requester = sig.dst;
  const ArbReply& reply = sig.as<ArbReply>();
  sim_.Cancel(reply.timeout);
  arbitration_in_flight_[requester] = false;
  if (!reply.grant) {
    RLOG_INFO(kLog, "node %d lost arbitration", requester);
    DeclareNodeFailed(requester);
    return;
  }
  for (NodeId s : reply.suspects) DeclareNodeFailed(s);
}

void NdbCluster::DeclareNodeFailed(NodeId n) {
  if (!layout_.alive(n)) return;
  RLOG_INFO(kLog, "declaring datanode %d failed", n);

  // Take-over (§II-B2): surviving replicas of transactions coordinated by
  // the failed node resolve them. Transactions that had reached their
  // commit point roll forward (the primary may already have applied);
  // everything else is aborted, releasing locks and pending rows.
  auto rows = datanodes_[n]->DrainTxnRowsForTakeover();
  layout_.set_alive(n, false);
  datanodes_[n]->Shutdown();
  for (const auto& r : rows) {
    if (r.node == n || !layout_.alive(r.node)) continue;
    datanodes_[r.node]->ResolveTakenOverRow(r);
  }

  // Surviving coordinators abort transactions touching the failed node.
  for (auto& dn : datanodes_) {
    if (dn->alive()) dn->AbortTxnsInvolving(n);
  }

  if (!layout_.Viable()) {
    RLOG_ERROR(kLog, "node group lost all replicas; cluster down");
    ShutdownCluster();
  }
}

void NdbCluster::CrashDatanode(NodeId n) {
  network_.topology().SetHostUp(datanodes_[n]->host(), false);
  datanodes_[n]->Shutdown();
  layout_.ClearCatchup(n);
}

// One node restart in flight: everything its steps need. Each step's
// continuation captures {this, run}.
struct NdbCluster::RecoveryRun {
  NodeId node = kNoNode;
  size_t slot = 0;           // recovery_log_ slot (see RecoverySlot)
  uint64_t gen = 0;          // the node's recovery generation at start
  NodeId source = kNoNode;   // the resync's node-group peer
  PartitionId next = 0;      // the partition the resync streams next
  Nanos since = 0;           // start of the current timed phase
  RedoJournal::ReplayPlan plan;
  std::function<void()> done;
};

NdbCluster::RecoveryStats* NdbCluster::RecoverySlot(size_t slot) {
  if (slot < recovery_log_base_) return nullptr;  // evicted by the cap
  return &recovery_log_[slot - recovery_log_base_];
}

bool NdbCluster::RecoveryLive(const RunPtr& run, const char* reason) {
  const NdbDatanode& node = *datanodes_[run->node];
  if (cluster_up_ && node.recovery_generation() == run->gen &&
      node.recovering()) {
    return true;
  }
  AbandonRecovery(*run, reason);
  return false;
}

bool NdbCluster::SourceLive(const RunPtr& run) {
  if (layout_.alive(run->source) && datanodes_[run->source]->alive()) {
    return true;
  }
  // The source died mid-stream: retry the resync phase with a fresh
  // source. Partitions already fenced stay valid — live writes kept
  // flowing to them through the catch-up chain — so their deltas
  // re-check as (near) empty on the retry pass.
  RLOG_WARN(kLog, "restart of node %d: source %d died mid-copy, "
                  "retrying with another peer", run->node, run->source);
  if (RecoveryStats* rec = RecoverySlot(run->slot)) rec->attempts += 1;
  RecoveryResync(run);
  return false;
}

void NdbCluster::AbandonRecovery(const RecoveryRun& run, const char* reason) {
  datanodes_[run.node]->SetCatchupAccepting(false);
  layout_.ClearCatchup(run.node);
  if (RecoveryStats* rec = RecoverySlot(run.slot)) {
    rec->aborted = true;
    rec->abort_reason = reason;
    tracer().EndTrace(rec->trace_root);
  }
  RLOG_WARN(kLog, "recovery of node %d abandoned: %s", run.node, reason);
  if (run.done) run.done();
}

void NdbCluster::RestartDatanode(NodeId n, std::function<void()> done) {
  PROF_ZONE("ndb.recovery.restart");
  // Guard on the process state, not the failure detector's view: a node
  // can restart before its crash was ever detected (layout_.alive may
  // still read true for a dead process).
  if (datanodes_[n]->alive()) {
    RLOG_WARN(kLog, "restart of node %d ignored: node is alive", n);
    if (done) done();
    return;
  }
  NdbDatanode& node = *datanodes_[n];
  if (node.recovering()) {
    RLOG_INFO(kLog, "restart of node %d ignored: recovery in progress "
                    "(phase %d)", n, static_cast<int>(node.recovery_phase()));
    if (done) done();
    return;
  }
  network_.topology().SetHostUp(node.host(), true);
  node.BeginRecovery();
  auto run = std::make_shared<RecoveryRun>();
  run->node = n;
  run->gen = node.recovery_generation();
  run->done = std::move(done);

  // Phase 1 — replay: what this node's own disk attests. The durability
  // invariant in one line: replay covers exactly checkpoint image +
  // flushed log; anything else must come from a live replica.
  run->plan = node.journal().PlanReplay(INT64_MAX);
  const RedoJournal::ReplayPlan& plan = run->plan;
  RecoveryStats rec;
  rec.node = n;
  rec.started = sim_.now();
  rec.replay_entries = plan.entries;
  rec.replay_log_bytes = plan.log_bytes;
  rec.replay_image_bytes = plan.image_bytes;
  rec.trace_root = tracer().StartTrace("ndb.recovery", trace::Layer::kNdb,
                                       node.host(), layout_.az_of(n));
  recovery_log_.push_back(std::move(rec));
  if (recovery_log_.size() > kRecoveryLogCap) {
    recovery_log_.pop_front();
    ++recovery_log_base_;
    ++recoveries_dropped_;
  }
  run->slot = recovery_log_base_ + recovery_log_.size() - 1;
  RLOG_INFO(kLog, "restarting node %d: replaying %lld entries (%lld log + "
                  "%lld image bytes) since last LCP",
            n, static_cast<long long>(plan.entries),
            static_cast<long long>(plan.log_bytes),
            static_cast<long long>(plan.image_bytes));

  // The checkpoint image and the redo tail live on different disks: the
  // image read and the log read queue independently.
  run->since = sim_.now();
  node.disk().Read(plan.image_bytes, [this, run] {
    if (!RecoveryLive(run, "node lost during image read")) return;
    datanodes_[run->node]->log_disk().Read(run->plan.log_bytes, [this, run] {
      if (!RecoveryLive(run, "node lost during log read")) return;
      if (RecoveryStats* rec = RecoverySlot(run->slot)) {
        tracer().AddSpanAt(rec->trace_root, "recovery.replay.read",
                           trace::Layer::kNdb, trace::Cause::kDisk,
                           datanodes_[run->node]->host(),
                           layout_.az_of(run->node), run->since, sim_.now());
      }
      const Nanos apply_cpu =
          kRecoverySetup + run->plan.entries * kReplayPerEntry;
      run->since = sim_.now();
      sim_.After(apply_cpu, [this, run] {
        if (!RecoveryLive(run, "node lost during replay")) return;
        NdbDatanode& node = *datanodes_[run->node];
        const NdbDatanode::ReplayResult res =
            node.ReplayFromJournal(INT64_MAX);
        if (RecoveryStats* rec = RecoverySlot(run->slot)) {
          rec->replay_digest = res.digest;
          rec->replay_deterministic = res.deterministic;
          rec->replay_covered = res.covered;
          rec->replay_done = sim_.now();
          tracer().AddSpanAt(rec->trace_root, "recovery.replay.apply",
                             trace::Layer::kNdb, trace::Cause::kCpu,
                             node.host(), layout_.az_of(run->node),
                             run->since, sim_.now());
        }
        node.SetRecoveryPhase(NdbDatanode::RecoveryPhase::kResyncing);
        RecoveryResync(run);
      });
    });
  });
}

// Phase 2 — streaming resync: copy the delta (rows written or deleted
// while the node was down, plus anything its log lost) from a live
// node-group peer one partition at a time. Each partition is fenced
// quiescent, adopted, and opened for catch-up reads immediately — the
// node serves already-resynced partitions while the rest still stream.
void NdbCluster::RecoveryResync(const RunPtr& run) {
  if (!RecoveryLive(run, "node lost before resync")) return;
  const NodeId n = run->node;
  const int group = layout_.group_of(n);
  run->source = kNoNode;
  for (NodeId peer = 0; peer < num_datanodes(); ++peer) {
    if (peer != n && layout_.group_of(peer) == group &&
        layout_.alive(peer) && datanodes_[peer]->alive()) {
      run->source = peer;
      break;
    }
  }
  if (run->source == kNoNode) {
    RLOG_ERROR(kLog, "restart of node %d: whole node group lost, cannot "
                     "recover from peers", n);
    datanodes_[n]->SetRecoveryPhase(NdbDatanode::RecoveryPhase::kDown);
    AbandonRecovery(*run, "whole node group lost");
    return;
  }
  RLOG_INFO(kLog, "resyncing node %d from node %d (streaming, %d partitions)",
            n, run->source, layout_.num_partitions());
  run->next = 0;
  sim_.After(kRecoverySetup, [this, run] { StreamNextPartition(run); });
}

void NdbCluster::StreamNextPartition(const RunPtr& run) {
  PROF_ZONE("ndb.recovery.stream_partition");
  if (!RecoveryLive(run, "node lost during resync") || !SourceLive(run)) {
    return;
  }
  // Skip partitions this node holds no rows of.
  const NodeId n = run->node;
  const auto holds_rows = [&](PartitionId p) {
    for (TableId t = 0; t < catalog_->num_tables(); ++t) {
      if (layout_.Holds(n, t, p)) return true;
    }
    return false;
  };
  while (run->next < layout_.num_partitions() && !holds_rows(run->next)) {
    ++run->next;
  }
  if (run->next >= layout_.num_partitions()) {
    FinishRecovery(run);
    return;
  }
  const ResyncDelta estimate =
      ComputeResync(n, run->source, /*apply=*/false, run->next);
  const Nanos xfer_time =
      static_cast<Nanos>(static_cast<double>(estimate.bytes) /
                         network_.config().nic_bytes_per_sec * 1e9);
  sim_.After(xfer_time, [this, run] { AdoptQuiescedPartition(run); });
}

// Fence: wait until no in-flight transaction touches the partition, then
// adopt its delta and open it for reads atomically.
void NdbCluster::AdoptQuiescedPartition(const RunPtr& run) {
  if (!RecoveryLive(run, "node lost during resync") || !SourceLive(run)) {
    return;
  }
  const NodeId n = run->node;
  const PartitionId part = run->next;
  for (NodeId peer = 0; peer < num_datanodes(); ++peer) {
    if (layout_.alive(peer) &&
        datanodes_[peer]->HasTxnTouchingPartition(part)) {
      sim_.After(10 * kMillisecond,
                 [this, run] { AdoptQuiescedPartition(run); });
      return;
    }
  }
  // Quiesced: adopt the delta and serve the partition immediately. From
  // here on, write chains include this node as a catch-up backup, so the
  // partition stays current while the rest stream.
  const ResyncDelta applied = ComputeResync(n, run->source, /*apply=*/true,
                                            part);
  if (RecoveryStats* rec = RecoverySlot(run->slot)) {
    rec->resync_rows += applied.rows;
    rec->resync_bytes += applied.bytes;
    rec->resync_deletes += applied.deletes;
    rec->streamed_parts += 1;
  }
  layout_.SetCatchupReady(n, part);
  datanodes_[n]->SetCatchupAccepting(true);
  ++run->next;
  StreamNextPartition(run);
}

// Phase 3 — rebuild the journal from the source's (epoch-filtered
// adoption), write the rejoin checkpoint (image to the data disk, log
// tail to the log disk) and rejoin. Runs right after the stream's last
// source check.
void NdbCluster::FinishRecovery(const RunPtr& run) {
  const NodeId n = run->node;
  NdbDatanode& node = *datanodes_[n];
  if (RecoveryStats* rec = RecoverySlot(run->slot)) {
    const Nanos resync_start =
        rec->replay_done >= 0 ? rec->replay_done : rec->started;
    tracer().AddSpanAt(
        rec->trace_root, "recovery.resync", trace::Layer::kNdb,
        trace::NetCause(layout_.az_of(run->source), layout_.az_of(n)),
        node.host(), layout_.az_of(n), resync_start, sim_.now(),
        layout_.az_of(n));
  }
  // Epoch-filtered adoption: the base image of the rebuilt journal holds
  // only rows at or below the cluster-durable epoch; everything newer
  // rides along as ordinary log records. A whole-cluster recovery
  // immediately after this rejoin therefore cuts at the durable epoch
  // exactly — the adopted checkpoint cannot smuggle post-durable commits
  // back in. See DESIGN §12.
  const NdbDatanode::AdoptResult adopted = node.AdoptJournalFrom(
      *datanodes_[run->source], DurableGcpEpoch(), closed_epoch_, sim_.now());
  node.set_gcp_epoch(gcp_epoch_);
  run->since = sim_.now();
  node.disk().Write(adopted.image_bytes, [this, run,
                                          tail = adopted.tail_bytes] {
    if (!RecoveryLive(run, "node lost during rejoin checkpoint")) return;
    datanodes_[run->node]->log_disk().Write(
        tail + kRedoFlushOverheadBytes, [this, run] {
          if (!RecoveryLive(run, "node lost during rejoin checkpoint")) {
            return;
          }
          const NodeId n = run->node;
          NdbDatanode& node = *datanodes_[n];
          RecoveryStats* rec = RecoverySlot(run->slot);
          if (rec != nullptr) {
            tracer().AddSpanAt(rec->trace_root, "recovery.checkpoint",
                               trace::Layer::kNdb, trace::Cause::kDisk,
                               node.host(), layout_.az_of(n), run->since,
                               sim_.now());
            rec->catchup_reads = node.catchup_reads_served();
          }
          Rejoin(n);
          if (rec != nullptr) {
            rec->serving_at = sim_.now();
            tracer().EndTrace(rec->trace_root);
            RLOG_INFO(kLog, "node %d serving again after %.3f s (replayed "
                            "%lld, resynced %lld bytes, %d partitions "
                            "streamed, %lld catch-up reads)",
                      n, (rec->serving_at - rec->started) / 1e9,
                      static_cast<long long>(rec->replay_entries),
                      static_cast<long long>(rec->resync_bytes),
                      rec->streamed_parts,
                      static_cast<long long>(rec->catchup_reads));
          }
          if (run->done) run->done();
        });
  });
}

NdbCluster::ResyncDelta NdbCluster::ComputeResync(NodeId n, NodeId source,
                                                  bool apply,
                                                  PartitionId part) {
  ResyncDelta delta;
  NdbDatanode& node = *datanodes_[n];
  NdbDatanode& peer = *datanodes_[source];
  for (TableId t = 0; t < catalog_->num_tables(); ++t) {
    std::vector<std::pair<Key, RowImage>> puts;
    std::vector<Key> dels;
    // Rows the peer holds for n's partitions that n lacks or holds stale.
    peer.store().ForEachCommitted(t, [&](const Key& key,
                                         const RowImage& value) {
      const PartitionId p = layout_.PartitionOf(t, key);
      if ((part >= 0 && p != part) || !layout_.Holds(n, t, p)) return;
      if (node.store().Read(t, key, 0) != value) {
        delta.rows += 1;
        delta.bytes += static_cast<int64_t>(key.size()) +
                       static_cast<int64_t>(value.size());
        if (apply) puts.emplace_back(key, value);
      }
    });
    // Rows n replayed that the cluster has since deleted.
    node.store().ForEachCommitted(t, [&](const Key& key, const RowImage&) {
      if (part >= 0 && layout_.PartitionOf(t, key) != part) return;
      if (!peer.store().ExistsCommitted(t, key)) {
        delta.deletes += 1;
        delta.bytes += static_cast<int64_t>(key.size()) + 16;
        if (apply) dels.push_back(key);
      }
    });
    if (apply) {
      for (auto& [key, value] : puts) {
        node.store().BootstrapPut(t, key, std::move(value));
      }
      for (const Key& key : dels) node.store().BootstrapDelete(t, key);
    }
  }
  return delta;
}

void NdbCluster::Rejoin(NodeId n) {
  datanodes_[n]->Revive();
  layout_.set_alive(n, true);
  // Reset failure-detector state so peers do not instantly re-suspect.
  const Nanos now = sim_.now();
  for (NodeId i = 0; i < num_datanodes(); ++i) {
    last_heard_[i][n] = now;
    last_heard_[n][i] = now;
  }
}

void NdbCluster::ShutdownCluster() {
  cluster_up_ = false;
  for (auto& dn : datanodes_) dn->Shutdown();
}

void NdbCluster::RecordReplicaRead(PartitionId part, int replica_idx) {
  if (replica_idx < 0) return;
  auto& row = replica_reads_[part];
  if (replica_idx >= static_cast<int>(row.size())) return;
  row[replica_idx] += 1;
}

void NdbCluster::ResetStats() {
  for (auto& row : replica_reads_) row.assign(row.size(), 0);
  for (auto& dn : datanodes_) dn->ResetStats();
}

void NdbCluster::BootstrapPut(TableId table, const Key& key,
                              const RowImage& value) {
  const PartitionId part = layout_.PartitionOf(table, key);
  for (NodeId n : layout_.ReplicaChain(table, part)) {
    datanodes_[n]->store().BootstrapPut(table, key, value);
    datanodes_[n]->LogBootstrap(table, key, value);
  }
}

NdbCluster::ClusterRecoveryReport NdbCluster::RecoverFromCheckpoint() {
  ClusterRecoveryReport report;
  // The recovery epoch: the newest epoch whose redo log is flushed on
  // EVERY node — except that a completed local checkpoint is itself
  // durable, so a node whose LCP already covers a newer epoch raises
  // the floor (its pre-LCP log segments are truncated).
  int64_t min_durable = INT64_MAX;
  int64_t max_base = 0;
  for (auto& dn : datanodes_) {
    min_durable = std::min(min_durable, dn->durable_gcp_epoch());
    // A base image may contain folded records newer than base_epoch
    // (partial-LCP rounds fold per partition); the cut must cover the
    // newest epoch any base fragment could hold.
    max_base = std::max({max_base, dn->journal().base_epoch(),
                         dn->journal().max_folded_epoch()});
  }
  report.epoch = std::max(min_durable, max_base);
  // Tally what the cut drops — acknowledged commits newer than the cut
  // (or appended but never flushed). Distinct transactions are counted
  // once even when several replicas logged them.
  std::set<TxnId> dropped;
  Nanos oldest_drop = -1;
  for (auto& dn : datanodes_) {
    const RedoJournal::LossReport loss =
        dn->journal().LossBeyond(report.epoch);
    report.dropped_entries += loss.entries;
    for (TxnId t : loss.txns) dropped.insert(t);
    if (loss.oldest_append >= 0 &&
        (oldest_drop < 0 || loss.oldest_append < oldest_drop)) {
      oldest_drop = loss.oldest_append;
    }
  }
  report.dropped_commits = static_cast<int64_t>(dropped.size());
  report.dropped_txns.assign(dropped.begin(), dropped.end());
  report.loss_window = oldest_drop >= 0 ? sim_.now() - oldest_drop : 0;
  RLOG_INFO(kLog, "cluster recovery from GCP epoch %lld: dropping %lld "
                  "post-cut commits (loss window %.3f s)",
            static_cast<long long>(report.epoch),
            static_cast<long long>(report.dropped_commits),
            report.loss_window / 1e9);

  for (NodeId n = 0; n < num_datanodes(); ++n) {
    NdbDatanode& dn = *datanodes_[n];
    network_.topology().SetHostUp(dn.host(), true);
    dn.Shutdown();
    const NdbDatanode::ReplayResult res = dn.ReplayFromJournal(report.epoch);
    report.replayed_entries += res.entries;
    report.replay_deterministic =
        report.replay_deterministic && res.deterministic;
    // The surviving image becomes the node's restart checkpoint; the
    // dropped log tail is gone for good.
    dn.CheckpointAdoptedImage(report.epoch);
    dn.set_gcp_epoch(gcp_epoch_);
    Rejoin(n);
  }
  // Every journal restarts from a fresh base at report.epoch; epochs at
  // or below the current GCP tick hold no records anywhere, so they are
  // closed by construction.
  closed_epoch_ = std::max(closed_epoch_, gcp_epoch_);
  cluster_up_ = true;
  return report;
}

NdbCluster::ThreadUtilization NdbCluster::AverageThreadUtilization(
    Nanos window_start) const {
  ThreadUtilization u{};
  int alive = 0;
  for (const auto& dn : datanodes_) {
    if (!dn->alive()) continue;
    ++alive;
    u.ldm += dn->ldm_pool().Utilization(window_start);
    u.tc += dn->tc_pool().Utilization(window_start);
    u.recv += dn->recv_pool().Utilization(window_start);
    u.send += dn->send_pool().Utilization(window_start);
    u.rep += dn->rep_pool().Utilization(window_start);
    u.io += dn->io_pool().Utilization(window_start);
    u.main += dn->main_pool().Utilization(window_start);
  }
  if (alive > 0) {
    const double d = alive;
    u.ldm /= d;
    u.tc /= d;
    u.recv /= d;
    u.send /= d;
    u.rep /= d;
    u.io /= d;
    u.main /= d;
  }
  return u;
}

}  // namespace repro::ndb
