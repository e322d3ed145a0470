// NDB cluster: datanodes, management nodes, arbitration, failure handling.
//
// The cluster wires the datanodes to the simulated network, runs the
// heartbeat failure detector, global checkpoints, and the arbitrator
// protocol that resolves AZ partitions (§IV-A2): on suspicion a datanode
// asks the current arbitrator (a management node) to bless the set of
// nodes it can still reach; the first viable claim of an episode wins and
// every node outside the blessed view — or unable to reach the arbitrator
// — shuts itself down.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "ndb/config.h"
#include "ndb/datanode.h"
#include "ndb/layout.h"
#include "ndb/schema.h"
#include "ndb/transport.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace repro::ndb {

class NdbApiNode;

struct NdbClusterConfig {
  LayoutConfig layout;
  NdbNodeConfig node;
  FeatureFlags flags;
  // AZ of each management node; the first one whose host is up acts as
  // arbitrator (M1 in Fig. 4).
  std::vector<AzId> mgmt_az = {0, 1, 2};
};

class NdbMgmtNode {
 public:
  NdbMgmtNode(int id, HostId host) : id_(id), host_(host) {}

  int id() const { return id_; }
  HostId host() const { return host_; }

  // Arbitration: returns true (grant) if the requester's reachable set is
  // the episode winner or the requester belongs to the winning view.
  bool HandleArbRequest(NodeId requester, const std::vector<bool>& reachable,
                        Nanos now);

  // Audit log of every arbitration decision, consumed by the chaos
  // harness's split-brain invariant: within one episode every grant must
  // go to a member of the episode's single blessed view.
  struct ArbDecision {
    Nanos time;
    NodeId requester;
    bool granted;
    bool new_episode;           // this decision blessed a fresh view
    std::vector<bool> view;     // the view in force after the decision
  };
  const std::vector<ArbDecision>& decision_log() const {
    return decision_log_;
  }

  static constexpr Nanos kEpisodeWindow = 1 * kSecond;

 private:
  int id_;
  HostId host_;
  std::vector<bool> granted_view_;
  Nanos last_grant_ = -1;
  std::vector<ArbDecision> decision_log_;
};

class NdbCluster {
 public:
  // `catalog` must outlive the cluster. Hosts for datanodes and mgmt
  // nodes are created inside `topology`.
  NdbCluster(Simulation& sim, Network& network, const Catalog* catalog,
             NdbClusterConfig config);

  NdbCluster(const NdbCluster&) = delete;
  NdbCluster& operator=(const NdbCluster&) = delete;

  // Starts heartbeats, checkpointing and timeout sweeps.
  void StartProtocols();

  Simulation& sim() { return sim_; }
  // The deployment-wide tracer (owned by the simulation).
  trace::Tracer& tracer();
  Network& network() { return network_; }
  // Carries every signal between datanodes, API nodes and the
  // arbitrator (ndb/transport.h).
  Transport& transport() { return transport_; }
  const Catalog& catalog() const { return *catalog_; }
  ClusterLayout& layout() { return layout_; }
  const NdbClusterConfig& config() const { return config_; }
  const NdbNodeConfig& node_config() const { return config_.node; }
  const FeatureFlags& flags() const { return config_.flags; }

  NdbDatanode& datanode(NodeId n) { return *datanodes_[n]; }
  int num_datanodes() const { return static_cast<int>(datanodes_.size()); }
  NdbMgmtNode& mgmt(int i) { return *mgmt_[i]; }
  int num_mgmt() const { return static_cast<int>(mgmt_.size()); }

  bool cluster_up() const { return cluster_up_; }

  TxnId NextTxnId() { return ++txn_counter_; }

  ApiNodeId RegisterApi(NdbApiNode* api);
  NdbApiNode* api(ApiNodeId id) { return apis_[id]; }
  // Nulls the slot (ids are append-only, never reused), so anything that
  // re-resolves a destroyed API node by id gets nullptr — the fence that
  // keeps late replies and op timers from touching freed memory.
  void UnregisterApi(ApiNodeId id) {
    if (id >= 0 && id < static_cast<ApiNodeId>(apis_.size())) {
      apis_[id] = nullptr;
    }
  }

  // ---- failure handling ----
  // Lowest-id management node on an up host (the acting arbitrator).
  int CurrentArbitratorIndex() const;
  // Declares a datanode dead: promotes backups (via layout aliveness),
  // aborts transactions touching it, shuts the cluster down if a whole
  // node group is gone.
  void DeclareNodeFailed(NodeId n);
  // Crash helpers used by tests/benchmarks.
  void CrashDatanode(NodeId n);
  void ShutdownCluster();

  // Node recovery: brings a failed datanode back through a timed state
  // machine (down -> replaying -> resyncing -> serving). Replay reads
  // the node's checkpoint image + durable redo log from its disk and
  // re-applies entries (cost proportional to bytes + entries since the
  // last LCP); resync copies only the delta from a live node-group peer
  // over the NIC; the node then completes a checkpoint of the adopted
  // image and rejoins. `done` fires once the node serves again (or the
  // recovery is abandoned — whole group lost, or re-crashed mid-way).
  void RestartDatanode(NodeId n, std::function<void()> done = nullptr);

  // One entry per RestartDatanode invocation that started recovering —
  // the recovery timeline consumed by chaos invariants, benchmarks and
  // the CI artifact. Timestamps are -1 until the phase completes.
  struct RecoveryStats {
    NodeId node = kNoNode;
    int attempts = 1;            // resync retries after source death
    Nanos started = 0;
    Nanos replay_done = -1;
    Nanos serving_at = -1;
    int64_t replay_entries = 0;
    int64_t replay_log_bytes = 0;
    int64_t replay_image_bytes = 0;
    int64_t resync_rows = 0;
    int64_t resync_bytes = 0;
    int64_t resync_deletes = 0;
    uint64_t replay_digest = 0;
    bool replay_deterministic = false;  // replay-twice digests agreed
    bool replay_covered = false;        // exactly the durable prefix
    // Streaming catch-up: partitions served before full rejoin, and the
    // committed reads the node absorbed while still resyncing.
    int streamed_parts = 0;
    int64_t catchup_reads = 0;
    bool aborted = false;
    std::string abort_reason;
    trace::SpanId trace_root = 0;
  };
  // Bounded ring (512 entries): long restart-storm soaks evict the
  // oldest entries instead of growing without bound.
  const std::deque<RecoveryStats>& recovery_log() const {
    return recovery_log_;
  }
  // Entries evicted from the ring since the cluster started.
  int64_t recoveries_dropped() const { return recoveries_dropped_; }

  // Global-checkpoint epoch (§II-B2). Commits become durable only once
  // every node's flushed redo log covers the epoch.
  int64_t gcp_epoch() const { return gcp_epoch_; }
  // Highest epoch the cluster has *closed*: every transaction whose
  // commit decision fell at or below it has finished its commit chains,
  // so the epoch boundary recorded in each journal is exact. Trails
  // gcp_epoch() while commits of older epochs are still in flight.
  int64_t closed_gcp_epoch() const { return closed_epoch_; }
  // The newest epoch whose log is on disk on every layout-alive node —
  // the cluster-wide durability boundary local checkpoints cut at.
  int64_t DurableGcpEpoch() const;

  // Simulates a whole-cluster outage and restart: every datanode
  // replays checkpoint + redo log up to the last globally durable
  // epoch. Transactions committed after it are LOST — NDB's documented
  // durability boundary — and reported instead of silently dropped.
  struct ClusterRecoveryReport {
    int64_t epoch = 0;              // the recovery cut
    int64_t dropped_commits = 0;    // distinct post-cut transactions
    std::vector<TxnId> dropped_txns;
    int64_t dropped_entries = 0;    // redo records dropped (all replicas)
    Nanos loss_window = 0;          // age of the oldest dropped record
    int64_t replayed_entries = 0;
    bool replay_deterministic = true;
  };
  ClusterRecoveryReport RecoverFromCheckpoint();

  // ---- statistics ----
  void RecordReplicaRead(PartitionId part, int replica_idx);
  // reads_per_replica()[p][i]: committed+locked reads served by the i-th
  // configured replica of partition p (0 = configured primary). Fig. 14.
  const std::vector<std::vector<int64_t>>& reads_per_replica() const {
    return replica_reads_;
  }
  void ResetStats();

  // Bulk-loads a committed row onto every replica, bypassing the
  // protocol: every replica's store and checkpoint base share the one
  // image. For experiment namespace bootstrap only.
  void BootstrapPut(TableId table, const Key& key, const RowImage& value);

  // Aggregate thread-pool utilisation over [window_start, now], averaged
  // over alive datanodes. Order: LDM, TC, RECV, SEND, REP, IO, MAIN.
  struct ThreadUtilization {
    double ldm, tc, recv, send, rep, io, main;
    double average() const {
      return (ldm + tc + recv + send + rep + io + main) / 7.0;
    }
  };
  ThreadUtilization AverageThreadUtilization(Nanos window_start) const;

 private:
  friend class Transport;
  void HeartbeatTick(NodeId n);
  void RequestArbitration(NodeId requester);
  // Signal handlers (delivered by the transport).
  void OnHeartbeat(NodeId from, NodeId to) {
    last_heard_[to][from] = sim_.now();
  }
  void OnArbRequest(SignalRef sig);
  void OnArbReply(Signal& sig);

  // ---- node-recovery steps (DESIGN.md §16) ----
  struct RecoveryRun;
  using RunPtr = std::shared_ptr<RecoveryRun>;
  // The one step check: true while `run` is still the recovery in flight
  // on its node (no re-crash, no cluster shutdown); otherwise abandons it
  // with `reason`, the phase the loss interrupted.
  bool RecoveryLive(const RunPtr& run, const char* reason);
  // True while the resync source serves; otherwise counts an attempt and
  // retries the resync from another peer.
  bool SourceLive(const RunPtr& run);
  void AbandonRecovery(const RecoveryRun& run, const char* reason);
  void RecoveryResync(const RunPtr& run);
  // Streaming resync: copies partition run->next's delta, then fences it
  // quiescent and marks it catch-up-ready (the node serves reads for it
  // immediately), then steps to the next partition.
  void StreamNextPartition(const RunPtr& run);
  void AdoptQuiescedPartition(const RunPtr& run);
  void FinishRecovery(const RunPtr& run);
  // Puts node n back into service: serving, layout-alive, and freshly
  // heard from by every peer.
  void Rejoin(NodeId n);
  // Rows the restarted node must copy from (or drop relative to) the
  // live peer to converge; applies the delta when `apply` is true.
  // `part` >= 0 restricts the delta to rows hashing to that partition.
  struct ResyncDelta {
    int64_t rows = 0;
    int64_t bytes = 0;
    int64_t deletes = 0;
  };
  ResyncDelta ComputeResync(NodeId n, NodeId source, bool apply,
                            PartitionId part = -1);
  // Ring slot -> entry, or nullptr if the entry was evicted by the cap.
  RecoveryStats* RecoverySlot(size_t slot);
  // Closes every epoch <= gcp_epoch_ that no alive node still has an
  // in-flight commit for (transaction-atomic epochs: an epoch's boundary
  // is only recorded once all its commits have finished their chains).
  void TryCloseEpochs();

  Simulation& sim_;
  Network& network_;
  const Catalog* catalog_;
  NdbClusterConfig config_;
  ClusterLayout layout_;
  Transport transport_{*this};

  std::vector<std::unique_ptr<NdbDatanode>> datanodes_;
  std::vector<std::unique_ptr<NdbMgmtNode>> mgmt_;
  std::vector<NdbApiNode*> apis_;

  // last_heard_[i][j]: when datanode i last heard from datanode j.
  std::vector<std::vector<Nanos>> last_heard_;
  std::vector<bool> arbitration_in_flight_;

  std::vector<Simulation::PeriodicHandle> timers_;
  std::vector<std::vector<int64_t>> replica_reads_;
  std::deque<RecoveryStats> recovery_log_;
  size_t recovery_log_base_ = 0;    // absolute slot of recovery_log_[0]
  int64_t recoveries_dropped_ = 0;  // evicted by the ring's cap
  uint64_t txn_counter_ = 0;
  int64_t gcp_epoch_ = 0;
  int64_t closed_epoch_ = 0;
  bool close_retry_pending_ = false;
  bool cluster_up_ = true;
  bool protocols_started_ = false;
};

}  // namespace repro::ndb
