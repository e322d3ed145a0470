// HopsFS metadata server (namenode, NN).
//
// Namenodes are stateless: every file-system operation is a transaction
// against the NDB-stored metadata, using hierarchical (implicit) locking —
// row locks are taken only on the operation's target inode (and its
// parent for mutations); everything else is read with read committed
// (§II-A2). Retryable failures (lock timeouts, coordinator loss) are
// retried with exponential backoff, providing backpressure to NDB.
//
// Each namenode carries a locationDomainId (its AZ, §IV-B) which it
// reports through the leader-election heartbeat so clients can find
// AZ-local namenodes.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "blocks/datanode.h"
#include "blocks/placement.h"
#include "hopsfs/fsschema.h"
#include "metrics/counters.h"
#include "ndb/client.h"
#include "resilience/admission.h"
#include "sim/callback.h"
#include "sim/resources.h"
#include "util/status.h"

namespace repro::hopsfs {

struct InodeRead;

enum class FsOp {
  kMkdir,
  kCreate,
  kOpenRead,        // stat + block locations / inline data
  kStat,
  kDelete,
  kListDir,
  kRename,
  kChmod,
  kChown,
  kSetTimes,
  kAppend,          // extend a file (inline growth or new blocks)
  kContentSummary,  // recursive file/dir/byte counts (du)
  kDeleteRecursive, // subtree delete in one transaction
};
const char* FsOpName(FsOp op);

// Every member has a default, so a request can be written with
// designated initializers naming only the fields its op uses.
struct FsRequest {
  FsOp op = FsOp::kStat;
  std::string path{};
  std::string path2{};   // rename destination
  int64_t size = 0;      // create size / append delta
  uint32_t permissions = 0644;
  std::string owner{};   // chown
  int64_t mtime_ns = 0;  // setTimes
  // Calling identity for permission checks; empty = superuser (the
  // default, so infrastructure paths and benchmarks are unaffected).
  std::string user{};
  AzId client_az = kNoAz;
  // Absolute deadline stamped by the client (0 = none); propagated down
  // through NDB and the block layer, checked before each queueing point.
  Nanos deadline = 0;
  // Trace span of the client RPC attempt carrying this request (0 = the
  // operation is not sampled). The namenode parents its spans under it.
  trace::SpanId span = 0;
};

struct FsResult {
  FsResult() = default;
  // A reply that carries only its status (a failure).
  explicit FsResult(Status s) : status(std::move(s)) {}

  Status status;
  InodeRow inode;                        // stat / open
  std::vector<std::string> children;     // listdir
  std::vector<BlockRow> blocks;          // open (large files)
  int64_t inline_bytes = 0;              // open (small files)
  // create/append (large files): pipeline targets per new block
  std::vector<BlockRow> new_blocks;
  // content summary (du)
  int64_t cs_files = 0;
  int64_t cs_dirs = 0;
  int64_t cs_bytes = 0;
};

// Move-only (SmallCall), so an RPC's reply continuation can own its
// pooled slot instead of copying the attempt's state.
using FsResultCb = SmallCall<void(FsResult)>;

constexpr Nanos kLeaderInterval = 2 * kSecond;  // election round (§IV-B3)
constexpr int kBlockReplication = 3;

struct NamenodeConfig {
  int cpu_threads = 32;                  // the evaluation's 32-vCPU VMs

  // Admission control: in-flight ops are bounded by an AIMD limit on
  // observed completion latency; excess arrivals are shed with a
  // retryable OVERLOADED (kResourceExhausted) status. The floor is kept
  // above any closed-loop bench's per-NN concurrency so admission only
  // engages under genuine overload.
  int admission_min_limit = 128;
  int admission_max_limit = 4096;
  int admission_initial_limit = 512;
};

// Cross-namenode view of the active-NN set, rebuilt from the heartbeat
// rows each election round.
struct ActiveNn {
  int32_t nn_id;
  AzId az;
  HostId host;
};

class Namenode {
 public:
  // `registry` is the deployment's shared counter registry.
  Namenode(Simulation& sim, Network& network, metrics::Registry& registry,
           ndb::NdbCluster& ndb, const FsTables& tables, int32_t nn_id,
           HostId host, AzId az, blocks::DnRegistry* dn_registry,
           blocks::BlockPlacementPolicy* placement, NamenodeConfig config,
           bool admission);
  ~Namenode() { Stop(); }

  int32_t id() const { return nn_id_; }
  HostId host() const { return host_; }
  AzId az() const { return az_; }
  bool alive() const { return alive_; }
  void Crash();

  // Starts leader-election heartbeats (and, when leader, the block
  // re-replication monitor).
  void Start();
  void Stop();

  bool is_leader() const { return is_leader_; }
  const std::vector<ActiveNn>& active_nns() const { return active_nns_; }

  // Client RPC entry point: runs the op and calls `done` on this host
  // (the client stub handles the network hop back).
  void HandleRequest(FsRequest req, FsResultCb done);

  // Datanode heartbeat sink (routed to the leader by the deployment).
  void OnDnHeartbeat(blocks::DnId dn);

  // Pre-warms the inode hint cache (experiment bootstrap only): models a
  // long-running namenode whose cache has reached steady state, which a
  // sub-second simulation window cannot organically warm.
  void PrimePathCache(const std::string& path, InodeId id,
                      const std::string& row_key);
  // Test accessor: whether the hint cache holds an entry for `path`.
  bool HasPathHint(std::string_view path) const {
    return path_cache_.find(path) != path_cache_.end();
  }

  // Test accessor: this namenode's NDB API node.
  const ndb::NdbApiNode& ndb_api() const { return *api_; }

  const ThreadPool& cpu_pool() const { return *cpu_; }
  void ResetStats() { cpu_->ResetStats(); }
  int64_t ops_served() const { return ops_served_; }
  int64_t txn_retries() const { return txn_retries_; }
  const resilience::AimdLimiter& limiter() const { return limiter_; }

 private:
  struct OpCtx;
  using OpPtr = std::shared_ptr<OpCtx>;
  using WriteCb = ndb::NdbApiNode::WriteCb;

  // -- operation state machines --
  void RunAttempt(OpPtr ctx);
  void Dispatch(OpPtr ctx);
  void Finish(OpPtr ctx, FsResult result);
  void MaybeRetry(OpPtr ctx, const Status& failure);

  // Resolves the inode id of directory `path` ("/a/b") with committed
  // reads, then runs `then(ctx, dir_id, dir_row_key)`; failures are
  // finished/retried internally. Uses the NN-side path cache. The row-key
  // view is only valid for the duration of the call — callees must intern
  // it (OpCtx arena) before deferring.
  using Resolved = void (Namenode::*)(OpPtr, InodeId, std::string_view);
  void ResolveDir(OpPtr ctx, std::string_view path, Resolved then);
  struct PathWalk;
  void WalkPath(OpPtr ctx, std::shared_ptr<PathWalk> w);
  void ParentResolved(OpPtr ctx, InodeId dir, std::string_view row_key);

  // -- transaction steps shared by the op bodies (namenode_ops.cc) --
  // Reads one inode row and runs `then(ctx, row)` once it passes the
  // checks of `what`.
  template <typename Then>
  void ReadInode(OpPtr ctx, ndb::Key key, ndb::LockMode mode,
                 const InodeRead& what, Then then);
  // One write of a sequential chain: on success runs `then(ctx)`.
  template <typename Then>
  WriteCb WriteThen(OpPtr ctx, const char* what, Then then);
  // One write of the attempt's fan-out join; ArmJoin follows the last.
  WriteCb Joined(const OpPtr& ctx);
  void ArmJoin(const OpPtr& ctx, const char* write_what,
               const char* commit_what);
  void JoinDecided(OpPtr ctx);
  void CommitAndFinish(OpPtr ctx, const char* what);
  void Fail(OpPtr ctx, Status status);
  void TouchParent(const OpPtr& ctx, WriteCb cb);
  void AddBlocks(const OpPtr& ctx, InodeId file, int32_t from, int32_t to,
                 int64_t size);
  void RemoveInode(const OpPtr& ctx, ndb::Key key, const InodeRow& inode,
                   std::vector<BlockRow> blocks);

  void DoMkdir(OpPtr ctx);
  void DoCreate(OpPtr ctx);
  void DoOpenRead(OpPtr ctx);
  void DoStat(OpPtr ctx);
  void DoDelete(OpPtr ctx);
  void DoListDir(OpPtr ctx);
  void DoRename(OpPtr ctx);
  void RenameDstResolved(OpPtr ctx, InodeId dir, std::string_view row_key);
  void LockRenameParents(OpPtr ctx, size_t i);
  // chmod / chown / setTimes share one read-modify-write body.
  void DoSetAttr(OpPtr ctx);
  void DoAppend(OpPtr ctx);
  void DoContentSummary(OpPtr ctx);
  void DoDeleteRecursive(OpPtr ctx);
  // du and rmr walk the subtree one directory scan at a time.
  struct SubtreeWalk;
  void WalkSubtree(OpPtr ctx, std::shared_ptr<SubtreeWalk> w);
  void ScanRemovedBlocks(OpPtr ctx, std::shared_ptr<SubtreeWalk> w);

  // -- leadership --
  void LeaderElectionRound();
  void ReplicationMonitorRound();
  // One dead datanode's scanned block-index rows, walked in place by
  // index. Each block is restored to its replication level in its own
  // transaction: rewrite the block row and index rows, then stream a
  // copy from a surviving replica to the chosen replacement.
  struct RepairQueue;
  void RepairNext(std::shared_ptr<RepairQueue> q);
  void RepairDecided(std::shared_ptr<RepairQueue> q);

  InodeId NextInodeId() {
    return (static_cast<InodeId>(nn_id_ + 2) << 40) | ++inode_counter_;
  }
  uint64_t NextBlockId() {
    return (static_cast<uint64_t>(nn_id_ + 2) << 40) | ++block_counter_;
  }

  Simulation& sim_;
  Network& network_;
  ndb::NdbCluster& ndb_;
  FsTables tables_;
  int32_t nn_id_;
  HostId host_;
  AzId az_;
  blocks::DnRegistry* dn_registry_;
  blocks::BlockPlacementPolicy* placement_;
  NamenodeConfig config_;
  bool admission_;  // admission control on (the deployment's resilience)

  std::unique_ptr<ThreadPool> cpu_;
  std::unique_ptr<ndb::NdbApiNode> api_;
  bool alive_ = true;
  bool is_leader_ = false;
  Rng rng_;

  // Admission control + resilience accounting.
  resilience::AimdLimiter limiter_;
  metrics::Counter* ctr_shed_ = nullptr;
  metrics::Counter* ctr_deadline_ = nullptr;
  metrics::Counter* ctr_txn_retries_ = nullptr;
  metrics::Counter* ctr_host_errors_ = nullptr;

  // Path -> inode hint cache; entries are validated by the locked read
  // each operation performs, so staleness only costs a retry. Ordered, so
  // a rename drops the hints under its source as one key range; the
  // transparent comparator lets the dispatch path probe with string_view
  // slices of the request path without building a std::string.
  struct CachedPath {
    InodeId id;
    std::string row_key;  // "parentId/name" row key of the directory
  };
  std::map<std::string, CachedPath, std::less<>> path_cache_;

  // Leader election state.
  int64_t le_counter_ = 0;
  // When this namenode last committed its own heartbeat row. Leadership
  // is held under a lease bounded by this: a namenode whose counter
  // writes stop landing will be declared dead by its peers, so it must
  // stop leading on the same clock or two leaders coexist.
  Nanos le_publish_ok_at_ = -1;
  // True when we were the would-be leader last round but deferred the
  // claim so a displaced incumbent could observe us and step down first.
  bool le_claim_pending_ = false;
  std::unordered_map<int32_t, std::pair<int64_t, int>> le_seen_;  // id -> (counter, misses)
  std::vector<ActiveNn> active_nns_;
  // The staggered first election round; it arms le_timer_. rep_timer_
  // runs only while this namenode leads.
  Simulation::Timer start_timer_;
  Simulation::PeriodicHandle le_timer_;
  Simulation::PeriodicHandle rep_timer_;
  std::vector<bool> dn_known_dead_;

  uint64_t inode_counter_ = 0;
  uint64_t block_counter_ = 0;
  int64_t ops_served_ = 0;
  int64_t txn_retries_ = 0;
};

}  // namespace repro::hopsfs
