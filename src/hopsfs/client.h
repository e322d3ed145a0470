// HopsFS client library.
//
// Clients pick one metadata server and stick to it until it fails
// (§II-A2). With AZ awareness (§IV-B3) the client fetches the active-NN
// list — which carries each NN's locationDomainId via the extended leader
// election — from a seed namenode and prefers a namenode in its own AZ,
// falling back to a random one. Large-file data flows through the block
// layer: writes run a replication pipeline, reads pick the AZ-closest
// replica (§IV-C).
//
// Overload protection (src/resilience/): every op carries an absolute
// deadline; retries draw from a token-bucket retry budget instead of
// retrying unboundedly; a per-NN circuit breaker evicts grey-slow
// namenodes from rotation (AZ-local first, cross-AZ fallback); server
// sheds (OVERLOADED) are retried against a different NN under the same
// budget.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "blocks/datanode.h"
#include "hopsfs/namenode.h"
#include "metrics/counters.h"
#include "resilience/circuit_breaker.h"
#include "resilience/retry_budget.h"
#include "sim/network.h"
#include "sim/record_pool.h"
#include "util/rng.h"

namespace repro::hopsfs {

struct ClientConfig {
  Nanos rpc_timeout = 5 * kSecond;

  // Default absolute deadline stamped on each op at Submit (0 = none).
  // Far above healthy latencies: it only binds when the system is in
  // real trouble, converting doomed work into fast failures.
  Nanos op_deadline = 30 * kSecond;

  // Token-bucket retry budget (≈10% of request rate by default).
  resilience::RetryBudgetConfig retry_budget;
};

class HopsFsClient {
 public:
  // `registry` is the deployment's shared counter registry.
  HopsFsClient(Simulation& sim, Network& network, metrics::Registry& registry,
               std::vector<Namenode*> namenodes, HostId host, AzId az,
               blocks::DnRegistry* dn_registry, ClientConfig config,
               bool az_aware, bool resilience);

  HostId host() const { return host_; }
  AzId az() const { return az_; }
  Namenode* current_nn() const { return nn_; }

  // Identity attached to every request (empty = superuser).
  void set_user(std::string user) { user_ = std::move(user); }
  const std::string& user() const { return user_; }

  // Full-result entry point (includes RPC retry / failover).
  void Submit(FsRequest req, FsResultCb cb);

  // Deadline-safety audit: number of times a *successful* completion
  // arrived after this op had already reported DEADLINE_EXCEEDED to the
  // caller. Must stay zero — the chaos harness asserts it as an
  // invariant.
  int64_t post_deadline_successes() const { return post_deadline_successes_; }

  // Ops submitted through Submit() — the telemetry scraper polls this as
  // the client host's progress counter.
  int64_t ops_submitted() const { return ops_submitted_; }

  // RPC attempts whose slot is still held: by a request or reply in
  // flight, or by an armed timeout.
  size_t rpcs_live() const { return rpcs_->live(); }

  const resilience::RetryBudget& retry_budget() const { return budget_; }

  // Convenience wrappers. Data movement for large files (block pipeline
  // writes / AZ-local replica reads) is included in the callback time.
  using StatusCb = std::function<void(Status)>;
  void Mkdir(const std::string& path, StatusCb cb);
  void Create(const std::string& path, int64_t size, StatusCb cb);
  void ReadFile(const std::string& path, StatusCb cb);
  void Stat(const std::string& path, StatusCb cb);
  void Delete(const std::string& path, StatusCb cb);
  void ListDir(const std::string& path, StatusCb cb);
  void Rename(const std::string& from, const std::string& to, StatusCb cb);
  void Chmod(const std::string& path, uint32_t permissions, StatusCb cb);
  void Chown(const std::string& path, const std::string& owner, StatusCb cb);
  void SetTimes(const std::string& path, Nanos mtime, StatusCb cb);
  void Append(const std::string& path, int64_t bytes, StatusCb cb);
  void DeleteRecursive(const std::string& path, StatusCb cb);
  // cb(status, files, dirs, bytes)
  using SummaryCb =
      std::function<void(Status, int64_t, int64_t, int64_t)>;
  void ContentSummary(const std::string& path, SummaryCb cb);

 private:
  // One client operation across all its attempts, pooled. Exactly one
  // stage owns it at a time (the attempt in flight, a retry's backoff, a
  // large file's block transfers), except after a timeout: the timed-out
  // attempt keeps its reference for a late reply while the retry holds
  // a second one.
  struct OpState {
    RequestRef req;  // shared with the namenode by every attempt
    FsResultCb cb;
    int attempt = 1;
    Nanos start = 0;
    bool done = false;    // first completion wins; later ones are dropped
    bool reported_deadline_exceeded = false;
    trace::SpanId span = 0;  // root span of the op's trace (0 = unsampled)
  };
  using OpPool = RecordPool<OpState>;
  using OpPtr = OpPool::Ref;

  // One namenode RPC attempt, pooled. Its timeout timer and its
  // request/reply hops each hold a reference; whichever of timeout and
  // reply comes first resolves it. A reply cancels the timer, which
  // returns the slot to the pool as soon as the reply is handled; a reply
  // after the timeout finds `resolved` set. The reply's FsResult rides
  // in the slot, so the reply hop captures only {this, slot}.
  struct RpcSlot {
    OpPtr op;
    Namenode* nn = nullptr;
    Simulation::Timer timer;  // the attempt's timeout
    bool resolved = false;
    trace::SpanId attempt = 0;  // the attempt's span
    trace::SpanId net = 0;      // the hop in flight (request, then reply)
    FsResult result;            // the namenode's reply
  };
  using RpcPool = RecordPool<RpcSlot>;
  using RpcRef = RpcPool::Ref;

  void StartAttempt(OpPtr op);
  void SendToNn(OpPtr op, Namenode* nn);
  void OnRpcTimeout(RpcRef rpc);
  void SendRpcReply(RpcRef rpc, FsResult result);
  void OnRpcReply(RpcRef rpc);
  void RetryAfterFailure(OpPtr op, Status give_up_status);
  void Deliver(OpState& op, FsResult result);
  // Large files: after the namenode's reply, the op's block transfers
  // run one block at a time before the caller sees the result. Each
  // transfer arms one timer that its datanode's answer cancels.
  struct BlockIo;
  using BlockIoPtr = std::shared_ptr<BlockIo>;
  void HandleLargeFileIo(OpPtr op, FsResult result);
  void SubmitForStatus(FsRequest req, StatusCb cb);
  void NextBlock(BlockIoPtr io);
  void WriteBlock(BlockIoPtr io);
  void ReadNextReplica(BlockIoPtr io);
  void ArmBlockTimer(const BlockIoPtr& io);
  bool EndTransfer(BlockIo& io, uint64_t serial);
  void FailBlockIo(BlockIoPtr io, Status status);
  void PickNamenode(trace::SpanId span, SmallFn then);
  resilience::CircuitBreaker* breaker(const Namenode* nn);
  void NoteBreaker(resilience::CircuitBreaker* b,
                   const std::function<void()>& update);

  Simulation& sim_;
  Network& network_;
  std::vector<Namenode*> namenodes_;  // indexed by nn id
  HostId host_;
  AzId az_;
  blocks::DnRegistry* dn_registry_;
  ClientConfig config_;
  bool az_aware_;    // prefer an AZ-local namenode (§IV-B3)
  bool resilience_;  // op deadline, retry budget and per-NN breakers on
  Rng rng_;

  Namenode* nn_ = nullptr;
  std::string user_;
  OpPool::Handle ops_ = OpPool::Handle::Make();
  RequestPool::Handle requests_ = RequestPool::Handle::Make();
  RpcPool::Handle rpcs_ = RpcPool::Handle::Make();

  // Resilience state.
  resilience::RetryBudget budget_;
  std::vector<resilience::CircuitBreaker> breakers_;  // indexed by nn id
  int32_t last_failed_nn_ = -1;  // excluded from the immediate re-pick
  int64_t post_deadline_successes_ = 0;
  int64_t ops_submitted_ = 0;

  metrics::Counter* ctr_retries_ = nullptr;
  metrics::Counter* ctr_budget_denied_ = nullptr;
  metrics::Counter* ctr_breaker_transitions_ = nullptr;
  metrics::Counter* ctr_deadline_ = nullptr;
  metrics::Counter* ctr_shed_seen_ = nullptr;
  // Cluster-wide SLO counters (shared across clients; the SLO engine
  // evaluates burn rates over their scraped series).
  metrics::Counter* ctr_slo_total_ = nullptr;
  metrics::Counter* ctr_slo_good_ = nullptr;
  metrics::Counter* ctr_slo_latency_total_ = nullptr;
  metrics::Counter* ctr_slo_latency_good_ = nullptr;
  Histogram* hist_latency_ = nullptr;
};

}  // namespace repro::hopsfs
