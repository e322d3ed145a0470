#include "hopsfs/client.h"

#include <algorithm>

#include "resilience/deadline.h"
#include "util/logging.h"

namespace repro::hopsfs {

namespace {
constexpr int kMaxRpcAttempts = 4;
constexpr int64_t kRequestBytes = 280;
constexpr int64_t kReplyBaseBytes = 220;
// Per-NN circuit breaker: consecutive failures to trip open, and time
// open before the half-open probe.
constexpr int kBreakerFailureThreshold = 3;
constexpr Nanos kBreakerOpenInterval = 2 * kSecond;
// Failover re-pick jitter: spreads the stampede when a popular NN dies
// (all its clients would otherwise re-pick at the same instant).
constexpr Nanos kFailoverJitter = 50 * kMillisecond;
// Latency-SLO threshold: a completed op slower than this counts against
// the latency objective (recorded into the shared slo.latency.* counters
// the telemetry SLO engine consumes).
constexpr Nanos kSloLatencyThreshold = 100 * kMillisecond;
}  // namespace

HopsFsClient::HopsFsClient(Simulation& sim, Network& network,
                           metrics::Registry& registry,
                           std::vector<Namenode*> namenodes, HostId host,
                           AzId az, blocks::DnRegistry* dn_registry,
                           ClientConfig config, bool az_aware,
                           bool resilience)
    : sim_(sim), network_(network), namenodes_(std::move(namenodes)),
      host_(host), az_(az), dn_registry_(dn_registry), config_(config),
      az_aware_(az_aware), resilience_(resilience),
      rng_(sim.rng().Split()),
      budget_(config.retry_budget) {
  const resilience::CircuitBreakerConfig bc{kBreakerFailureThreshold,
                                            kBreakerOpenInterval};
  breakers_.assign(namenodes_.size(), resilience::CircuitBreaker(bc));
  ctr_retries_ = registry.GetCounter("hopsfs.client.retries");
  ctr_budget_denied_ = registry.GetCounter("hopsfs.client.retry_budget_denied");
  ctr_breaker_transitions_ =
      registry.GetCounter("hopsfs.client.breaker_transitions");
  ctr_deadline_ = registry.GetCounter("hopsfs.client.deadline_exceeded");
  ctr_shed_seen_ = registry.GetCounter("hopsfs.client.sheds_observed");
  ctr_slo_total_ = registry.GetCounter("slo.requests.total");
  ctr_slo_good_ = registry.GetCounter("slo.requests.good");
  ctr_slo_latency_total_ = registry.GetCounter("slo.latency.total");
  ctr_slo_latency_good_ = registry.GetCounter("slo.latency.good");
  hist_latency_ =
      registry.GetHistogram("hopsfs.client.op_latency_seconds");
}

resilience::CircuitBreaker* HopsFsClient::breaker(const Namenode* nn) {
  if (!resilience_ || nn == nullptr) return nullptr;
  const size_t id = static_cast<size_t>(nn->id());
  return id < breakers_.size() ? &breakers_[id] : nullptr;
}

// Runs a breaker mutation and counts the state transition if one happened.
void HopsFsClient::NoteBreaker(resilience::CircuitBreaker* b,
                               const std::function<void()>& update) {
  if (b == nullptr) return;
  const int64_t before = b->transitions();
  update();
  if (b->transitions() != before) metrics::Bump(ctr_breaker_transitions_);
}

void HopsFsClient::PickNamenode(trace::SpanId span, SmallFn then) {
  // Ask a random alive seed namenode for the active list (the leader
  // election gossips each NN's AZ), then prefer an AZ-local namenode.
  std::vector<Namenode*> alive;
  for (Namenode* nn : namenodes_) {
    if (nn->alive()) alive.push_back(nn);
  }
  if (alive.empty()) {
    nn_ = nullptr;
    then();
    return;
  }
  Namenode* seed = alive[rng_.NextBelow(alive.size())];
  const trace::SpanId req_hop = sim_.tracer().StartSpan(
      span, "net.nn_list_req", trace::Layer::kClient,
      trace::NetCause(az_, seed->az()), host_, az_, seed->az());
  network_.Send(host_, seed->host(), kRequestBytes,
                [this, seed, span, req_hop, then = std::move(then)]() mutable {
                  sim_.tracer().EndSpan(req_hop);
                  const auto& active = seed->active_nns();
                  const Nanos now = sim_.now();
                  std::vector<Namenode*> candidates;
                  std::vector<Namenode*> local;
                  for (const auto& a : active) {
                    if (a.nn_id < 0 ||
                        a.nn_id >= static_cast<int32_t>(namenodes_.size())) {
                      continue;
                    }
                    Namenode* nn = namenodes_[a.nn_id];
                    if (!nn->alive()) continue;
                    // The NN we just timed out on is excluded from the
                    // immediate re-pick (it is usually still in the
                    // active list — detection lags the failure).
                    if (a.nn_id == last_failed_nn_) continue;
                    // Circuit breaker: grey-slow NNs are out of rotation
                    // until their half-open probe readmits them.
                    resilience::CircuitBreaker* b = breaker(nn);
                    if (b != nullptr && !b->CanAttempt(now)) continue;
                    candidates.push_back(nn);
                    if (a.az == az_) local.push_back(nn);
                  }
                  if (candidates.empty()) {
                    // Everything filtered (all breakers open / only the
                    // failed NN left): degrade to any alive NN rather
                    // than refusing service.
                    for (const auto& a : active) {
                      if (a.nn_id < 0 ||
                          a.nn_id >=
                              static_cast<int32_t>(namenodes_.size())) {
                        continue;
                      }
                      Namenode* nn = namenodes_[a.nn_id];
                      if (nn->alive()) candidates.push_back(nn);
                    }
                  }
                  if (candidates.empty()) candidates.push_back(seed);
                  // §IV-B3: AZ-local if possible (and AZ-awareness is on
                  // and the client has a locationDomainId), else random.
                  if (az_aware_ && az_ != kNoAz && !local.empty()) {
                    nn_ = local[rng_.NextBelow(local.size())];
                  } else {
                    nn_ = candidates[rng_.NextBelow(candidates.size())];
                  }
                  NoteBreaker(breaker(nn_), [this] {
                    breaker(nn_)->OnPicked(sim_.now());
                  });
                  last_failed_nn_ = -1;
                  // Reply hop back to the client.
                  const trace::SpanId reply_hop = sim_.tracer().StartSpan(
                      span, "net.nn_list_reply", trace::Layer::kClient,
                      trace::NetCause(seed->az(), az_), seed->host(),
                      seed->az(), az_);
                  network_.Send(seed->host(), host_, kReplyBaseBytes,
                                [this, reply_hop,
                                 then = std::move(then)]() mutable {
                                  sim_.tracer().EndSpan(reply_hop);
                                  then();
                                });
                });
}

void HopsFsClient::Submit(FsRequest req, FsResultCb cb) {
  req.client_az = az_;
  if (req.user.empty()) req.user = user_;
  if (req.deadline == 0 && resilience_ && config_.op_deadline > 0) {
    req.deadline = sim_.now() + config_.op_deadline;
  }
  budget_.OnRequest();  // first attempts accrue retry tokens
  ++ops_submitted_;
  OpPtr op = ops_->Acquire();
  op->req = requests_->Acquire();
  *op->req = std::move(req);
  op->cb = std::move(cb);
  op->start = sim_.now();
  // Deterministic 1-in-N sampling decides here; 0 makes every tracer
  // call below a no-op.
  op->span = sim_.tracer().StartTrace(FsOpName(op->req->op),
                                      trace::Layer::kClient, host_, az_);
  StartAttempt(std::move(op));
}

void HopsFsClient::StartAttempt(OpPtr op) {
  if (op->done) return;
  const Nanos now = sim_.now();
  if (resilience::DeadlineExpired(op->req->deadline, now)) {
    Deliver(
        *op,
        FsResult{DeadlineExceeded("client: deadline passed before attempt")});
    return;
  }
  if (op->attempt > kMaxRpcAttempts) {
    Deliver(*op, FsResult{Unavailable("all namenode RPC attempts failed")});
    return;
  }
  // The sticky NN is abandoned when dead or when its breaker is open.
  if (nn_ != nullptr) {
    resilience::CircuitBreaker* b = breaker(nn_);
    if (!nn_->alive() || (b != nullptr && !b->CanAttempt(now))) {
      nn_ = nullptr;
    }
  }
  if (nn_ == nullptr) {
    const trace::SpanId pick = sim_.tracer().StartSpan(
        op->span, "pick_nn", trace::Layer::kClient, trace::Cause::kWork,
        host_, az_);
    PickNamenode(pick, [this, pick, op = std::move(op)]() mutable {
      sim_.tracer().EndSpan(pick);
      if (nn_ == nullptr) {
        Deliver(*op, FsResult{Unavailable("no namenode available")});
        return;
      }
      Namenode* nn = nn_;
      SendToNn(std::move(op), nn);
    });
    return;
  }
  NoteBreaker(breaker(nn_), [this, now] { breaker(nn_)->OnPicked(now); });
  SendToNn(std::move(op), nn_);
}

void HopsFsClient::SendToNn(OpPtr op, Namenode* nn) {
  if (op->done) return;
  const Nanos now = sim_.now();
  // The attempt timer never outlives the deadline: at equal timestamps
  // the earlier-scheduled timeout wins the event-order tie-break, so a
  // success can never race past an expired deadline through this path.
  const Nanos timeout = resilience::ClampToDeadline(
      config_.rpc_timeout, op->req->deadline, now);
  const int64_t bytes =
      kRequestBytes + static_cast<int64_t>(op->req->path.size());
  RpcRef rpc = rpcs_->Acquire();
  // One span per RPC attempt.
  rpc->attempt =
      sim_.tracer().StartSpan(op->span, "rpc", trace::Layer::kClient,
                              trace::Cause::kWork, host_, az_);
  rpc->op = std::move(op);
  rpc->nn = nn;
  rpc->timer = sim_.After(timeout, [this, rpc = rpc.Share()]() mutable {
    OnRpcTimeout(std::move(rpc));
  });

  rpc->net = sim_.tracer().StartSpan(
      rpc->attempt, "net.request", trace::Layer::kClient,
      trace::NetCause(az_, nn->az()), host_, az_, nn->az());
  network_.Send(
      host_, nn->host(), bytes, [this, rpc = std::move(rpc)]() mutable {
        sim_.tracer().EndSpan(rpc->net);
        // The namenode shares the op's request record (no copy per
        // attempt) and parents its spans under the attempt's.
        RequestRef req = rpc->op->req.Share();
        const trace::SpanId span = rpc->attempt;
        Namenode* to = rpc->nn;
        to->HandleRequest(std::move(req), span,
                          [this, rpc = std::move(rpc)](FsResult r) mutable {
                            SendRpcReply(std::move(rpc), std::move(r));
                          });
      });
}

void HopsFsClient::OnRpcTimeout(RpcRef rpc) {
  rpc->resolved = true;  // a reply would have cancelled this timer
  sim_.tracer().EndSpan(rpc->attempt);
  Namenode* nn = rpc->nn;
  NoteBreaker(breaker(nn), [this, nn] { breaker(nn)->OnFailure(sim_.now()); });
  if (rpc->op->done) return;
  // A timed-out attempt is a request the client observed to fail, even
  // though the op will be retried: it burns availability error budget
  // (total without good) exactly like a load balancer counting each
  // 5xx/timeout per try. Without this, requests stuck against a dark
  // AZ are invisible to the SLI until their final deadline.
  metrics::Bump(ctr_slo_total_);
  // Failover: drop the sticky NN, exclude it from the re-pick, and
  // retry under the budget after a jittered delay (herd control).
  if (nn_ == nn) nn_ = nullptr;
  last_failed_nn_ = nn->id();
  // The slot keeps its reference: a late reply still reads the op.
  RetryAfterFailure(rpc->op.Share(), Unavailable("namenode RPC timed out"));
}

void HopsFsClient::SendRpcReply(RpcRef rpc, FsResult result) {
  // Reply hop: size grows with listing / block payloads.
  int64_t bytes = kReplyBaseBytes;
  for (const auto& c : result.children) {
    bytes += static_cast<int64_t>(c.size()) + 16;
  }
  bytes += 48 * static_cast<int64_t>(result.blocks.size() +
                                     result.new_blocks.size());
  const Namenode* nn = rpc->nn;
  rpc->net = sim_.tracer().StartSpan(
      rpc->attempt, "net.reply", trace::Layer::kClient,
      trace::NetCause(nn->az(), az_), nn->host(), nn->az(), az_);
  rpc->result = std::move(result);
  network_.Send(nn->host(), host_, bytes,
                [this, rpc = std::move(rpc)]() mutable {
                  OnRpcReply(std::move(rpc));
                });
}

void HopsFsClient::OnRpcReply(RpcRef rpc) {
  sim_.tracer().EndSpan(rpc->net);
  sim_.tracer().EndSpan(rpc->attempt);
  FsResult& result = rpc->result;
  if (rpc->resolved) {
    // Timed out already, yet the namenode did the work: accept the reply
    // if the op is still open. A large file's blocks still move first,
    // and Deliver's done-guard drops it if a retry answered already.
    HandleLargeFileIo(std::move(rpc->op), std::move(result));
    return;
  }
  rpc->resolved = true;
  sim_.Cancel(rpc->timer);
  OpPtr op = std::move(rpc->op);
  Namenode* nn = rpc->nn;
  if (result.status.code() == Code::kResourceExhausted) {
    // Server shed us (OVERLOADED). The NN is healthy — no breaker strike
    // — but spread the retry to a different NN under the budget.
    metrics::Bump(ctr_shed_seen_);
    if (op->done) return;
    if (nn_ == nn) nn_ = nullptr;
    last_failed_nn_ = nn->id();
    RetryAfterFailure(std::move(op), std::move(result.status));
    return;
  }
  NoteBreaker(breaker(nn), [this, nn] { breaker(nn)->OnSuccess(); });
  HandleLargeFileIo(std::move(op), std::move(result));
}

// Shared failure path for timeouts and server sheds: consult the retry
// budget, then re-attempt after a jittered backoff.
void HopsFsClient::RetryAfterFailure(OpPtr op, Status give_up_status) {
  if (resilience_ && !budget_.Withdraw()) {
    metrics::Bump(ctr_budget_denied_);
    Deliver(*op, FsResult{std::move(give_up_status)});
    return;
  }
  metrics::Bump(ctr_retries_);
  op->attempt += 1;
  const Nanos jitter = static_cast<Nanos>(
      rng_.NextBelow(static_cast<uint64_t>(kFailoverJitter)));
  if (jitter > 0) {
    const Nanos now = sim_.now();
    sim_.tracer().AddSpanAt(op->span, "retry.backoff", trace::Layer::kClient,
                            trace::Cause::kRetry, host_, az_, now,
                            now + jitter);
  }
  sim_.After(jitter, [this, op = std::move(op)]() mutable {
    StartAttempt(std::move(op));
  });
}

// Single completion choke point: enforces first-response-wins, converts
// successes that slipped past the deadline, and audits the invariant
// that nothing completes successfully after DEADLINE_EXCEEDED was
// reported.
void HopsFsClient::Deliver(OpState& op, FsResult result) {
  if (op.done) return;  // first response won; later ones are dropped
  const Nanos now = sim_.now();
  if (result.status.ok() &&
      resilience::DeadlineExpired(op.req->deadline, now)) {
    // Block-IO continuations can finish past the deadline; the caller
    // must still see DEADLINE_EXCEEDED, never a late success.
    result.status = DeadlineExceeded("client: completed past deadline");
  }
  op.done = true;
  if (result.status.code() == Code::kDeadlineExceeded) {
    op.reported_deadline_exceeded = true;
    metrics::Bump(ctr_deadline_);
  }
  if (result.status.ok()) {
    // Tripwire for the chaos invariant: by this point any success past
    // the deadline (or after a DEADLINE_EXCEEDED report) must have been
    // converted or dropped; a non-zero count means a delivery path
    // bypassed the enforcement above.
    if (resilience::DeadlineExpired(op.req->deadline, now) ||
        op.reported_deadline_exceeded) {
      ++post_deadline_successes_;
    }
  }
  // SLO accounting: availability counts every completion; application
  // outcomes (NotFound, AlreadyExists, ...) are correct service and stay
  // "good" — only unavailability-class failures burn error budget. The
  // latency objective is judged on successful ops only.
  metrics::Bump(ctr_slo_total_);
  if (!result.status.counts_against_availability()) {
    metrics::Bump(ctr_slo_good_);
  }
  if (result.status.ok()) {
    const Nanos lat = now - op.start;
    metrics::Bump(ctr_slo_latency_total_);
    if (lat <= kSloLatencyThreshold) {
      metrics::Bump(ctr_slo_latency_good_);
    }
    if (hist_latency_ != nullptr) hist_latency_->Record(lat);
  }
  // Finalize the trace at the moment the caller observes completion; any
  // still-open span (an in-flight reply) is clamped to now.
  sim_.tracer().EndTrace(op.span);
  op.cb(std::move(result));
}

struct HopsFsClient::BlockIo {
  OpPtr op;
  FsResult result;
  bool writing = false;
  size_t next = 0;  // the block transferred next
  // The transfer in flight. Its datanode's answer and its timer each
  // carry `serial`; whichever comes first bumps it, so the other finds
  // it stale and does nothing.
  uint64_t serial = 0;
  Simulation::Timer timer;
  trace::SpanId span = 0;
  // A read's next replica of the current block to try, in the order the
  // namenode listed them.
  size_t replica = 0;
};

void HopsFsClient::HandleLargeFileIo(OpPtr op, FsResult result) {
  if (dn_registry_ == nullptr || !result.status.ok() ||
      (result.new_blocks.empty() && result.blocks.empty())) {
    Deliver(*op, std::move(result));
    return;
  }
  // Writes: push each new block through its replication pipeline.
  // Reads: fetch each block from the AZ-closest replica that answers.
  auto io = std::make_shared<BlockIo>();
  io->op = std::move(op);
  io->writing = !result.new_blocks.empty();
  io->result = std::move(result);
  NextBlock(std::move(io));
}

void HopsFsClient::NextBlock(BlockIoPtr io) {
  const OpPtr& op = io->op;
  if (op->done) return;  // a late reply already answered this op
  const auto& blocks = io->writing ? io->result.new_blocks : io->result.blocks;
  if (io->next >= blocks.size()) {
    Deliver(*op, std::move(io->result));
    return;
  }
  if (blocks[io->next].replicas.empty()) {
    // No replica holds the block's bytes (HDFS: BlockMissingException).
    FailBlockIo(std::move(io), Unavailable("client: block has no replica"));
    return;
  }
  if (io->writing) {
    WriteBlock(std::move(io));
    return;
  }
  // The namenode lists a block's replicas in the order to try them:
  // live before dead, AZ-closest first (§IV-C), as an HDFS client takes
  // them from the namenode.
  io->replica = 0;
  ReadNextReplica(std::move(io));
}

// Each transfer gets the RPC timeout, clamped to the op's deadline: a
// dead datanode never answers, and a transfer must not outlive its op.
void HopsFsClient::ArmBlockTimer(const BlockIoPtr& io) {
  const Nanos timeout = resilience::ClampToDeadline(
      config_.rpc_timeout, io->op->req->deadline, sim_.now());
  io->timer = sim_.After(timeout, [this, io, serial = io->serial] {
    if (!EndTransfer(*io, serial)) return;
    if (io->writing) {
      FailBlockIo(io, Unavailable("client: block write timed out"));
    } else {
      ReadNextReplica(io);
    }
  });
}

// Settles transfer `serial`; false if its timer or answer already did.
bool HopsFsClient::EndTransfer(BlockIo& io, uint64_t serial) {
  if (io.serial != serial) return false;
  ++io.serial;
  sim_.Cancel(io.timer);
  sim_.tracer().EndSpan(io.span);
  return true;
}

void HopsFsClient::FailBlockIo(BlockIoPtr io, Status status) {
  // A transfer cut off by the op's deadline reports the deadline.
  if (resilience::DeadlineExpired(io->op->req->deadline, sim_.now())) {
    status = DeadlineExceeded("client: block io past deadline");
  }
  io->result.status = std::move(status);
  Deliver(*io->op, std::move(io->result));
}

void HopsFsClient::WriteBlock(BlockIoPtr io) {
  const OpPtr& op = io->op;
  // Deadline check between blocks: a multi-block transfer must not
  // keep streaming for an op nobody is waiting on anymore.
  const Nanos deadline = op->req->deadline;
  if (resilience::DeadlineExpired(deadline, sim_.now())) {
    FailBlockIo(std::move(io),
                DeadlineExceeded("client: block io past deadline"));
    return;
  }
  const BlockRow& b = io->result.new_blocks[io->next];
  std::vector<blocks::BlockDatanode*> pipeline;
  for (blocks::DnId d : b.replicas) {
    pipeline.push_back(dn_registry_->dn(d));
  }
  blocks::BlockDatanode* first = pipeline.front();
  pipeline.erase(pipeline.begin());
  // Stream the data to the first replica, which forwards downstream.
  const int64_t bytes = b.num_bytes;
  io->span = sim_.tracer().StartSpan(
      op->span, "block.write", trace::Layer::kBlocks, trace::Cause::kWork,
      host_, az_);
  const trace::SpanId bspan = io->span;
  const trace::SpanId xfer = sim_.tracer().StartSpan(
      bspan, "net.block_data", trace::Layer::kBlocks,
      trace::NetCause(az_, first->az()), host_, az_, first->az());
  ArmBlockTimer(io);
  network_.Send(host_, first->host(), std::max<int64_t>(bytes, 1),
                [this, io, first, id = b.block_id, bytes,
                 pipeline = std::move(pipeline), deadline, bspan,
                 xfer]() mutable {
                  sim_.tracer().EndSpan(xfer);
                  first->WriteBlock(
                      id, bytes, std::move(pipeline),
                      [this, io, serial = io->serial](Status s) {
                        if (!EndTransfer(*io, serial)) return;
                        if (!s.ok()) {
                          FailBlockIo(io, std::move(s));
                          return;
                        }
                        ++io->next;
                        NextBlock(io);
                      },
                      deadline, bspan);
                });
}

// Reads the current block from its next untried replica; a replica that
// errs or times out passes the read on to the one after it.
void HopsFsClient::ReadNextReplica(BlockIoPtr io) {
  const OpPtr& op = io->op;
  if (op->done) return;
  const Nanos deadline = op->req->deadline;
  if (resilience::DeadlineExpired(deadline, sim_.now())) {
    FailBlockIo(std::move(io),
                DeadlineExceeded("client: block io past deadline"));
    return;
  }
  const std::vector<int32_t>& replicas =
      io->result.blocks[io->next].replicas;
  if (io->replica >= replicas.size()) {
    FailBlockIo(std::move(io),
                Unavailable("client: no replica of the block answered"));
    return;
  }
  blocks::BlockDatanode* dn = dn_registry_->dn(replicas[io->replica++]);
  io->span = sim_.tracer().StartSpan(
      op->span, "block.read", trace::Layer::kBlocks, trace::Cause::kWork,
      host_, az_);
  const trace::SpanId bspan = io->span;
  const trace::SpanId rreq = sim_.tracer().StartSpan(
      bspan, "net.read_req", trace::Layer::kBlocks,
      trace::NetCause(az_, dn->az()), host_, az_, dn->az());
  ArmBlockTimer(io);
  network_.Send(host_, dn->host(), 128,
                [this, io, dn, id = io->result.blocks[io->next].block_id,
                 deadline, bspan, rreq] {
                  sim_.tracer().EndSpan(rreq);
                  dn->ReadBlock(
                      id, host_,
                      [this, io, serial = io->serial](Expected<int64_t> got) {
                        if (!EndTransfer(*io, serial)) return;
                        if (!got.ok()) {
                          ReadNextReplica(io);
                          return;
                        }
                        ++io->next;
                        NextBlock(io);
                      },
                      deadline, bspan);
                });
}

// ---- convenience wrappers ----

void HopsFsClient::SubmitForStatus(FsRequest req, StatusCb cb) {
  Submit(std::move(req),
         [cb = std::move(cb)](FsResult res) { cb(res.status); });
}

void HopsFsClient::Mkdir(const std::string& path, StatusCb cb) {
  SubmitForStatus({.op = FsOp::kMkdir, .path = path, .permissions = 0755},
                  std::move(cb));
}

void HopsFsClient::Create(const std::string& path, int64_t size,
                          StatusCb cb) {
  SubmitForStatus({.op = FsOp::kCreate, .path = path, .size = size},
                  std::move(cb));
}

void HopsFsClient::ReadFile(const std::string& path, StatusCb cb) {
  SubmitForStatus({.op = FsOp::kOpenRead, .path = path}, std::move(cb));
}

void HopsFsClient::Stat(const std::string& path, StatusCb cb) {
  SubmitForStatus({.op = FsOp::kStat, .path = path}, std::move(cb));
}

void HopsFsClient::Delete(const std::string& path, StatusCb cb) {
  SubmitForStatus({.op = FsOp::kDelete, .path = path}, std::move(cb));
}

void HopsFsClient::ListDir(const std::string& path, StatusCb cb) {
  SubmitForStatus({.op = FsOp::kListDir, .path = path}, std::move(cb));
}

void HopsFsClient::Rename(const std::string& from, const std::string& to,
                          StatusCb cb) {
  SubmitForStatus({.op = FsOp::kRename, .path = from, .path2 = to},
                  std::move(cb));
}

void HopsFsClient::Chmod(const std::string& path, uint32_t permissions,
                         StatusCb cb) {
  SubmitForStatus(
      {.op = FsOp::kChmod, .path = path, .permissions = permissions},
      std::move(cb));
}

void HopsFsClient::Chown(const std::string& path, const std::string& owner,
                         StatusCb cb) {
  SubmitForStatus({.op = FsOp::kChown, .path = path, .owner = owner},
                  std::move(cb));
}

void HopsFsClient::SetTimes(const std::string& path, Nanos mtime,
                            StatusCb cb) {
  SubmitForStatus({.op = FsOp::kSetTimes, .path = path, .mtime_ns = mtime},
                  std::move(cb));
}

void HopsFsClient::Append(const std::string& path, int64_t bytes,
                          StatusCb cb) {
  SubmitForStatus({.op = FsOp::kAppend, .path = path, .size = bytes},
                  std::move(cb));
}

void HopsFsClient::DeleteRecursive(const std::string& path, StatusCb cb) {
  SubmitForStatus({.op = FsOp::kDeleteRecursive, .path = path},
                  std::move(cb));
}

void HopsFsClient::ContentSummary(const std::string& path, SummaryCb cb) {
  Submit({.op = FsOp::kContentSummary, .path = path},
         [cb = std::move(cb)](FsResult res) {
           cb(res.status, res.cs_files, res.cs_dirs, res.cs_bytes);
         });
}

}  // namespace repro::hopsfs
