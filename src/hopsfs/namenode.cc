#include "hopsfs/namenode.h"

#include <algorithm>
#include <cassert>

#include "hopsfs/op_context.h"
#include "prof/profiler.h"
#include "resilience/deadline.h"
#include "util/logging.h"
#include "util/strings.h"

namespace repro::hopsfs {

namespace {
constexpr const char* kLog = "hopsfs.nn";
// Calibrated so one 32-vCPU namenode tops out around the paper's ~27K
// ops/s per NN (1.62M ops/s over 60 NNs, Fig. 5).
constexpr Nanos kOpCpuCost = 1100 * kMicrosecond;
constexpr int kMaxTxnRetries = 10;
// Base, exponent cap and absolute ceiling of the txn retry backoff; total
// backoff is additionally clamped to the op's remaining deadline.
constexpr Nanos kRetryBackoff = 15 * kMillisecond;
constexpr int kRetryBackoffExpCap = 4;
constexpr Nanos kMaxRetryBackoff = 2 * kSecond;
// AIMD admission: completion-latency target and the pause between two
// multiplicative decreases.
constexpr Nanos kAdmissionLatencyTarget = 40 * kMillisecond;
constexpr Nanos kAdmissionDecreaseCooldown = 100 * kMillisecond;
}  // namespace

const char* FsOpName(FsOp op) {
  switch (op) {
    case FsOp::kMkdir: return "mkdir";
    case FsOp::kCreate: return "createFile";
    case FsOp::kOpenRead: return "readFile";
    case FsOp::kStat: return "stat";
    case FsOp::kDelete: return "deleteFile";
    case FsOp::kListDir: return "listDir";
    case FsOp::kRename: return "rename";
    case FsOp::kChmod: return "chmod";
    case FsOp::kChown: return "chown";
    case FsOp::kSetTimes: return "setTimes";
    case FsOp::kAppend: return "append";
    case FsOp::kContentSummary: return "contentSummary";
    case FsOp::kDeleteRecursive: return "deleteSubtree";
  }
  return "?";
}

Namenode::Namenode(Simulation& sim, Network& network,
                   metrics::Registry& registry, ndb::NdbCluster& ndb,
                   const FsTables& tables, int32_t nn_id, HostId host,
                   AzId az, blocks::DnRegistry* dn_registry,
                   blocks::BlockPlacementPolicy* placement,
                   NamenodeConfig config, bool admission)
    : sim_(sim), network_(network), ndb_(ndb), tables_(tables),
      nn_id_(nn_id), host_(host), az_(az), dn_registry_(dn_registry),
      placement_(placement), config_(config), admission_(admission),
      rng_(sim.rng().Split()),
      limiter_(resilience::AimdLimiterConfig{
          config.admission_min_limit, config.admission_max_limit,
          config.admission_initial_limit, kAdmissionLatencyTarget,
          /*backoff_ratio=*/0.9, /*increase_per_ok=*/0.25,
          kAdmissionDecreaseCooldown}) {
  cpu_ = std::make_unique<ThreadPool>(sim, StrFormat("nn%d.cpu", nn_id),
                                      config_.cpu_threads);
  api_ = std::make_unique<ndb::NdbApiNode>(ndb, host, az);
  ctr_shed_ = registry.GetCounter("hopsfs.nn.admission_shed");
  ctr_deadline_ = registry.GetCounter("hopsfs.nn.deadline_exceeded");
  ctr_txn_retries_ = registry.GetCounter("hopsfs.nn.txn_retries");
  api_->set_deadline_counter(registry.GetCounter("ndb.api.deadline_exceeded"));
  // Per-host unavailability-error counter: the health model's error-rate
  // signal (scraped alongside the host.up / host.queue_ns / host.ops
  // callbacks the deployment registers).
  ctr_host_errors_ = registry.GetCounter(
      "host.errors",
      metrics::Labels{{"az", std::to_string(az)},
                      {"host", network.topology().name_of(host)}});
  if (dn_registry_ != nullptr) {
    dn_known_dead_.assign(dn_registry_->size(), false);
  }
}

void Namenode::Crash() {
  alive_ = false;
  network_.topology().SetHostUp(host_, false);
  Stop();
}

void Namenode::Start() {
  // Stagger the election rounds across namenodes: synchronised rounds
  // would race every scan against every heartbeat write and make the
  // membership view flap.
  const Nanos phase = static_cast<Nanos>(
      rng_.NextBelow(static_cast<uint64_t>(kLeaderInterval)));
  LeaderElectionRound();  // have a leader quickly after start-up
  start_timer_ = sim_.After(phase, [this] {
    LeaderElectionRound();
    le_timer_ = sim_.Every(kLeaderInterval, [this] { LeaderElectionRound(); });
  });
}

// Every timer of this namenode stops here, so no timer body runs on a
// crashed namenode.
void Namenode::Stop() {
  sim_.Cancel(start_timer_);
  le_timer_.Cancel();
  rep_timer_.Cancel();
  is_leader_ = false;
}

void Namenode::OnDnHeartbeat(blocks::DnId dn) {
  if (dn_registry_ != nullptr) dn_registry_->MarkHeartbeat(dn, sim_.now());
}

void Namenode::PrimePathCache(const std::string& path, InodeId id,
                              const std::string& row_key) {
  path_cache_[path] = CachedPath{id, row_key};
}

// ---------------------------------------------------------------------------
// Request plumbing
// ---------------------------------------------------------------------------

void Namenode::HandleRequest(FsRequest req, FsResultCb done) {
  if (!alive_) return;  // the client's RPC timeout covers dead servers
  const Nanos now = sim_.now();
  // Deadline check *before* queueing: an op whose remaining budget cannot
  // even cover the CPU queue is doomed — fail fast instead of wasting a
  // thread slot on it (deadline propagation, hop 2).
  if (resilience::HasDeadline(req.deadline) &&
      now + cpu_->Backlog() + kOpCpuCost >= req.deadline) {
    metrics::Bump(ctr_deadline_);
    done(FsResult{DeadlineExceeded("nn: queue would overrun deadline")});
    return;
  }
  auto ctx = std::make_shared<OpCtx>();
  ctx->req = std::move(req);
  ctx->done = std::move(done);
  // Admission control: shed excess load with a retryable OVERLOADED
  // status honoured by the client's retry budget, instead of queueing
  // unboundedly and collapsing.
  if (admission_) {
    if (!limiter_.TryAcquire()) {
      metrics::Bump(ctr_shed_);
      ctx->done(FsResult{ResourceExhausted("nn: overloaded, shedding")});
      return;
    }
    ctx->admitted = true;
    ctx->admit_time = now;
  }
  const Booking b = cpu_->Submit(kOpCpuCost, [this, ctx] {
    if (alive_) RunAttempt(ctx);
  });
  if (ctx->req.span != 0) {
    trace::Tracer& tr = sim_.tracer();
    if (b.queued() > 0) {
      tr.AddSpanAt(ctx->req.span, "nn.queue", trace::Layer::kNamenode,
                   trace::Cause::kCpuQueue, host_, az_, b.submit, b.start);
    }
    tr.AddSpanAt(ctx->req.span, "nn.cpu", trace::Layer::kNamenode,
                 trace::Cause::kCpu, host_, az_, b.start, b.finish);
  }
}

void Namenode::Finish(OpPtr ctx, FsResult result) {
  sim_.tracer().EndSpan(ctx->txn_span);
  ctx->txn_span = 0;
  if (ctx->admitted) {
    ctx->admitted = false;
    limiter_.Release(sim_.now() - ctx->admit_time, sim_.now());
  }
  if (result.status.code() == Code::kDeadlineExceeded) {
    metrics::Bump(ctr_deadline_);
  }
  // Health signal: final unavailability-class failures served by this
  // host (admission sheds are flow control, not host sickness, and are
  // counted separately above).
  if (result.status.counts_against_availability()) {
    metrics::Bump(ctr_host_errors_);
  }
  ++ops_served_;
  ctx->done(std::move(result));
}

void Namenode::MaybeRetry(OpPtr ctx, const Status& failure) {
  sim_.tracer().EndSpan(ctx->txn_span);
  ctx->txn_span = 0;
  if (ctx->txn != 0) {
    api_->Abort(ctx->txn);
    ctx->txn = 0;
  }
  // A NotFound under a cached path hint may only mean the hint was stale
  // (rename/delete elsewhere): drop the cache and re-resolve once.
  if (failure.code() == Code::kNotFound && ctx->used_cache &&
      !ctx->cache_retry_done) {
    ctx->cache_retry_done = true;
    path_cache_.clear();
    RunAttempt(ctx);
    return;
  }
  const Nanos now = sim_.now();
  if (resilience::DeadlineExpired(ctx->req.deadline, now)) {
    Finish(ctx, FsResult{DeadlineExceeded("nn: deadline passed during txn")});
    return;
  }
  if (!failure.retryable() || ctx->attempt >= kMaxTxnRetries) {
    Finish(ctx, FsResult{failure});
    return;
  }
  // Retry with exponential backoff + jitter: HopsFS's backpressure to
  // NDB. Cap and ceiling are configurable, and the wait never exceeds
  // the op's remaining deadline (a retry scheduled past the deadline
  // would burn a slot on work nobody is waiting for).
  ++txn_retries_;
  metrics::Bump(ctr_txn_retries_);
  const Nanos backoff = resilience::RetryBackoff(
      kRetryBackoff, ctx->attempt, kRetryBackoffExpCap, kMaxRetryBackoff,
      static_cast<Nanos>(rng_.NextBelow(kRetryBackoff)),
      ctx->req.deadline, now);
  sim_.tracer().AddSpanAt(ctx->req.span, "nn.retry_backoff",
                          trace::Layer::kNamenode, trace::Cause::kRetry,
                          host_, az_, now, now + backoff);
  sim_.After(backoff, [this, ctx] {
    if (alive_) RunAttempt(ctx);
  });
}

// A cache-missing path resolution: one committed read per component.
struct Namenode::PathWalk {
  std::vector<std::string_view> parts;  // views into the op's request
  size_t next = 0;                      // component read next
  InodeId dir = kRootInode;             // the last resolved directory
  std::string row_key = InodeKey(0, "");  // ... and its row key
  Resolved then = nullptr;
};

void Namenode::ResolveDir(OpPtr ctx, std::string_view path, Resolved then) {
  if (path == "/") {
    (this->*then)(ctx, kRootInode, InodeKey(0, ""));
    return;
  }
  // Fast path: HopsFS resolves cached path prefixes from the NN-side
  // inode hint cache without re-reading the upper directories — re-reading
  // "/user"-style top components on every operation would funnel the whole
  // cluster's load onto one partition's LDM thread. The hint is validated
  // implicitly: the operation's own locked read on the target/parent row
  // (keyed "parentId/name") misses if the hint went stale, which flows
  // through MaybeRetry's cache-flush-and-re-resolve path.
  auto hit = path_cache_.find(path);
  if (hit != path_cache_.end()) {
    ctx->used_cache = true;
    (this->*then)(ctx, hit->second.id, hit->second.row_key);
    return;
  }
  auto w = std::make_shared<PathWalk>();
  w->parts = SplitPath(path);
  w->then = then;
  WalkPath(std::move(ctx), std::move(w));
}

void Namenode::WalkPath(OpPtr ctx, std::shared_ptr<PathWalk> w) {
  if (w->next == w->parts.size()) {
    (this->*w->then)(ctx, w->dir, w->row_key);
    return;
  }
  w->row_key = InodeKey(w->dir, w->parts[w->next]);
  api_->Read(
      ctx->txn, tables_.inodes, w->row_key, ndb::LockMode::kReadCommitted,
      [this, ctx, w](Code code, ndb::RowImage value) {
        if (code != Code::kOk) {
          MaybeRetry(ctx, Status(code, "path read failed"));
          return;
        }
        if (!value) {
          if (ctx->used_cache) {
            MaybeRetry(ctx, NotFound("path component missing"));
          } else {
            Fail(ctx, NotFound("path component missing"));
          }
          return;
        }
        InodeRow row;
        if (!InodeRow::Decode(value.view(), &row) || !row.is_dir) {
          Fail(ctx, FailedPrecondition("path component is not a directory"));
          return;
        }
        // Cache this prefix: "/p0/.../pi" -> row.id.
        std::string prefix;
        for (size_t k = 0; k <= w->next; ++k) {
          prefix += '/';
          prefix += w->parts[k];
        }
        path_cache_[prefix] = CachedPath{row.id, w->row_key};
        w->dir = row.id;
        ++w->next;
        WalkPath(ctx, w);
      });
}

// ---------------------------------------------------------------------------
// Operation dispatch
// ---------------------------------------------------------------------------

void Namenode::RunAttempt(OpPtr ctx) {
  PROF_ZONE("nn.op.dispatch");
  if (resilience::DeadlineExpired(ctx->req.deadline, sim_.now())) {
    Finish(ctx,
           FsResult{DeadlineExceeded("nn: deadline passed before attempt")});
    return;
  }
  ++ctx->attempt;
  ctx->used_cache = false;
  ctx->arena.Reset();
  ctx->join = WriteJoin{};
  ctx->removed_blocks.clear();
  ctx->result = FsResult{};
  // One span per transaction attempt; NDB op spans hang under it via
  // SetTxnTrace below.
  ctx->txn_span = sim_.tracer().StartSpan(
      ctx->req.span, "nn.txn", trace::Layer::kNamenode, trace::Cause::kWork,
      host_, az_);

  const std::string_view path = ctx->req.path;
  std::string_view parent;
  if (path == "/") {
    parent = {};
    ctx->base = {};
  } else {
    // Both views alias req.path, which is stable for the op's lifetime.
    auto [p, b] = SplitParentView(path);
    parent = p;
    ctx->base = b;
  }

  // Start the transaction with the best partition-key hint available.
  // Built in the arena: the hint is only hashed by Begin, never stored.
  std::string_view hint;
  if (path == "/") {
    hint = ctx->arena.InodeKeyIn(0, "");
  } else {
    auto it = path_cache_.find(parent);
    hint = ctx->arena.InodeKeyIn(
        it != path_cache_.end() ? it->second.id : kRootInode, ctx->base);
  }
  ctx->txn = api_->Begin(tables_.inodes, hint);
  if (ctx->txn == 0) {
    MaybeRetry(ctx, Unavailable("no NDB datanode reachable"));
    return;
  }
  // Deadline propagation, hop 3: every NDB op of this transaction carries
  // the deadline and clamps its timeout to the remaining budget.
  api_->SetTxnDeadline(ctx->txn, ctx->req.deadline);
  api_->SetTxnTrace(ctx->txn, ctx->txn_span);

  if (path == "/") {
    // Target is the root itself.
    ctx->dir = 0;
    ctx->dir_row_key = {};
    Dispatch(ctx);
    return;
  }
  ResolveDir(ctx, parent, &Namenode::ParentResolved);
}

void Namenode::ParentResolved(OpPtr ctx, InodeId dir,
                              std::string_view row_key) {
  ctx->dir = dir;
  // The view may alias the path cache or the walk's key; pin a copy the
  // deferred transaction callbacks can use.
  ctx->dir_row_key = ctx->arena.Intern(row_key);
  Dispatch(ctx);
}

void Namenode::Dispatch(OpPtr ctx) {
  switch (ctx->req.op) {
    case FsOp::kMkdir: DoMkdir(ctx); return;
    case FsOp::kCreate: DoCreate(ctx); return;
    case FsOp::kOpenRead: DoOpenRead(ctx); return;
    case FsOp::kStat: DoStat(ctx); return;
    case FsOp::kDelete: DoDelete(ctx); return;
    case FsOp::kListDir: DoListDir(ctx); return;
    case FsOp::kRename: DoRename(ctx); return;
    case FsOp::kChmod:
    case FsOp::kChown:
    case FsOp::kSetTimes: DoSetAttr(ctx); return;
    case FsOp::kAppend: DoAppend(ctx); return;
    case FsOp::kContentSummary: DoContentSummary(ctx); return;
    case FsOp::kDeleteRecursive: DoDeleteRecursive(ctx); return;
  }
}

// The per-operation transaction bodies live in namenode_ops.cc; the
// leadership protocols in leader.cc.

}  // namespace repro::hopsfs
