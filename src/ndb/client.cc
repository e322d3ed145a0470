#include "ndb/client.h"

#include <algorithm>
#include <cassert>

#include "resilience/deadline.h"
#include "util/logging.h"

namespace repro::ndb {

NdbApiNode::NdbApiNode(NdbCluster& cluster, HostId host,
                       AzId location_domain_id)
    : cluster_(cluster), host_(host), az_(location_domain_id) {
  id_ = cluster_.RegisterApi(this);
}

NdbApiNode::~NdbApiNode() { cluster_.UnregisterApi(id_); }

NodeId NdbApiNode::PickTc(const TableDef* td, TableId table,
                          std::string_view hint_key) {
  auto& layout = cluster_.layout();
  const bool az_aware = cluster_.flags().az_aware && az_ != kNoAz;

  if (td != nullptr && !td->fully_replicated) {
    const PartitionId part = layout.PartitionOf(table, hint_key);
    // Case 1 (Read Backup): any replica of the partition, closest AZ
    // first. Case 3: nodes derived from the partition key; AZ-aware picks
    // the same-AZ member (reads still reroute to the primary), classic
    // NDB the primary replica (distribution awareness).
    if (td->read_backup || az_aware) {
      return layout.PickByProximity(az_, layout.ReplicaChain(part), az_aware,
                                    rr_++);
    }
    return layout.PrimaryOf(part);
  }
  // Case 2 (fully replicated: every node holds the data) and case 4 (no
  // hint): all datanodes ordered by proximity.
  return layout.PickByProximity(az_, layout.all_nodes(), az_aware, rr_++);
}

TxnId NdbApiNode::Begin(TableId hint_table, std::string_view hint_key) {
  return BeginAt(
      PickTc(&cluster_.catalog().table(hint_table), hint_table, hint_key));
}

TxnId NdbApiNode::BeginNoHint() { return BeginAt(PickTc(nullptr, 0, {})); }

TxnId NdbApiNode::BeginAt(NodeId tc) {
  if (tc == kNoNode) return 0;
  const TxnId txn = cluster_.NextTxnId();
  *txns_.Emplace(txn).first = TxnState{tc, false, 0};
  return txn;
}

NdbApiNode::TxnState* NdbApiNode::FindTxn(TxnId txn) {
  return txns_.Find(txn);
}

void NdbApiNode::SetTxnDeadline(TxnId txn, Nanos deadline) {
  if (TxnState* t = FindTxn(txn)) t->deadline = deadline;
}

void NdbApiNode::SetTxnTrace(TxnId txn, trace::SpanId span) {
  if (TxnState* t = FindTxn(txn)) t->span = span;
}

uint64_t NdbApiNode::RegisterOp(TxnId txn, TxnState& t, const char* what,
                                PendingOp op, trace::SpanId* span) {
  op.span = cluster_.sim().tracer().StartSpan(
      t.span, what, trace::Layer::kNdb, trace::Cause::kWork, host_, az_);
  *span = op.span;
  const uint64_t op_id = next_op_id_++;
  op.txn = txn;
  t.inflight += 1;
  // The local timer never outlives the op's deadline, so the op fails
  // exactly at the deadline; a reply cancels it.
  const Nanos timeout = resilience::ClampToDeadline(op_timeout_, t.deadline,
                                                    cluster_.sim().now());
  // The timer resolves the API node by id at fire time: if the node was
  // destroyed in the meantime, the slot is null and the timer is a no-op
  // instead of a use-after-free.
  op.timer = cluster_.sim().After(timeout, [cluster = &cluster_, id = id_,
                                            op_id] {
    NdbApiNode* self = cluster->api(id);
    if (self != nullptr) self->OnOpTimeout(op_id);
  });
  *pending_.Emplace(op_id).first = std::move(op);
  return op_id;
}

void NdbApiNode::OnOpTimeout(uint64_t op_id) {
  PendingOp* p = pending_.Find(op_id);
  if (p == nullptr) return;  // already answered
  ++timeouts_;
  TxnState* t = FindTxn(p->txn);
  if (t != nullptr) t->broken = true;
  // An op that ran out of *deadline* (not the op timeout) reports
  // kDeadlineExceeded so the caller fails fast instead of retrying.
  const bool past_deadline =
      t != nullptr &&
      resilience::DeadlineExpired(t->deadline, cluster_.sim().now());
  if (past_deadline) metrics::Bump(deadline_exceeded_);
  FailOp(op_id, past_deadline ? Code::kDeadlineExceeded : Code::kTimedOut);
}

void NdbApiNode::FailOp(uint64_t op_id, Code code) {
  if (std::optional<PendingOp> op = TakeOp(op_id)) Deliver(*op, code);
}

std::optional<NdbApiNode::PendingOp> NdbApiNode::TakeOp(uint64_t op_id) {
  PendingOp* slot = pending_.Find(op_id);
  if (slot == nullptr) return std::nullopt;
  std::optional<PendingOp> op(std::move(*slot));
  pending_.Erase(op_id);
  cluster_.sim().Cancel(op->timer);
  cluster_.sim().tracer().EndSpan(op->span);
  if (TxnState* t = FindTxn(op->txn)) t->inflight -= 1;
  if (op->erase_txn) txns_.Erase(op->txn);
  return op;
}

void NdbApiNode::Deliver(PendingOp& op, Code code, RowImage value,
                         Rows rows) {
  if (op.read_cb) {
    const bool answered = code == Code::kOk || code == Code::kNotFound;
    op.read_cb(code, answered ? std::move(value) : RowImage());
  }
  if (op.write_cb) op.write_cb(code);
  if (op.scan_cb) op.scan_cb(code, std::move(rows));
}

NdbApiNode::TxnState* NdbApiNode::Admit(TxnId txn, Code* refused) {
  TxnState* t = FindTxn(txn);
  if (t == nullptr || t->broken) {
    *refused = Code::kAborted;
    return nullptr;
  }
  if (!cluster_.cluster_up() || !cluster_.layout().alive(t->tc)) {
    *refused = Code::kUnavailable;
    return nullptr;
  }
  // Fail fast before spending a network round trip on doomed work.
  if (resilience::DeadlineExpired(t->deadline, cluster_.sim().now())) {
    metrics::Bump(deadline_exceeded_);
    *refused = Code::kDeadlineExceeded;
    return nullptr;
  }
  return t;
}

void NdbApiNode::SendKeyOp(TxnId txn, KeyOpReq req, PendingOp op) {
  Code refused = Code::kOk;
  TxnState* t = Admit(txn, &refused);
  if (t == nullptr) {
    Deliver(op, refused);
    return;
  }
  req.txn = txn;
  req.api = id_;
  req.deadline = t->deadline;
  req.op_id = RegisterOp(txn, *t, req.is_write ? "ndb.write" : "ndb.read",
                         std::move(op), &req.span);
  const int64_t bytes = kMsgReadReq + static_cast<int64_t>(req.value.size());
  const trace::SpanId span = req.span;
  SendToTc(t->tc, bytes, SignalKind::kTcKeyOp,
           cluster_.transport().New(std::move(req)), span);
}

void NdbApiNode::Read(TxnId txn, TableId table, Key key, LockMode mode,
                      ReadCb cb) {
  PendingOp op;
  op.read_cb = std::move(cb);
  SendKeyOp(txn, {.table = table, .key = std::move(key), .mode = mode},
            std::move(op));
}

void NdbApiNode::SendWrite(TxnId txn, KeyOpReq req, WriteCb cb) {
  req.is_write = true;
  PendingOp op;
  op.write_cb = std::move(cb);
  SendKeyOp(txn, std::move(req), std::move(op));
}

void NdbApiNode::Insert(TxnId txn, TableId table, Key key, RowImage value,
                        WriteCb cb) {
  SendWrite(txn, {.table = table, .key = std::move(key), .insert_only = true,
                  .value = std::move(value)},
            std::move(cb));
}

void NdbApiNode::Update(TxnId txn, TableId table, Key key, RowImage value,
                        WriteCb cb) {
  SendWrite(txn, {.table = table, .key = std::move(key), .must_exist = true,
                  .value = std::move(value)},
            std::move(cb));
}

void NdbApiNode::Write(TxnId txn, TableId table, Key key, RowImage value,
                       WriteCb cb) {
  SendWrite(txn, {.table = table, .key = std::move(key),
                  .value = std::move(value)},
            std::move(cb));
}

void NdbApiNode::Delete(TxnId txn, TableId table, Key key, WriteCb cb) {
  SendWrite(txn, {.table = table, .key = std::move(key),
                  .write_type = WriteType::kDelete, .must_exist = true},
            std::move(cb));
}

void NdbApiNode::ScanPrefix(TxnId txn, TableId table, Key prefix, ScanCb cb) {
  PendingOp op;
  op.scan_cb = std::move(cb);
  Code refused = Code::kOk;
  TxnState* t = Admit(txn, &refused);
  if (t == nullptr) {
    Deliver(op, refused);
    return;
  }
  ScanReq req{.txn = txn, .api = id_, .table = table,
              .prefix = std::move(prefix), .deadline = t->deadline};
  req.op_id = RegisterOp(txn, *t, "ndb.scan", std::move(op), &req.span);
  const trace::SpanId span = req.span;
  SendToTc(t->tc, kMsgScanReq, SignalKind::kTcScan,
           cluster_.transport().New(std::move(req)), span);
}

void NdbApiNode::Commit(TxnId txn, WriteCb cb) {
  Code refused = Code::kOk;
  TxnState* t = Admit(txn, &refused);
  if (t == nullptr) {
    // A refused commit ends the transaction; an unreachable TC means the
    // transaction is lost.
    Abort(txn);
    cb(refused == Code::kUnavailable ? Code::kAborted : refused);
    return;
  }
  PendingOp op;
  op.write_cb = std::move(cb);
  op.erase_txn = true;  // drop txn state when the commit is answered
  trace::SpanId cspan = 0;
  const uint64_t op_id =
      RegisterOp(txn, *t, "ndb.commit", std::move(op), &cspan);
  SendToTc(t->tc, kMsgSmall, SignalKind::kTcCommit,
           cluster_.transport().New(CommitReq{txn, op_id, id_, cspan}),
           cspan);
}

void NdbApiNode::Abort(TxnId txn) {
  TxnState* t = FindTxn(txn);
  if (t == nullptr) return;
  if (cluster_.layout().alive(t->tc) && cluster_.cluster_up()) {
    SendToTc(t->tc, kMsgSmall, SignalKind::kTcAbort,
             cluster_.transport().New(TxnAck{txn}));
  }
  txns_.Erase(txn);
}

void NdbApiNode::OnOpReply(OpReply reply) {
  std::optional<PendingOp> op = TakeOp(reply.op_id);
  if (!op) return;  // late reply after timeout
  Deliver(*op, reply.code, std::move(reply.value), std::move(reply.rows));
}

}  // namespace repro::ndb
