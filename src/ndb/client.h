// NDB API node: the client library the metadata servers link against.
//
// An API node lives on its caller's host (a HopsFS namenode) and owns the
// AZ-aware transaction-coordinator selection policy of §IV-A5: when a
// transaction starts with a partition-key hint, the TC is chosen from the
// nodes holding that partition (distribution-aware transactions), ordered
// by the AZ proximity score — four cases depending on the table options.
// Operations that receive no reply within the op timeout are failed with
// kTimedOut, which is how coordinator failure surfaces to the file system
// (whose retry loop then picks a surviving TC).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/counters.h"
#include "ndb/cluster.h"
#include "ndb/datanode.h"
#include "ndb/types.h"
#include "sim/callback.h"
#include "util/flat_map.h"

namespace repro::ndb {

class NdbApiNode {
 public:
  using ReadCb = SmallCall<void(Code, std::optional<std::string>)>;
  using WriteCb = SmallCall<void(Code)>;
  using Rows = std::vector<std::pair<Key, std::string>>;
  using ScanCb = SmallCall<void(Code, Rows)>;

  // `location_domain_id` is the caller's AZ (§IV-B); kNoAz disables
  // AZ-local preferences for this client.
  NdbApiNode(NdbCluster& cluster, HostId host, AzId location_domain_id);
  // Unregisters from the cluster: timers and in-flight replies that
  // resolve this node by id after destruction find a null slot instead
  // of a dangling pointer.
  ~NdbApiNode();
  NdbApiNode(const NdbApiNode&) = delete;
  NdbApiNode& operator=(const NdbApiNode&) = delete;

  ApiNodeId id() const { return id_; }
  HostId host() const { return host_; }
  AzId az() const { return az_; }

  // Starts a transaction. With a hint, the TC is picked per the four
  // cases of §IV-A5; without one, by proximity over all datanodes
  // (case 4). Returns 0 if no datanode is reachable. The hint is only
  // hashed, never stored, so a borrowed view suffices.
  TxnId Begin(TableId hint_table, std::string_view hint_key);
  TxnId BeginNoHint();

  void Read(TxnId txn, TableId table, Key key, LockMode mode, ReadCb cb);
  void Insert(TxnId txn, TableId table, Key key, std::string value,
              WriteCb cb);
  void Update(TxnId txn, TableId table, Key key, std::string value,
              WriteCb cb);
  // Upsert without existence constraints.
  void Write(TxnId txn, TableId table, Key key, std::string value,
             WriteCb cb);
  void Delete(TxnId txn, TableId table, Key key, WriteCb cb);
  void ScanPrefix(TxnId txn, TableId table, Key prefix, ScanCb cb);

  void Commit(TxnId txn, WriteCb cb);
  void Abort(TxnId txn);

  // Wire-level reply entry point (called by datanodes via the network).
  void OnOpReply(OpReply reply);

  void set_op_timeout(Nanos t) { op_timeout_ = t; }
  int64_t timeouts() const { return timeouts_; }
  // Transactions begun and not yet committed or aborted.
  size_t open_txns() const { return txns_.size(); }

  // Deadline propagation: every op of this transaction carries the
  // deadline on the wire, the per-op timeout is clamped to the remaining
  // budget, and expired ops fail fast with kDeadlineExceeded before any
  // message is sent. 0 clears the deadline.
  void SetTxnDeadline(TxnId txn, Nanos deadline);

  // Trace parent for this transaction's operation spans (the caller's
  // per-attempt span; 0 = not sampled).
  void SetTxnTrace(TxnId txn, trace::SpanId span);

  // Optional deadline-exceeded counter (null = no accounting).
  void set_deadline_counter(metrics::Counter* deadline_exceeded) {
    deadline_exceeded_ = deadline_exceeded;
  }

 private:
  struct TxnState {
    NodeId tc = kNoNode;
    bool broken = false;   // a timeout poisoned this txn
    int inflight = 0;
    Nanos deadline = 0;    // absolute; 0 = none
    trace::SpanId span = 0;  // parent span for op spans (0 = unsampled)
  };
  struct PendingOp {
    TxnId txn = 0;
    ReadCb read_cb;
    WriteCb write_cb;
    ScanCb scan_cb;
    // Commit ops drop the transaction state when answered (success or
    // failure) — a flag instead of a wrapping closure, which would spill
    // the callback to the heap on the hot path.
    bool erase_txn = false;
    trace::SpanId span = 0;  // this op's span, closed at reply/failure
    Simulation::Timer timer;  // the op timeout; cancelled by TakeOp
  };

  NodeId PickTc(const TableDef* td, TableId table, std::string_view hint_key);
  TxnId BeginAt(NodeId tc);
  TxnState* FindTxn(TxnId txn);
  // The one admission check of key ops and scans: the op's transaction,
  // or nullptr with the code it fails with before anything is sent.
  TxnState* Admit(TxnId txn, Code* refused);
  // The one code fan-out: hands an op's outcome to whichever callback it
  // carries (a read's value only with kOk / kNotFound).
  static void Deliver(PendingOp& op, Code code,
                      std::optional<std::string> value = std::nullopt,
                      Rows rows = {});
  // Opens the op's span `what` under the transaction's (its id in
  // *span), registers the op and arms its timeout; returns the op id.
  uint64_t RegisterOp(TxnId txn, TxnState& t, const char* what, PendingOp op,
                      trace::SpanId* span);
  // Removes an unanswered op: cancels its timeout, ends its span, drops
  // it from its transaction's in-flight count (and a commit's
  // transaction state).
  std::optional<PendingOp> TakeOp(uint64_t op_id);
  void OnOpTimeout(uint64_t op_id);
  void FailOp(uint64_t op_id, Code code);
  void SendKeyOp(TxnId txn, KeyOpReq req, PendingOp op);
  // The one write-op builder: Insert/Update/Write/Delete name their
  // KeyOpReq fields; this marks the write and sends it.
  void SendWrite(TxnId txn, KeyOpReq req, WriteCb cb);

  // Sends `sig` (its payload already set) from this API node to TC
  // `tc` through the cluster transport; `parent` != 0 records the hop as
  // a network span under it. In flight, the signal resolves nothing
  // through `this` (the API node may be destroyed meanwhile).
  void SendToTc(NodeId tc, int64_t bytes, SignalKind kind, SignalRef sig,
                trace::SpanId parent = 0) {
    cluster_.transport().Send(std::move(sig), kind, id_, tc, bytes, parent);
  }

  NdbCluster& cluster_;
  ApiNodeId id_;
  HostId host_;
  AzId az_;
  Nanos op_timeout_ = 1500 * kMillisecond;
  metrics::Counter* deadline_exceeded_ = nullptr;

  uint64_t next_op_id_ = 1;
  uint64_t rr_ = 0;
  int64_t timeouts_ = 0;
  // Both keyed by monotonically increasing non-zero ids — safe for the
  // flat map's 0 / ~0 sentinels. Never iterated.
  util::FlatMap64<TxnState> txns_;
  util::FlatMap64<PendingOp> pending_;
};

}  // namespace repro::ndb
