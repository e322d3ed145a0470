// NDB signal transport: every message between NDB endpoints as data.
//
// Real NDB moves fixed-format *signals* between blocks (TC, LDM, the API
// library) through per-thread job buffers; the SEND, RECV, TC and LDM
// threads of Fig. 11 each handle a signal once. The model does the same:
// a `Signal` record carries a kind, a small header (endpoints, wire
// bytes, network-hop span) and one of the request/ack structs below. It
// lives in a pooled slab (sim/record_pool.h), and each stage of a hop
// captures only `{this, ref}` — so a hop re-boxes nothing on the heap,
// and a handler forwards the same record down the prepare, commit and
// complete chains instead of copying the request into a new closure.
//
// `Transport::Send` runs the stages the kind's route calls for:
//
//   datanode -> datanode  SEND/REP submit, wire, RECV/REP/MAIN submit,
//                         handler (same node: handler, synchronously)
//   datanode -> API node  SEND submit, wire, reply callback
//   API node -> datanode  wire, RECV/REP/MAIN submit, TC handler
//   heartbeat            wire, RECV/REP/MAIN submit
//   arbitration          wire (datanode <-> management node)
//
// These are exactly the At/Submit calls of the closure plumbing this
// replaced, issued in the same order, so every pinned seed replays
// byte-identically (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "ndb/row_image.h"
#include "ndb/row_store.h"
#include "ndb/types.h"
#include "sim/engine.h"
#include "sim/record_pool.h"
#include "sim/topology.h"
#include "trace/trace.h"
#include "util/status.h"
#include "util/time.h"

namespace repro::ndb {

class NdbCluster;
class NdbDatanode;

// ---- Wire messages ------------------------------------------------------

// API -> TC: key operation. The API node builds it with designated
// initializers naming only the fields its op uses.
struct KeyOpReq {
  TxnId txn = 0;
  ApiNodeId api = -1;
  uint64_t op_id = 0;
  TableId table = 0;
  Key key{};
  LockMode mode = LockMode::kReadCommitted;  // reads
  bool is_write = false;
  WriteType write_type = WriteType::kPut;
  bool insert_only = false;   // fail with kAlreadyExists if row exists
  bool must_exist = false;    // fail with kNotFound (delete/update strict)
  RowImage value{};           // a put's row (null for reads and deletes)
  // Absolute deadline propagated from the client op (0 = none). The TC
  // rejects work whose deadline already passed instead of routing it.
  Nanos deadline = 0;
  // Trace span of this operation at the API node (0 = not sampled); TC
  // and LDM work on the op parents its spans here.
  trace::SpanId span = 0;
};

// API -> TC: partition-pruned prefix scan (directory listing). The TC
// forwards the same record to the serving LDM.
struct ScanReq {
  TxnId txn = 0;
  ApiNodeId api = -1;
  uint64_t op_id = 0;
  TableId table = 0;
  Key prefix;
  Nanos deadline = 0;       // see KeyOpReq::deadline
  trace::SpanId span = 0;   // see KeyOpReq::span
};

// API -> TC: commit request.
struct CommitReq {
  TxnId txn = 0;
  uint64_t op_id = 0;
  ApiNodeId api = -1;
  trace::SpanId span = 0;  // the client's ndb.commit span
};

// TC/LDM -> API: completion of one operation (or of commit/abort).
struct OpReply {
  TxnId txn = 0;
  uint64_t op_id = 0;
  Code code = Code::kOk;
  RowImage value;                              // reads (null: absent)
  std::vector<std::pair<Key, RowImage>> rows;  // scans
};

// Chain messages (Fig. 2). The TC builds a PrepareReq with designated
// initializers.
struct PrepareReq {
  TxnId txn = 0;
  NodeId tc = kNoNode;
  uint64_t op_id = 0;
  ApiNodeId api = -1;
  TableId table = 0;
  Key key{};
  PartitionId part = 0;
  WriteType type = WriteType::kPut;
  bool insert_only = false;
  bool must_exist = false;
  RowImage value{};
  NodeChain chain{};          // alive replicas, primary first
  int pos = 0;                // index of the receiving replica
  int busy_retries = 0;       // waits on a predecessor's pending write
  trace::SpanId span = 0;     // op span the chain hops trace under
};

struct CommitChainReq {
  TxnId txn = 0;
  NodeId tc = kNoNode;
  TableId table = 0;
  Key key;
  PartitionId part = 0;
  // GCP epoch the TC assigned the whole transaction at commit decision
  // time; every replica stamps its redo record with it, so one commit's
  // records can never straddle a GCP tick.
  int64_t epoch = 0;
  NodeChain chain;
  int pos = 0;  // traverses from chain.size()-1 down to 0 (the primary)
  trace::SpanId span = 0;  // the txn's ndb.commit span
};

struct CompleteReq {
  TxnId txn = 0;
  NodeId tc = kNoNode;
  TableId table = 0;
  Key key;
  PartitionId part = 0;
  int64_t epoch = 0;  // see CommitChainReq::epoch
  bool is_primary = false;
  trace::SpanId span = 0;  // the txn's ndb.commit span
};

// LDM -> TC: the end of a prepare chain (the request rides back whole:
// the TC records the row and its chain from it).
struct PreparedAck {
  PrepareReq req;
  Code code = Code::kOk;
};

// Primary LDM -> TC: outcome of a shared/exclusive read (a lock probe
// reuses PrepareReq's routing fields; `insert_only` marks exclusive).
struct LockedReadAck {
  PrepareReq probe;
  Code code = Code::kOk;
  RowImage value;
};

// TC -> LDM: roll back or unlock one row.
struct RowRef {
  TxnId txn = 0;
  TableId table = 0;
  Key key;
  PartitionId part = 0;
};

// Transaction-scoped control: API abort, LDM Committed/Completed.
struct TxnAck {
  TxnId txn = 0;
};

// Datanode <-> arbitrator (a management node), §IV-A2.
struct ArbRequest {
  std::vector<bool> reachable;
  std::vector<NodeId> suspects;
  Simulation::Timer timeout;  // the requester's; the reply cancels it
};
struct ArbReply {
  bool grant = false;
  std::vector<NodeId> suspects;
  Simulation::Timer timeout;
};

// ---- Signals ------------------------------------------------------------

enum class SignalKind : uint8_t {
  // API node -> TC.
  kTcKeyOp,          // KeyOpReq
  kTcScan,           // ScanReq
  kTcCommit,         // CommitReq
  kTcAbort,          // TxnAck
  // TC -> LDM and LDM -> LDM.
  kCommittedRead,    // KeyOpReq
  kLockedRead,       // PrepareReq (probe)
  kPrepare,          // PrepareReq
  kScanExec,         // ScanReq
  kCommitChain,      // CommitChainReq
  kComplete,         // CompleteReq
  kAbortRow,         // RowRef
  kUnlock,           // RowRef
  // LDM -> TC.
  kLockedReadResult, // LockedReadAck
  kPrepared,         // PreparedAck
  kCommitted,        // TxnAck
  kCompleted,        // TxnAck
  // Datanode -> API node.
  kOpReply,          // OpReply
  // Cluster protocols.
  kHeartbeat,        // no payload
  kArbRequest,       // ArbRequest
  kArbReply,         // ArbReply
};

struct Signal {
  SignalKind kind = SignalKind::kHeartbeat;
  // Endpoints, by the kind's route: datanode ids, API node ids, or a
  // management-node index (arbitration).
  int32_t src = -1;
  int32_t dst = -1;
  int64_t bytes = 0;        // payload bytes on the wire
  trace::SpanId hop = 0;    // network-hop span, open while in flight
  std::variant<std::monostate, KeyOpReq, ScanReq, CommitReq, OpReply,
               PrepareReq, CommitChainReq, CompleteReq, PreparedAck,
               LockedReadAck, RowRef, TxnAck, ArbRequest, ArbReply>
      msg;

  template <typename M>
  M& as() {
    return std::get<M>(msg);
  }
};

using SignalPool = RecordPool<Signal>;
using SignalRef = SignalPool::Ref;

class Transport {
 public:
  explicit Transport(NdbCluster& cluster)
      : cluster_(cluster), pool_(SignalPool::Handle::Make()) {}
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // A fresh record carrying `msg` (address it, then Send).
  template <typename M>
  SignalRef New(M msg) {
    SignalRef sig = pool_->Acquire();
    sig->msg = std::move(msg);
    return sig;
  }

  // Addresses `sig` and runs its route's stages. `parent` is the trace
  // span the network hop is recorded under (0 = none).
  void Send(SignalRef sig, SignalKind kind, int32_t src, int32_t dst,
            int64_t bytes, trace::SpanId parent = 0);

  // The record pool, shared: it outlives the cluster while signals are
  // still queued in the engine.
  const SignalPool::Handle& pool() const { return pool_; }

 private:
  void Wire(HostId from, HostId to, SignalRef sig);
  void Arrive(SignalRef sig);
  // RECV-thread stage at the destination datanode, then Deliver.
  void Receive(SignalRef sig);
  // Hands `sig` to its destination's handler, by kind.
  void Deliver(SignalRef sig);

  NdbCluster& cluster_;
  SignalPool::Handle pool_;
};

}  // namespace repro::ndb
