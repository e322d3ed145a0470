#include "ndb/transport.h"

#include "ndb/client.h"
#include "ndb/cluster.h"
#include "ndb/datanode.h"

namespace repro::ndb {

namespace {

// Per-message cost on the RECV thread type.
constexpr Nanos kRecvPerMsg = 2 * kMicrosecond;

enum class Route { kNodeToNode, kNodeToApi, kApiToNode, kHeartbeat, kArb };

Route RouteOf(SignalKind kind) {
  switch (kind) {
    case SignalKind::kTcKeyOp:
    case SignalKind::kTcScan:
    case SignalKind::kTcCommit:
    case SignalKind::kTcAbort:
      return Route::kApiToNode;
    case SignalKind::kOpReply:
      return Route::kNodeToApi;
    case SignalKind::kHeartbeat:
      return Route::kHeartbeat;
    case SignalKind::kArbRequest:
    case SignalKind::kArbReply:
      return Route::kArb;
    default:
      return Route::kNodeToNode;
  }
}

}  // namespace

void Transport::Send(SignalRef sig, SignalKind kind, int32_t src, int32_t dst,
                     int64_t bytes, trace::SpanId parent) {
  sig->kind = kind;
  sig->src = src;
  sig->dst = dst;
  sig->bytes = bytes;
  sig->hop = 0;
  trace::Tracer& tracer = cluster_.tracer();
  switch (RouteOf(kind)) {
    case Route::kNodeToNode: {
      NdbDatanode& from = cluster_.datanode(src);
      if (!from.accepting()) return;
      if (dst == src) {
        // In-process signal between the TC and LDM blocks of one node.
        Deliver(std::move(sig));
        return;
      }
      ThreadPool& pool = from.SendStagePool();
      const AzId dst_az = cluster_.layout().az_of(dst);
      sig->hop = tracer.StartSpan(parent, "net.hop", trace::Layer::kNdb,
                                  trace::NetCause(from.az(), dst_az),
                                  from.host(), from.az(), dst_az);
      pool.Submit(kSendPerMsg, [this, sig = std::move(sig)]() mutable {
        const HostId from_host = cluster_.datanode(sig->src).host();
        const HostId to_host = cluster_.datanode(sig->dst).host();
        Wire(from_host, to_host, std::move(sig));
      });
      return;
    }
    case Route::kNodeToApi: {
      NdbDatanode& from = cluster_.datanode(src);
      if (!from.accepting()) return;
      const NdbApiNode* to = cluster_.api(dst);
      if (to != nullptr) {
        sig->hop = tracer.StartSpan(parent, "net.reply", trace::Layer::kNdb,
                                    trace::NetCause(from.az(), to->az()),
                                    from.host(), from.az(), to->az());
      }
      from.send_->Submit(kSendPerMsg,
                         [this, sig = std::move(sig)]() mutable {
        // Re-resolve: the API node can be destroyed while the reply
        // waits for the SEND thread, and its slot is nulled on
        // unregister.
        const NdbApiNode* a = cluster_.api(sig->dst);
        if (a == nullptr) return;
        const HostId from_host = cluster_.datanode(sig->src).host();
        Wire(from_host, a->host(), std::move(sig));
      });
      return;
    }
    case Route::kApiToNode: {
      const NdbApiNode& from = *cluster_.api(src);
      const AzId dst_az = cluster_.layout().az_of(dst);
      sig->hop = tracer.StartSpan(parent, "net.api_tc", trace::Layer::kNdb,
                                  trace::NetCause(from.az(), dst_az),
                                  from.host(), from.az(), dst_az);
      Wire(from.host(), cluster_.datanode(dst).host(), std::move(sig));
      return;
    }
    case Route::kHeartbeat:
      Wire(cluster_.datanode(src).host(), cluster_.datanode(dst).host(),
           std::move(sig));
      return;
    case Route::kArb:
      if (kind == SignalKind::kArbRequest) {
        Wire(cluster_.datanode(src).host(), cluster_.mgmt(dst).host(),
             std::move(sig));
      } else {
        Wire(cluster_.mgmt(src).host(), cluster_.datanode(dst).host(),
             std::move(sig));
      }
      return;
  }
}

void Transport::Wire(HostId from, HostId to, SignalRef sig) {
  const int64_t bytes = sig->bytes;
  cluster_.network().Send(from, to, bytes,
                          [this, sig = std::move(sig)]() mutable {
                            Arrive(std::move(sig));
                          });
}

void Transport::Arrive(SignalRef sig) {
  switch (RouteOf(sig->kind)) {
    case Route::kNodeToNode:
    case Route::kApiToNode:
    case Route::kHeartbeat:
      cluster_.tracer().EndSpan(sig->hop);
      Receive(std::move(sig));
      return;
    case Route::kNodeToApi: {
      cluster_.tracer().EndSpan(sig->hop);
      NdbApiNode* a = cluster_.api(sig->dst);
      if (a != nullptr) a->OnOpReply(std::move(sig->as<OpReply>()));
      return;
    }
    case Route::kArb:
      Deliver(std::move(sig));
      return;
  }
}

void Transport::Receive(SignalRef sig) {
  NdbDatanode& to = cluster_.datanode(sig->dst);
  if (!to.accepting()) return;
  ThreadPool& pool = to.RecvStagePool();
  pool.Submit(kRecvPerMsg,
              [this, sig = std::move(sig)]() mutable {
                if (cluster_.datanode(sig->dst).accepting()) {
                  Deliver(std::move(sig));
                }
              });
}

void Transport::Deliver(SignalRef sig) {
  switch (sig->kind) {
    case SignalKind::kArbRequest:
      cluster_.OnArbRequest(std::move(sig));
      return;
    case SignalKind::kArbReply:
      cluster_.OnArbReply(*sig);
      return;
    case SignalKind::kHeartbeat:
      cluster_.OnHeartbeat(sig->src, sig->dst);
      return;
    case SignalKind::kOpReply:
      return;  // delivered on arrival (no RECV stage at an API node)
    default:
      break;
  }
  NdbDatanode& n = cluster_.datanode(sig->dst);
  switch (sig->kind) {
    case SignalKind::kTcKeyOp:
      n.TcKeyOp(std::move(sig));
      return;
    case SignalKind::kTcScan:
      n.TcScan(std::move(sig));
      return;
    case SignalKind::kTcCommit: {
      const CommitReq& c = sig->as<CommitReq>();
      n.TcCommit(c.txn, c.op_id, c.api, c.span);
      return;
    }
    case SignalKind::kTcAbort:
      n.TcAbort(sig->as<TxnAck>().txn);
      return;
    case SignalKind::kCommittedRead:
      n.LdmCommittedRead(std::move(sig));
      return;
    case SignalKind::kLockedRead:
      n.LdmLockedRead(std::move(sig));
      return;
    case SignalKind::kPrepare:
      n.LdmPrepare(std::move(sig));
      return;
    case SignalKind::kScanExec:
      n.LdmScanExec(std::move(sig));
      return;
    case SignalKind::kCommitChain:
      n.LdmCommitChain(std::move(sig));
      return;
    case SignalKind::kComplete:
      n.LdmComplete(std::move(sig));
      return;
    case SignalKind::kAbortRow:
      n.LdmAbortRow(std::move(sig));
      return;
    case SignalKind::kUnlock:
      n.LdmUnlock(std::move(sig));
      return;
    case SignalKind::kLockedReadResult:
      n.TcLockedReadResult(std::move(sig));
      return;
    case SignalKind::kPrepared:
      n.TcPrepared(std::move(sig));
      return;
    case SignalKind::kCommitted:
      n.TcCommitted(sig->as<TxnAck>().txn);
      return;
    case SignalKind::kCompleted:
      n.TcCompleted(sig->as<TxnAck>().txn);
      return;
    default:
      return;
  }
}

}  // namespace repro::ndb
