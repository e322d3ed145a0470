// Block storage datanodes (DNs): store 128 MB blocks of large files.
//
// Writes run through a replication pipeline (client -> DN1 -> DN2 -> DN3)
// like HDFS; reads are served from a single replica, which the client
// picks AZ-locally when AZ awareness is on (§IV-C). Re-replication after
// a failure is driven by the leader namenode (§IV-C2) via CopyBlockTo.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/engine.h"
#include "sim/network.h"
#include "sim/resources.h"
#include "trace/trace.h"
#include "util/status.h"

namespace repro::blocks {

using DnId = int32_t;

class BlockDatanode {
 public:
  BlockDatanode(Simulation& sim, Network& network, DnId id, HostId host,
                AzId az);

  DnId id() const { return id_; }
  HostId host() const { return host_; }
  AzId az() const { return az_; }
  bool alive() const { return alive_; }
  void Crash();

  // Client-facing: writes `bytes` of data for `block_id`, replicating down
  // the remaining pipeline. `pipeline` holds the replicas after this one.
  // `deadline` is the client op's absolute deadline (0 = none): work whose
  // deadline already passed is refused before it reaches CPU or disk
  // (deadline propagation, final hop). `span` (0 = unsampled) parents the
  // per-DN cpu/disk spans and the pipeline-stream network spans.
  void WriteBlock(uint64_t block_id, int64_t bytes,
                  std::vector<BlockDatanode*> pipeline,
                  std::function<void(Status)> done, Nanos deadline = 0,
                  trace::SpanId span = 0);

  void ReadBlock(uint64_t block_id, HostId reader_host,
                 std::function<void(Expected<int64_t>)> done,
                 Nanos deadline = 0, trace::SpanId span = 0);

  void DeleteBlock(uint64_t block_id);

  // Re-replication: streams a local replica to `target`.
  void CopyBlockTo(BlockDatanode& target, uint64_t block_id,
                   std::function<void(Status)> done);

  bool HasBlock(uint64_t block_id) const {
    return blocks_.find(block_id) != blocks_.end();
  }
  int64_t block_count() const { return static_cast<int64_t>(blocks_.size()); }
  Disk& disk() { return disk_; }
  const Disk& disk() const { return disk_; }
  // Exposed for telemetry (queue-depth gauge callbacks).
  const ThreadPool& cpu_pool() const { return cpu_; }

 private:
  // Streams `bytes` from this DN's host to `dst` host, then runs `done`.
  // `span` != 0 wraps the whole chunked transfer in one network span.
  void StreamBytes(HostId dst, int64_t bytes, std::function<void()> done,
                   trace::SpanId span = 0);
  // Emits queue/service spans for a cpu/disk booking under `parent`.
  void TraceBooking(trace::SpanId parent, const char* what,
                    trace::Cause cause, const Booking& b);

  Simulation& sim_;
  Network& network_;
  DnId id_;
  HostId host_;
  AzId az_;
  bool alive_ = true;
  ThreadPool cpu_;
  Disk disk_;
  std::unordered_map<uint64_t, int64_t> blocks_;  // id -> bytes
};

// Liveness registry the leader namenode maintains from DN heartbeats.
class DnRegistry {
 public:
  explicit DnRegistry(Nanos heartbeat_timeout) : timeout_(heartbeat_timeout) {}

  void Register(BlockDatanode* dn) {
    dns_.push_back(dn);
    last_heard_.push_back(-1);
  }
  void MarkHeartbeat(DnId dn, Nanos now) { last_heard_[dn] = now; }

  bool AliveAt(DnId dn, Nanos now) const {
    return dns_[dn]->alive() && last_heard_[dn] >= 0 &&
           now - last_heard_[dn] <= timeout_;
  }
  bool EverHeard(DnId dn) const { return last_heard_[dn] >= 0; }

  int size() const { return static_cast<int>(dns_.size()); }
  BlockDatanode* dn(DnId id) const { return dns_[id]; }
  AzId az_of(DnId id) const { return dns_[id]->az(); }

 private:
  Nanos timeout_;
  std::vector<BlockDatanode*> dns_;
  std::vector<Nanos> last_heard_;
};

}  // namespace repro::blocks
