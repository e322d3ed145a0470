#include "blocks/datanode.h"

#include <algorithm>

#include "resilience/deadline.h"
#include "prof/profiler.h"
#include "util/strings.h"

namespace repro::blocks {

namespace {
constexpr int kCpuThreads = 8;
constexpr Nanos kCpuPerRequest = 30 * kMicrosecond;
// Network chunking: a block transfer is sent as chunks of this size so
// the bandwidth model sees a stream, not one giant message.
constexpr int64_t kChunkBytes = 4 << 20;
}  // namespace

BlockDatanode::BlockDatanode(Simulation& sim, Network& network, DnId id,
                             HostId host, AzId az)
    : sim_(sim), network_(network), id_(id), host_(host), az_(az),
      cpu_(sim, StrFormat("dn%d.cpu", id), kCpuThreads),
      disk_(sim, StrFormat("dn%d.disk", id)) {}

void BlockDatanode::Crash() { alive_ = false; }

void BlockDatanode::TraceBooking(trace::SpanId parent, const char* what,
                                 trace::Cause cause, const Booking& b) {
  if (parent == 0) return;
  trace::Tracer& tr = sim_.tracer();
  if (b.queued() > 0) {
    tr.AddSpanAt(parent, StrFormat("%s.queue", what), trace::Layer::kBlocks,
                 trace::Cause::kCpuQueue, host_, az_, b.submit, b.start);
  }
  tr.AddSpanAt(parent, what, trace::Layer::kBlocks, cause, host_, az_,
               b.start, b.finish);
}

void BlockDatanode::StreamBytes(HostId dst, int64_t bytes,
                                std::function<void()> done,
                                trace::SpanId span) {
  // Chunked transfer: each chunk occupies the NIC/link independently; the
  // completion fires when the last chunk lands.
  trace::SpanId net = 0;
  if (span != 0) {
    const AzId dst_az = network_.topology().az_of(dst);
    net = sim_.tracer().StartSpan(span, "net.stream", trace::Layer::kBlocks,
                                  trace::NetCause(az_, dst_az), host_, az_,
                                  dst_az);
  }
  const int64_t chunks =
      std::max<int64_t>(1, (bytes + kChunkBytes - 1) / kChunkBytes);
  auto remaining = std::make_shared<int64_t>(chunks);
  for (int64_t i = 0; i < chunks; ++i) {
    const int64_t this_chunk = std::min(kChunkBytes, bytes - i * kChunkBytes);
    network_.Send(host_, dst, std::max<int64_t>(this_chunk, 1),
                  [this, remaining, done, net] {
                    if (--*remaining == 0) {
                      sim_.tracer().EndSpan(net);
                      if (done) done();
                    }
                  });
  }
}

void BlockDatanode::WriteBlock(uint64_t block_id, int64_t bytes,
                               std::vector<BlockDatanode*> pipeline,
                               std::function<void(Status)> done,
                               Nanos deadline, trace::SpanId span) {
  PROF_ZONE("blocks.dn.write");
  if (!alive_) return;  // the client's block-transfer timer handles dead DNs
  if (resilience::DeadlineExpired(deadline, sim_.now())) {
    if (done) done(DeadlineExceeded("dn: write past deadline"));
    return;
  }
  const Booking b = cpu_.Submit(
      kCpuPerRequest,
      [this, block_id, bytes, deadline, span,
       pipeline = std::move(pipeline), done = std::move(done)]() mutable {
        if (!alive_) return;
        blocks_[block_id] = bytes;
        const Booking w = disk_.Write(bytes, nullptr);
        TraceBooking(span, "dn.disk_write", trace::Cause::kDisk, w);
        if (pipeline.empty()) {
          if (done) done(OkStatus());
          return;
        }
        BlockDatanode* next = pipeline.front();
        pipeline.erase(pipeline.begin());
        StreamBytes(next->host(), bytes,
                    [next, block_id, bytes, deadline, span,
                     pipeline = std::move(pipeline),
                     done = std::move(done)]() mutable {
                      next->WriteBlock(block_id, bytes, std::move(pipeline),
                                       std::move(done), deadline, span);
                    },
                    span);
      });
  TraceBooking(span, "dn.cpu", trace::Cause::kCpu, b);
}

void BlockDatanode::ReadBlock(uint64_t block_id, HostId reader_host,
                              std::function<void(Expected<int64_t>)> done,
                              Nanos deadline, trace::SpanId span) {
  PROF_ZONE("blocks.dn.read");
  if (!alive_) return;  // the client's block-transfer timer handles dead DNs
  if (resilience::DeadlineExpired(deadline, sim_.now())) {
    done(DeadlineExceeded("dn: read past deadline"));
    return;
  }
  const Booking b = cpu_.Submit(
      kCpuPerRequest,
      [this, block_id, reader_host, span, done = std::move(done)] {
        if (!alive_) return;
        auto it = blocks_.find(block_id);
        if (it == blocks_.end()) {
          done(NotFound(StrFormat("block %llu not on dn %d",
                                  static_cast<unsigned long long>(block_id),
                                  id_)));
          return;
        }
        const int64_t bytes = it->second;
        const Booking r = disk_.Read(bytes, nullptr);
        TraceBooking(span, "dn.disk_read", trace::Cause::kDisk, r);
        StreamBytes(reader_host, bytes, [bytes, done] { done(bytes); },
                    span);
      });
  TraceBooking(span, "dn.cpu", trace::Cause::kCpu, b);
}

void BlockDatanode::DeleteBlock(uint64_t block_id) {
  if (!alive_) return;
  cpu_.Submit(kCpuPerRequest,
              [this, block_id] { blocks_.erase(block_id); });
}

void BlockDatanode::CopyBlockTo(BlockDatanode& target, uint64_t block_id,
                                std::function<void(Status)> done) {
  PROF_ZONE("blocks.dn.copy");
  if (!alive_) return;
  cpu_.Submit(kCpuPerRequest, [this, &target, block_id,
                                        done = std::move(done)]() mutable {
    auto it = blocks_.find(block_id);
    if (it == blocks_.end()) {
      if (done) done(NotFound("source replica missing"));
      return;
    }
    const int64_t bytes = it->second;
    disk_.Read(bytes, nullptr);
    StreamBytes(target.host(), bytes,
                [&target, block_id, bytes, done = std::move(done)]() mutable {
                  target.WriteBlock(block_id, bytes, {}, std::move(done));
                });
  });
}

}  // namespace repro::blocks
