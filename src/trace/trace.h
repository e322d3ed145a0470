// Deterministic distributed tracing for the simulated deployment.
//
// Every sampled operation carries a span tree from the client through the
// namenode, the NDB transaction-coordinator chain (prepare / commit /
// complete, per-replica hops) down to the block datanodes. Spans are
// recorded in *simulated* time, so a trace is bit-for-bit replayable from
// the run's seed (REPRO_LOG workflows) — there is no wall-clock anywhere.
//
// Sampling is a deterministic 1-in-N counter rather than an RNG draw:
// drawing from the simulation RNG would shift every subsequent random
// number and change the run being observed. An unsampled operation gets
// SpanId 0 and every tracer call with a zero parent is a cheap no-op, so
// full-rate benches pay near-zero cost with sampling off or sparse.
//
// Cause taxonomy (see DESIGN.md §10): each span is tagged with where the
// nanoseconds went — intra/inter-AZ network, CPU queueing vs execution,
// disk, lock wait, or retry/backoff introduced by the resilience
// stack — which is what the critical-path analyzer aggregates.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/time.h"

namespace repro::trace {

// A span id names its trace and its place in it: the trace's serial
// number (from 1) in the high 32 bits, the span's index in Trace::spans
// in the low 32. The root is index 0. 0 = "not sampled" / no span.
using SpanId = uint64_t;

inline uint64_t TraceSerial(SpanId id) { return id >> 32; }
inline size_t SpanIndex(SpanId id) { return id & 0xffffffffu; }

enum class Layer : uint8_t { kClient, kNamenode, kNdb, kBlocks };

enum class Cause : uint8_t {
  kWork,            // the span's own logic (uncovered residue on the path)
  kCpuQueue,        // waiting for a FIFO thread-pool slot
  kCpu,             // executing on a thread pool
  kDisk,            // disk access + transfer
  kLockWait,        // row-lock manager wait
  kNetworkIntraAz,  // message delay within one availability zone
  kNetworkInterAz,  // message delay across availability zones
  kRetry,           // retry / backoff from the resilience stack
};

const char* LayerName(Layer layer);
const char* CauseName(Cause cause);

// Cause tag for a message between two availability zones.
inline Cause NetCause(int src_az, int dst_az) {
  return src_az == dst_az ? Cause::kNetworkIntraAz : Cause::kNetworkInterAz;
}

struct Span {
  SpanId id = 0;
  SpanId parent = 0;  // 0 for the root span
  std::string name;
  Layer layer = Layer::kClient;
  Cause cause = Cause::kWork;
  int host = -1;
  int az = -1;
  int dst_az = -1;  // network spans: destination AZ, else -1
  Nanos start = 0;
  Nanos end = -1;  // -1 while open; clamped to the root end at finalize

  Nanos duration() const { return end < start ? 0 : end - start; }
};

struct Trace {
  uint64_t trace_id = 0;  // the trace's serial number
  std::string name;  // root operation name, e.g. "mkdir"
  std::vector<Span> spans;  // spans[0] is the root; creation order after

  const Span& root() const { return spans.front(); }
  Nanos duration() const {
    return spans.empty() ? 0 : spans.front().duration();
  }
};

class Tracer {
 public:
  using Clock = std::function<Nanos()>;
  using Sink = std::function<void(const Trace&)>;

  explicit Tracer(Clock clock) : clock_(std::move(clock)) {}

  // Sampling knob: 0 disables tracing, 1 samples every operation, N
  // samples one in N (deterministic counter, no RNG draws).
  void set_sample_every(uint64_t n) { sample_every_ = n; }
  uint64_t sample_every() const { return sample_every_; }
  bool enabled() const { return sample_every_ > 0; }

  // Streaming consumer invoked on every finalized trace (aggregators,
  // chaos dumpers). May be null.
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  // Bounded ring of finalized traces kept for later export (default 256).
  void set_keep_last(size_t n);
  const std::deque<Trace>& finished() const { return finished_; }
  std::vector<Trace> TakeFinished();

  uint64_t ops_seen() const { return ops_seen_; }
  uint64_t traces_started() const { return traces_started_; }
  uint64_t traces_finished() const { return traces_finished_; }

  // Starts a root span for one operation; returns 0 when the operation is
  // not sampled. All other calls tolerate a zero parent/id and no-op.
  SpanId StartTrace(std::string_view name, Layer layer, int host, int az);

  // Opens a child span at the current sim time.
  SpanId StartSpan(SpanId parent, std::string_view name, Layer layer,
                   Cause cause, int host, int az, int dst_az = -1);

  // Records an already-bounded span (thread-pool queue/service bookings,
  // disk service windows) without open/close bookkeeping.
  SpanId AddSpanAt(SpanId parent, std::string_view name, Layer layer,
                   Cause cause, int host, int az, Nanos start, Nanos end,
                   int dst_az = -1);

  void EndSpan(SpanId id) { EndSpanAt(id, clock_()); }
  // Ends with an explicit timestamp (must be >= the span start).
  void EndSpanAt(SpanId id, Nanos end);

  // Finalizes the trace owning `root`: the root closes at the current sim
  // time, any span still open (an attempt that timed out, a message
  // lost to a fault) is clamped to the root's end, and the completed
  // trace is handed to the sink and the finished ring. Span ids of a
  // finalized trace become inert — late EndSpan calls are no-ops, which
  // is exactly what a timed-out attempt's late reply should see. Serial
  // numbers are never reused, so a later trace never answers to them.
  void EndTrace(SpanId root);

 private:
  // The open trace `id` belongs to, or null once it is finalized.
  Trace* FindTrace(SpanId id);
  Span* Find(SpanId id);

  Clock clock_;
  Sink sink_;
  uint64_t sample_every_ = 0;  // tracing off by default
  uint64_t ops_seen_ = 0;
  uint64_t traces_started_ = 0;  // also the last serial number issued
  uint64_t traces_finished_ = 0;
  size_t keep_last_ = 256;
  std::unordered_map<uint64_t, Trace> open_;  // serial -> trace being built
  std::deque<Trace> finished_;
};

}  // namespace repro::trace
