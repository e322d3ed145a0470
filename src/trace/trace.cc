#include "trace/trace.h"

#include <algorithm>
#include <utility>

namespace repro::trace {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kClient: return "client";
    case Layer::kNamenode: return "namenode";
    case Layer::kNdb: return "ndb";
    case Layer::kBlocks: return "blocks";
  }
  return "?";
}

const char* CauseName(Cause cause) {
  switch (cause) {
    case Cause::kWork: return "work";
    case Cause::kCpuQueue: return "cpu_queue";
    case Cause::kCpu: return "cpu";
    case Cause::kDisk: return "disk";
    case Cause::kLockWait: return "lock_wait";
    case Cause::kNetworkIntraAz: return "net_intra_az";
    case Cause::kNetworkInterAz: return "net_inter_az";
    case Cause::kRetry: return "retry";
  }
  return "?";
}

void Tracer::set_keep_last(size_t n) {
  keep_last_ = n;
  while (finished_.size() > keep_last_) finished_.pop_front();
}

std::vector<Trace> Tracer::TakeFinished() {
  std::vector<Trace> out(std::make_move_iterator(finished_.begin()),
                         std::make_move_iterator(finished_.end()));
  finished_.clear();
  return out;
}

SpanId Tracer::StartTrace(std::string_view name, Layer layer, int host,
                          int az) {
  if (sample_every_ == 0) return 0;
  const uint64_t n = ops_seen_++;
  if (n % sample_every_ != 0) return 0;
  const uint64_t serial = ++traces_started_;
  const SpanId id = serial << 32;
  Trace& t = open_[serial];
  t.trace_id = serial;
  t.name.assign(name);
  Span root;
  root.id = id;
  root.parent = 0;
  root.name.assign(name);
  root.layer = layer;
  root.cause = Cause::kWork;
  root.host = host;
  root.az = az;
  root.start = clock_();
  t.spans.push_back(std::move(root));
  return id;
}

SpanId Tracer::StartSpan(SpanId parent, std::string_view name, Layer layer,
                         Cause cause, int host, int az, int dst_az) {
  const Nanos now = clock_();
  return AddSpanAt(parent, name, layer, cause, host, az, now, -1, dst_az);
}

SpanId Tracer::AddSpanAt(SpanId parent, std::string_view name, Layer layer,
                         Cause cause, int host, int az, Nanos start,
                         Nanos end, int dst_az) {
  Trace* t = FindTrace(parent);
  if (t == nullptr) return 0;  // unsampled, or the trace is finalized
  const SpanId id = (parent & ~SpanId{0xffffffffu}) | t->spans.size();
  Span s;
  s.id = id;
  s.parent = parent;
  s.name.assign(name);
  s.layer = layer;
  s.cause = cause;
  s.host = host;
  s.az = az;
  s.dst_az = dst_az;
  s.start = start;
  s.end = end;
  t->spans.push_back(std::move(s));
  return id;
}

Trace* Tracer::FindTrace(SpanId id) {
  if (id == 0) return nullptr;
  auto it = open_.find(TraceSerial(id));
  if (it == open_.end() || SpanIndex(id) >= it->second.spans.size()) {
    return nullptr;
  }
  return &it->second;
}

Span* Tracer::Find(SpanId id) {
  Trace* t = FindTrace(id);
  return t == nullptr ? nullptr : &t->spans[SpanIndex(id)];
}

void Tracer::EndSpanAt(SpanId id, Nanos end) {
  Span* s = Find(id);
  if (s == nullptr || s->end >= s->start) return;  // unknown or closed
  s->end = std::max(end, s->start);
}

void Tracer::EndTrace(SpanId root) {
  if (root == 0 || SpanIndex(root) != 0) return;
  auto it = open_.find(TraceSerial(root));
  if (it == open_.end()) return;
  Trace t = std::move(it->second);
  open_.erase(it);

  Span& r = t.spans.front();
  if (r.end < r.start) r.end = clock_();
  // Clamp: children cannot extend past the root (lost replies, timed-out
  // attempts), nor start before it.
  for (size_t i = 1; i < t.spans.size(); ++i) {
    Span& s = t.spans[i];
    s.start = std::clamp(s.start, r.start, r.end);
    s.end = s.end < s.start ? r.end : std::min(s.end, r.end);
  }
  ++traces_finished_;
  if (sink_) sink_(t);
  if (keep_last_ > 0) {
    finished_.push_back(std::move(t));
    while (finished_.size() > keep_last_) finished_.pop_front();
  }
}

}  // namespace repro::trace
