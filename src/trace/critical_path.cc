#include "trace/critical_path.h"

#include <algorithm>

#include "util/strings.h"

namespace repro::trace {
namespace {

struct Node {
  const Span* span;
  std::vector<int> children;  // creation order — deterministic
};

struct Clipped {
  int node;
  Nanos s, e;
};

// Attributes [lo, hi) of node `idx`'s time. Children are clipped to the
// window; per elementary interval the covering child that ends last (the
// blocker) wins and is recursed into; uncovered intervals belong to the
// node itself.
void Cover(const std::vector<Node>& nodes, int idx, Nanos lo, Nanos hi,
           std::vector<PathSegment>& out) {
  if (hi <= lo) return;
  const Node& n = nodes[idx];
  std::vector<Clipped> kids;
  kids.reserve(n.children.size());
  for (int c : n.children) {
    const Nanos s = std::max(nodes[c].span->start, lo);
    const Nanos e = std::min(nodes[c].span->end, hi);
    if (e > s) kids.push_back({c, s, e});
  }
  if (kids.empty()) {
    out.push_back({n.span, lo, hi});
    return;
  }
  std::vector<Nanos> cuts;
  cuts.reserve(2 * kids.size() + 2);
  cuts.push_back(lo);
  cuts.push_back(hi);
  for (const Clipped& k : kids) {
    cuts.push_back(k.s);
    cuts.push_back(k.e);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    const Nanos a = cuts[i], b = cuts[i + 1];
    int owner = -1;  // index into kids
    for (size_t k = 0; k < kids.size(); ++k) {
      if (kids[k].s > a || kids[k].e < b) continue;
      if (owner < 0 ||
          nodes[kids[k].node].span->end >
              nodes[kids[owner].node].span->end ||
          (nodes[kids[k].node].span->end ==
               nodes[kids[owner].node].span->end &&
           kids[k].node > kids[owner].node)) {
        owner = static_cast<int>(k);
      }
    }
    if (owner < 0) {
      out.push_back({n.span, a, b});
    } else {
      Cover(nodes, kids[owner].node, a, b, out);
    }
  }
}

}  // namespace

std::vector<PathSegment> CriticalPath(const Trace& t) {
  std::vector<PathSegment> out;
  if (t.spans.empty()) return out;
  std::vector<Node> nodes(t.spans.size());
  for (size_t i = 0; i < t.spans.size(); ++i) nodes[i].span = &t.spans[i];
  // A span's parent is its trace's span at the parent id's index.
  for (size_t i = 1; i < t.spans.size(); ++i) {
    const size_t parent = SpanIndex(t.spans[i].parent);
    if (parent < i) nodes[parent].children.push_back(i);
  }
  const Span& root = t.spans.front();
  Cover(nodes, 0, root.start, root.end, out);
  // Merge back-to-back segments owned by the same span (an interval that
  // was split only because a sibling's boundary fell inside it).
  std::vector<PathSegment> merged;
  for (const PathSegment& s : out) {
    if (!merged.empty() && merged.back().span == s.span &&
        merged.back().end == s.start) {
      merged.back().end = s.end;
    } else {
      merged.push_back(s);
    }
  }
  return merged;
}

void BreakdownAggregator::Add(const Trace& t) {
  if (t.spans.empty()) return;
  ++traces_;
  measured_ += t.duration();
  OpBreakdown& op = per_op_[t.name];
  ++op.ops;
  op.total += t.duration();
  op.latency.Record(t.duration());
  for (const PathSegment& seg : CriticalPath(t)) {
    attributed_ += seg.duration();
    op.by_cause[seg.span->cause] += seg.duration();
    op.by_layer[seg.span->layer] += seg.duration();
  }
  for (const Span& s : t.spans) {
    if (s.cause == Cause::kNetworkIntraAz ||
        s.cause == Cause::kNetworkInterAz) {
      az_pair_net_[{s.az, s.dst_az}].Record(s.duration());
    }
  }
}

std::string BreakdownAggregator::Report(size_t top_causes) const {
  std::string out = StrFormat(
      "critical-path breakdown over %lld traces "
      "(attributed %.3f ms, measured %.3f ms)\n",
      static_cast<long long>(traces_), ToMillis(attributed_),
      ToMillis(measured_));
  for (const auto& [name, op] : per_op_) {
    out += StrFormat("  %-12s n=%-6lld mean=%.3fms p99=%.3fms :",
                     name.c_str(), static_cast<long long>(op.ops),
                     ToMillis(op.total) / static_cast<double>(op.ops),
                     ToMillis(op.latency.Percentile(0.99)));
    std::vector<std::pair<Cause, Nanos>> causes(op.by_cause.begin(),
                                                op.by_cause.end());
    std::sort(causes.begin(), causes.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    size_t shown = 0;
    for (const auto& [cause, ns] : causes) {
      if (shown++ >= top_causes) break;
      out += StrFormat(" %s=%.0f%%", CauseName(cause),
                       100.0 * static_cast<double>(ns) /
                           static_cast<double>(std::max<Nanos>(1, op.total)));
    }
    out += '\n';
  }
  if (!az_pair_net_.empty()) {
    out += "  network hops by AZ pair:\n";
    for (const auto& [pair, hist] : az_pair_net_) {
      out += StrFormat("    az%d->az%d  n=%-7lld mean=%.3fms p99=%.3fms\n",
                       pair.first, pair.second,
                       static_cast<long long>(hist.count()),
                       hist.MeanMillis(), ToMillis(hist.Percentile(0.99)));
    }
  }
  return out;
}

}  // namespace repro::trace
