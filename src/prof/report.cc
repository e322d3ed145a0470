#include "prof/report.h"

#include <algorithm>

#include "metrics/counters.h"
#include "util/strings.h"

namespace repro::prof {

namespace {

uint64_t PickSelf(const ZoneStats& s, Metric metric) {
  switch (metric) {
    case Metric::kCpuNs:
      return s.cpu_ns;
    case Metric::kAllocs:
      return s.allocs;
    case Metric::kAllocBytes:
      return s.alloc_bytes;
    case Metric::kSimCpuNs:
      return s.sim_cpu_ns;
    case Metric::kSimDiskBytes:
      return s.sim_disk_bytes;
  }
  return 0;
}

void FoldNode(const Profiler& p, int32_t node, Metric metric,
              std::string* out) {
  if (node > 0) {
    const uint64_t self = PickSelf(p.SelfOf(node), metric);
    if (self > 0) {
      *out += p.PathOf(node, ';');
      *out += ' ';
      *out += std::to_string(self);
      *out += '\n';
    }
  }
  for (int32_t c : p.nodes()[static_cast<size_t>(node)].children) {
    FoldNode(p, c, metric, out);
  }
}

double PerCall(uint64_t total, uint64_t calls) {
  return calls == 0 ? 0.0
                    : static_cast<double>(total) / static_cast<double>(calls);
}

}  // namespace

std::string FoldedStacks(const Profiler& p, Metric metric) {
  std::string out;
  FoldNode(p, 0, metric, &out);
  return out;
}

std::string BudgetTable(const Profiler& p, size_t top_k) {
  auto rows = p.ByName();
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.cpu_ns != b.second.cpu_ns)
      return a.second.cpu_ns > b.second.cpu_ns;
    return a.first < b.first;  // deterministic tie-break
  });
  if (rows.size() > top_k) rows.resize(top_k);

  std::string out = StrFormat(
      "%-28s %12s %10s %10s %10s %10s %12s %12s\n", "zone", "calls", "cpu_ms",
      "us/call", "allocs", "alloc/call", "bytes/call", "sim_cpu_ms");
  for (const auto& [name, s] : rows) {
    out += StrFormat(
        "%-28s %12llu %10.2f %10.2f %10llu %10.2f %12.1f %12.2f\n",
        name.c_str(), static_cast<unsigned long long>(s.calls),
        static_cast<double>(s.cpu_ns) / 1e6,
        PerCall(s.cpu_ns, s.calls) / 1e3,
        static_cast<unsigned long long>(s.allocs), PerCall(s.allocs, s.calls),
        PerCall(s.alloc_bytes, s.calls),
        static_cast<double>(s.sim_cpu_ns) / 1e6);
  }
  return out;
}

std::string ZonesJson(const Profiler& p) {
  std::string out = "{\"zones\":{";
  bool first = true;
  for (const auto& [name, s] : p.ByName()) {
    if (!first) out += ',';
    first = false;
    out += StrFormat(
        "\"%s\":{\"calls\":%llu,\"cpu_ns\":%llu,\"allocs\":%llu,"
        "\"alloc_bytes\":%llu,\"sim_cpu_ns\":%llu,\"sim_disk_bytes\":%llu,"
        "\"allocs_per_call\":%.3f,\"bytes_per_call\":%.1f,"
        "\"cpu_us_per_call\":%.3f}",
        name.c_str(), static_cast<unsigned long long>(s.calls),
        static_cast<unsigned long long>(s.cpu_ns),
        static_cast<unsigned long long>(s.allocs),
        static_cast<unsigned long long>(s.alloc_bytes),
        static_cast<unsigned long long>(s.sim_cpu_ns),
        static_cast<unsigned long long>(s.sim_disk_bytes),
        PerCall(s.allocs, s.calls), PerCall(s.alloc_bytes, s.calls),
        PerCall(s.cpu_ns, s.calls) / 1e3);
  }
  out += "}}";
  return out;
}

std::string ZoneChromeEvents(const Profiler& p, int pid) {
  std::string out;
  bool first = true;
  // The ring is a circular buffer; emit oldest-first for stable output.
  const auto& ring = p.chrome_ring();
  if (ring.empty()) return out;
  const size_t n = ring.size();
  const size_t cap = p.options().chrome_ring_capacity;
  // When the ring wrapped, the oldest entry sits at ring_next_ — but that
  // index is private; reconstruct from dropped count instead: if nothing
  // was dropped the ring is in insertion order already, otherwise the
  // oldest is at (dropped % cap).
  const size_t start = (n < cap) ? 0 : p.chrome_dropped() % cap;
  for (size_t i = 0; i < n; ++i) {
    const Profiler::ChromeEvent& ev = ring[(start + i) % n];
    if (!first) out += ',';
    first = false;
    out += StrFormat(
        "{\"name\":\"%s\",\"cat\":\"prof\",\"ph\":\"X\","
        "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":0,"
        "\"args\":{\"host_ns\":%llu,\"allocs\":%llu,\"bytes\":%llu}}",
        p.PathOf(ev.node, ';').c_str(),
        static_cast<double>(ev.sim_ns) / 1000.0,
        static_cast<double>(ev.host_ns) / 1000.0, pid,
        static_cast<unsigned long long>(ev.host_ns),
        static_cast<unsigned long long>(ev.allocs),
        static_cast<unsigned long long>(ev.bytes));
  }
  out += StrFormat(
      ",{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
      "\"args\":{\"name\":\"profiler (host cost)\"}}",
      pid);
  return out;
}

void RegisterZoneMetrics(Profiler* p, metrics::Registry* registry) {
  p->SetNodeObserver([p, registry](int32_t node) {
    // '/' separator: comma-free and CSV/Prometheus-label safe.
    const metrics::Labels labels{{"zone", p->PathOf(node, '/')}};
    registry->RegisterCallback(
        "prof.zone.cpu_ns", labels, metrics::MetricKind::kCounter,
        [p, node] {
          return static_cast<double>(
              p->nodes()[static_cast<size_t>(node)].total.cpu_ns);
        });
    registry->RegisterCallback(
        "prof.zone.calls", labels, metrics::MetricKind::kCounter, [p, node] {
          return static_cast<double>(
              p->nodes()[static_cast<size_t>(node)].total.calls);
        });
    registry->RegisterCallback(
        "prof.zone.allocs", labels, metrics::MetricKind::kCounter,
        [p, node] {
          return static_cast<double>(
              p->nodes()[static_cast<size_t>(node)].total.allocs);
        });
    registry->RegisterCallback(
        "prof.zone.alloc_bytes", labels, metrics::MetricKind::kCounter,
        [p, node] {
          return static_cast<double>(
              p->nodes()[static_cast<size_t>(node)].total.alloc_bytes);
        });
  });
  // On detach, freeze every zone callback to its final value so a
  // registry that outlives the profiler never calls into freed memory.
  p->SetDetachHook([p, registry] {
    for (size_t i = 1; i < p->nodes().size(); ++i) {
      const metrics::Labels labels{
          {"zone", p->PathOf(static_cast<int32_t>(i), '/')}};
      const ZoneStats& s = p->nodes()[i].total;
      const double cpu = static_cast<double>(s.cpu_ns);
      const double calls = static_cast<double>(s.calls);
      const double allocs = static_cast<double>(s.allocs);
      const double bytes = static_cast<double>(s.alloc_bytes);
      registry->RegisterCallback("prof.zone.cpu_ns", labels,
                                 metrics::MetricKind::kCounter,
                                 [cpu] { return cpu; });
      registry->RegisterCallback("prof.zone.calls", labels,
                                 metrics::MetricKind::kCounter,
                                 [calls] { return calls; });
      registry->RegisterCallback("prof.zone.allocs", labels,
                                 metrics::MetricKind::kCounter,
                                 [allocs] { return allocs; });
      registry->RegisterCallback("prof.zone.alloc_bytes", labels,
                                 metrics::MetricKind::kCounter,
                                 [bytes] { return bytes; });
    }
  });
}

}  // namespace repro::prof
