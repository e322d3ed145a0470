// Aggregation and export for the zone profiler (prof/profiler.h):
//
//   * Folded-stack text ("a;b;c <self-value>" per line) consumable by
//     standard flamegraph tooling (flamegraph.pl, speedscope, inferno),
//     for any of the recorded metrics (host CPU, allocs, alloc bytes,
//     booked sim CPU/disk).
//   * A top-K budget table: per-zone calls, CPU-per-op and allocs-per-op
//     — the numbers the protocol-flattening work is measured against.
//   * A zones JSON blob (per-leaf-zone inclusive totals + per-call
//     derived rates) for bench baselines.
//   * Chrome-trace overlay: the profiler's zone-exit ring rendered as a
//     separate "profiler" track merged into the same JSON as the
//     sim-time span trees from src/trace, so host cost overlays protocol
//     structure in Perfetto.
//   * metrics::Registry bridging: every zone path gets callback metrics
//     (prof.zone.{cpu_ns,calls,allocs,alloc_bytes}{zone=...}) the moment
//     it first runs, so the telemetry scraper/exporters pick profiles up
//     for free. On profiler detach the callbacks are frozen to their
//     final values, so a registry outliving the profiler stays safe.
#pragma once

#include <string>

#include "prof/profiler.h"

namespace repro::metrics {
class Registry;
}

namespace repro::prof {

enum class Metric {
  kCpuNs,
  kAllocs,
  kAllocBytes,
  kSimCpuNs,
  kSimDiskBytes,
};

// One "path value" line per zone path with a non-zero *self* value
// (flamegraph folded-stack convention; values are exclusive so the
// flamegraph's widths add up). Lines are emitted in deterministic
// (depth-first tree) order.
std::string FoldedStacks(const Profiler& p, Metric metric);

// Human-readable top-K table of zones aggregated by leaf name, sorted by
// inclusive host CPU descending: calls, cpu, cpu/call, allocs,
// allocs/call, bytes/call, booked sim cpu.
std::string BudgetTable(const Profiler& p, size_t top_k = 20);

// {"zones":{"<name>":{calls, cpu_ns, allocs, ..., allocs_per_call,
// bytes_per_call, cpu_us_per_call}}} aggregated by leaf zone name.
// Deterministic (name-sorted) field order.
std::string ZonesJson(const Profiler& p);

// Comma-separated Chrome-trace "X" event fragment (no brackets) for the
// profiler's zone-exit ring: ts = sim time at the zone's event, dur =
// host microseconds, all on one synthetic `pid` so Perfetto shows a
// dedicated "profiler" track. Empty string when the ring is empty. Pass
// it to trace::ChromeTraceJson as the extra events.
std::string ZoneChromeEvents(const Profiler& p, int pid = 999000);

// Registers callback metrics for every zone path (existing and future)
// of `p` in `registry`, and arms the detach-freeze hook described above.
// `p` and `registry` must outlive the run; `registry` may outlive `p`.
void RegisterZoneMetrics(Profiler* p, metrics::Registry* registry);

}  // namespace repro::prof
