// Chrome-trace (chrome://tracing / Perfetto) JSON exporter.
//
// Each span becomes one "X" (complete) event: ts/dur in microseconds of
// simulated time, pid = simulated host id, tid = layer. Cause, AZ and
// trace id ride along in args, and process-name metadata events label
// hosts with their AZ so the Perfetto track list reads like the
// deployment diagram. Callers may append their own events (the
// profiler's zone track) to the same traceEvents array.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.h"

namespace repro::trace {

// `extra_events` is a comma-separated run of complete JSON events (no
// brackets), placed after the spans and host metadata.
std::string ChromeTraceJson(const std::vector<Trace>& traces,
                            std::string_view extra_events = {});

}  // namespace repro::trace
