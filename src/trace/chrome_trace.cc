#include "trace/chrome_trace.h"

#include <map>

#include "util/strings.h"

namespace repro::trace {

std::string ChromeTraceJson(const std::vector<Trace>& traces,
                            std::string_view extra_events) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  std::map<int, int> host_az;  // host -> az, for process-name metadata
  for (const Trace& t : traces) {
    for (const Span& s : t.spans) {
      if (s.host >= 0 && !host_az.count(s.host)) host_az[s.host] = s.az;
      if (!first) out += ',';
      first = false;
      // ts/dur in integer-nanosecond-precise microseconds.
      out += StrFormat(
          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,"
          "\"args\":{\"cause\":\"%s\",\"az\":%d,\"dst_az\":%d,"
          "\"trace_id\":%llu,\"span_id\":%llu}}",
          s.name.c_str(), LayerName(s.layer),
          static_cast<double>(s.start) / 1000.0,
          static_cast<double>(s.duration()) / 1000.0,
          s.host, static_cast<int>(s.layer), CauseName(s.cause), s.az,
          s.dst_az, static_cast<unsigned long long>(t.trace_id),
          static_cast<unsigned long long>(s.id));
    }
  }
  for (const auto& [host, az] : host_az) {
    if (!first) out += ',';
    first = false;
    out += StrFormat(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
        "\"args\":{\"name\":\"host%d az%d\"}}",
        host, host, az);
  }
  if (!extra_events.empty()) {
    if (!first) out += ',';
    out += extra_events;
  }
  out += "]}";
  return out;
}

}  // namespace repro::trace
