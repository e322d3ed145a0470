#include "metrics/timeseries.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <sys/stat.h>

#include "util/strings.h"

namespace repro::metrics {

void TimeSeries::Record(Nanos t) {
  assert(t >= 0 && "TimeSeries samples must carry non-negative sim time");
  // Half-open bucketing: t == i*kWindow lands in window i (see header).
  const size_t idx = static_cast<size_t>(t / kWindow);
  if (idx >= windows_.size()) {
    const size_t old = windows_.size();
    windows_.resize(idx + 1);
    for (size_t i = old; i < windows_.size(); ++i) {
      windows_[i].start = static_cast<Nanos>(i) * kWindow;
    }
  }
  windows_[idx].count += 1;
}

std::string CsvText(
    const std::vector<std::pair<std::string, std::vector<double>>>& columns) {
  size_t rows = 0;
  for (const auto& [name, series] : columns) {
    rows = std::max(rows, series.size());
  }
  std::string out;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c) out += ',';
    out += columns[c].first;
  }
  out += '\n';
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c) out += ',';
      const auto& series = columns[c].second;
      // NaN marks "no data" (e.g. an empty latency window): emit a blank
      // cell so plots show a gap instead of a bogus zero.
      if (r < series.size() && !std::isnan(series[r])) {
        out += StrFormat("%.6g", series[r]);
      }
    }
    out += '\n';
  }
  return out;
}

std::string CsvDir() {
  const char* env = std::getenv("REPRO_CSV_DIR");
  std::string dir = env != nullptr && env[0] != '\0' ? env : "bench_out";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

}  // namespace repro::metrics
