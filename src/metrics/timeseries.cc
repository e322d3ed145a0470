#include "metrics/timeseries.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sys/stat.h>

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

bool WriteCsv(const std::string& path,
              const std::vector<std::pair<std::string, std::vector<double>>>&
                  columns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t rows = 0;
  for (const auto& [name, series] : columns) {
    rows = std::max(rows, series.size());
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    std::fprintf(f, "%s%s", c ? "," : "", columns[c].first.c_str());
  }
  std::fprintf(f, "\n");
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c) std::fprintf(f, ",");
      const auto& series = columns[c].second;
      // NaN marks "no data" (e.g. an empty latency window): emit a blank
      // cell so plots show a gap instead of a bogus zero.
      if (r < series.size() && !std::isnan(series[r])) {
        std::fprintf(f, "%.6g", series[r]);
      }
    }
    std::fprintf(f, "\n");
  }
  std::fclose(f);
  return true;
}

std::string CsvDir() {
  const char* env = std::getenv("REPRO_CSV_DIR");
  std::string dir = env != nullptr && env[0] != '\0' ? env : "bench_out";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

}  // namespace repro::metrics
