// Windowed completion counter for simulation metrics, plus CSV text.
//
// Counts events (e.g. completed operations) into fixed 100 ms windows so
// the chaos harness can read goodput per phase, recovery time and stalls
// around injected faults.
//
// Window convention (pinned by metrics_test): window i covers the
// half-open interval [i*kWindow, (i+1)*kWindow). A sample landing exactly
// on a window edge t == i*kWindow belongs to window i — the window it
// opens — never to the one it closes, so edge samples bucket
// deterministically. Gaps materialise as windows with a zero count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.h"

namespace repro::metrics {

class TimeSeries {
 public:
  static constexpr Nanos kWindow = 100 * kMillisecond;

  // Counts one event at simulated time t (>= 0).
  void Record(Nanos t);

  struct Window {
    Nanos start = 0;
    int64_t count = 0;
  };

  const std::vector<Window>& windows() const { return windows_; }

 private:
  std::vector<Window> windows_;
};

// Aligned columns as CSV text. Columns: name -> series (all series padded
// to the longest length; NaN cells print blank).
std::string CsvText(
    const std::vector<std::pair<std::string, std::vector<double>>>& columns);

// Directory used for benchmark CSV artifacts; created on demand. Controlled
// by the REPRO_CSV_DIR environment variable (default "bench_out").
std::string CsvDir();

}  // namespace repro::metrics
