// Benchmark drivers (the paper's benchmarking tool, §V-A).
//
// ClosedLoopDriver: each simulated client issues one operation at a time
// against its FsTarget, drawn from a workload generator; completion
// immediately triggers the next operation. Latencies are recorded per
// operation type during the measurement window only (after warm-up),
// matching standard closed-loop throughput methodology.
//
// OpenLoopDriver: operations arrive at a fixed offered rate regardless of
// completions — the driver for overload experiments, where a closed loop
// would self-throttle and hide congestion collapse. Tracks goodput
// (completions that returned OK), failure taxonomy (sheds, deadline
// misses, timeouts) and the latency distribution of successes.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "metrics/timeseries.h"
#include "sim/engine.h"
#include "util/histogram.h"
#include "workload/fs_interface.h"
#include "workload/spotify.h"

namespace repro::workload {

struct DriverResults {
  Histogram all;                       // end-to-end latency, all ops
  std::map<FsOp, Histogram> per_op;
  int64_t completed = 0;
  int64_t failed = 0;
  Nanos window = 0;
  // Failure taxonomy: failed operations by status code, over the whole
  // run (including warm-up) — the chaos scorecard's error breakdown.
  std::map<Code, int64_t> errors_by_code;
  // OK completions per 100 ms window over the whole run, including
  // warm-up: the chaos scorecard's goodput, recovery and stall views.
  metrics::TimeSeries timeline;

  double ops_per_sec() const {
    return window > 0 ? static_cast<double>(completed) / ToSeconds(window)
                      : 0.0;
  }
};

// Draws the next operation; drivers are generator-agnostic so the same
// harness runs the Spotify mix and the single-op micro-benchmarks.
using OpSource =
    std::function<SpotifyWorkload::Op(Rng&, std::vector<std::string>&)>;

class ClosedLoopDriver {
 public:
  ClosedLoopDriver(Simulation& sim, std::vector<FsTarget*> targets,
                   OpSource source);

  // Runs warm-up then a measurement window; returns aggregated results.
  // `on_measure_start` (optional) fires at the warm-up/measure boundary —
  // used to reset resource-utilisation counters.
  DriverResults Run(Nanos warmup, Nanos measure,
                    std::function<void()> on_measure_start = nullptr);

 private:
  // One op in flight per client, so the op's issue time, type and
  // whether it counts live here, not in its completion closure: that
  // captures only {this, client, generation} and fits std::function's
  // inline buffer.
  struct ClientState {
    FsTarget* target;
    Rng rng;
    std::vector<std::string> owned;
    Nanos issued_at = 0;
    FsOp op = FsOp::kStat;
    bool counted = false;  // issued inside the measurement window
  };

  void IssueNext(int client, int generation);
  // Records one completion of `client`'s op issued by Run `generation`;
  // a completion from an earlier Run records nothing.
  void Complete(int client, int generation, const Status& s);

  Simulation& sim_;
  OpSource source_;
  std::vector<ClientState> clients_;
  bool measuring_ = false;
  bool stopped_ = false;
  int generation_ = 0;
  DriverResults results_;
};

struct OpenLoopResults {
  Histogram ok_latency;  // end-to-end latency of successful ops
  int64_t issued = 0;    // arrivals during the measurement window
  int64_t completed = 0; // OK completions inside the window (goodput)
  int64_t late_ok = 0;   // OK completions after the window — too late to
                         // count as goodput, the congestion-collapse tell
  int64_t failed = 0;
  Nanos window = 0;
  std::map<Code, int64_t> errors_by_code;

  double offered_ops_per_sec() const {
    return window > 0 ? static_cast<double>(issued) / ToSeconds(window) : 0.0;
  }
  double goodput_ops_per_sec() const {
    return window > 0 ? static_cast<double>(completed) / ToSeconds(window)
                      : 0.0;
  }
  int64_t sheds() const {
    auto it = errors_by_code.find(Code::kResourceExhausted);
    return it == errors_by_code.end() ? 0 : it->second;
  }
  int64_t deadline_exceeded() const {
    auto it = errors_by_code.find(Code::kDeadlineExceeded);
    return it == errors_by_code.end() ? 0 : it->second;
  }
};

class OpenLoopDriver {
 public:
  OpenLoopDriver(Simulation& sim, std::vector<FsTarget*> targets,
                 OpSource source);

  // Offers `ops_per_sec` arrivals (round-robin over the targets) through
  // warm-up + measure; stats cover arrivals inside the measurement window
  // only, but the run keeps draining until those complete or fail.
  OpenLoopResults Run(double ops_per_sec, Nanos warmup, Nanos measure);

 private:
  struct ClientState {
    FsTarget* target;
    Rng rng;
    std::vector<std::string> owned;
  };

  Simulation& sim_;
  OpSource source_;
  std::vector<ClientState> clients_;
};

}  // namespace repro::workload
