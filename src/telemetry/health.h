// Health rollups from scraped series.
//
// The HealthModel turns the per-host telemetry convention —
//   host.up{az=A,host=H}        gauge   1 while the host is alive
//   host.queue_ns{az=A,host=H}  gauge   worst internal queue backlog (ns)
//   host.ops{az=A,host=H}       counter requests served / submitted
//   host.errors{az=A,host=H}    counter unavailability-class failures
//   host.busy_ns{az=A,host=H}   counter busy time of the serving pools
//   host.work{az=A,host=H}      counter work items those pools completed
// — into a per-host -> per-AZ -> cluster health snapshot. Signals, in
// precedence order:
//   down        up gauge reads 0 (crashed / partitioned)   -> unavailable
//   error rate  errors/ops delta over the window            -> degraded or
//               (needs a minimum ops delta so a single         unavailable
//               failure on an idle host does not flag it)
//   queue depth mean queue backlog over the window          -> degraded
//   grey-slow   mean service time per work item (busy_ns    -> degraded
//               delta / work delta) at least
//               4x the median of the
//               host's role peers. Queue depth misses a
//               grey host at low utilisation — a 10x-slowed
//               node with short queues drains them between
//               scrapes — but its per-item service time
//               inflates by the slowdown factor directly.
//   staleness   ops counter frozen AT A NONZERO VALUE while -> degraded
//               >= 2 peers of the same role made real
//               progress. Stall means progress *stopped*,
//               so prior progress is required: a host that
//               sticky clients simply never picked sits at
//               zero forever and is idle, not grey.
//
// Evaluation reads only scraped rings — it is deterministic and runs off
// the same telemetry tick as the scraper.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "telemetry/scraper.h"
#include "util/time.h"

namespace repro::telemetry {

enum class HealthState { kHealthy = 0, kDegraded = 1, kUnavailable = 2 };
const char* HealthStateName(HealthState s);

struct HostHealth {
  std::string host;
  std::string az;
  HealthState state = HealthState::kHealthy;
  std::string reason;  // "down", "error-rate 0.43", "queue 80.1ms", "stale", "ok"
  double error_rate = 0;
  double mean_queue_ns = 0;
  double ops_delta = 0;
  double ops_total = 0;  // latest scraped value of the ops counter
  // Mean busy ns per completed work item over the window; -1 when the
  // host exports no host.busy_ns/host.work pair or moved too little work.
  double service_ns = -1;
  // Host exports host.recovering and it reads 1: the process is back up
  // but replaying its redo log / resyncing from peers — degraded, not
  // dead (crash recovery, not an outage).
  bool recovering = false;
  // Host exports host.queue_ns (servers do, clients don't). Staleness is
  // only judged for such hosts: a client that legitimately stopped
  // submitting (probe / surge traffic) must not be called grey.
  bool has_queue = false;
};

struct HealthSnapshot {
  Nanos at = 0;
  std::vector<HostHealth> hosts;              // sorted by host name
  std::map<std::string, HealthState> az_state;  // az label -> rollup
  HealthState cluster = HealthState::kHealthy;

  const HostHealth* Find(const std::string& host) const;
  // Hosts currently not healthy, sorted — what an invariant checker
  // compares against the injected fault set.
  std::vector<std::string> UnhealthyHosts() const;
  std::string ToString() const;
};

class HealthModel {
 public:
  HealthSnapshot Evaluate(const Scraper& scraper, Nanos now) const;
};

}  // namespace repro::telemetry
