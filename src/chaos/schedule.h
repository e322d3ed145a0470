// Declarative, seeded fault schedules for the deterministic simulator.
//
// A FaultSchedule is a list of timed fault events — node crashes and
// restarts, AZ outages, (possibly asymmetric) AZ partitions and heals,
// inter-AZ latency inflation, probabilistic message loss, and grey
// failures that degrade a node without killing its heartbeats. The
// FaultInjector arms a schedule onto a running Deployment: every event is
// applied at its simulated time through the fault hooks of sim/ and ndb/,
// and appended to a textual event trace. Because the simulator is
// deterministic, the same seed always produces the same schedule AND the
// same trace — a failing seed is a complete reproduction recipe
// (FoundationDB-style simulation testing; see DESIGN.md §8).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hopsfs/deployment.h"
#include "util/rng.h"
#include "util/time.h"

namespace repro::chaos {

enum class FaultType {
  kCrashNdbNode,      // a: node id — host dies, heartbeats must detect it
  kRestartNdbNode,    // a: node id — restart + resync + rejoin
  kAzOutage,          // a: AZ id — every host in the AZ goes dark
  kAzRestore,         // a: AZ id — hosts return; dead NDB nodes restart
  kPartitionAzs,      // a,b: AZ pair — symmetric link cut
  kPartitionOneWay,   // a,b: only the a -> b direction is cut (grey link)
  kHealPartition,     // a,b: heal one AZ pair (both directions)
  kHealAllPartitions,
  kLatencyInflate,    // a,b,factor: multiply a->b and b->a latency
  kLatencyRestore,    // restore all latency factors to 1
  kMessageDrop,       // a,b,factor: drop probability on a<->b links
  kMessageDropClear,  // clear all drop probabilities
  kGreySlowNode,      // a: node id, factor: CPU+disk slowdown, node stays up
  kGreyRestoreNode,   // a: node id — clear the grey degradation
  kCrashBlockDn,      // no argument: the lowest-id live block datanode
                      // holding a replica is lost for good, which
                      // triggers leader-driven re-replication
  kCrashLeaderNn,     // no argument: the namenode Deployment::leader()
                      // returns dies for good; the rest elect a new one
  kOpenLoopSurge,     // a: ops/sec — open-loop metadata-read surge from
                      // extra clients (overload, not a component failure)
  kOpenLoopSurgeStop, // the surge traffic stops
  kLogDiskSlow,       // a: node id, factor: redo-log disk only slows down
                      // (grey log device; commits stall, node stays up)
  kLogDiskRestore,    // a: node id — clear the log-disk degradation
};
const char* FaultTypeName(FaultType type);

struct FaultEvent {
  Nanos time = 0;          // absolute simulated time
  FaultType type = FaultType::kHealAllPartitions;
  int a = -1;              // node id or (from-)AZ, per FaultType comment
  int b = -1;              // to-AZ for pair events
  double factor = 1.0;     // latency multiplier / drop prob / slowdown

  // Deterministic one-line rendering used in event traces.
  std::string ToString() const;
};

// Knobs for FaultSchedule::Random. The generator emits four
// non-overlapping fault episodes inside [start, start + window]; each
// episode picks one enabled fault class, randomises its parameters, and
// schedules the matching heal/restore before the episode ends, so by
// start + window the system has been handed back every resource. NDB
// node crashes are always a candidate class. Permanent losses (block
// datanode, leader namenode) never heal, so only explicit schedules
// contain them.
struct RandomFaultOptions {
  Nanos start = 0;
  Nanos window = 8 * kSecond;

  bool enable_az_outage = true;
  bool enable_partition = true;        // includes one-way partitions
  bool enable_latency_inflation = true;
  bool enable_message_drop = true;
  bool enable_grey_node = true;
  // Recovery storms: crash a node and restart it almost immediately,
  // several times per episode (possibly re-crashing a node that is still
  // replaying/resyncing). Exercises the timed-recovery state machine and
  // its abandon/retry paths. Off by default for pinned-seed stability.
  bool enable_recovery_storm = false;
  // Grey-slow REDO-log disks (the data disk keeps full speed): drives the
  // journal backlog up until commit backpressure engages. Off by default
  // for pinned-seed stability.
  bool enable_log_disk_slow = false;

  // Topology the schedule targets (validated against the deployment).
  int num_azs = 3;
  int num_ndb_nodes = 12;
};

class FaultSchedule {
 public:
  FaultSchedule() = default;

  // Generates a randomized schedule from a seed. Distinct seeds give
  // distinct schedules; the same seed always gives the same schedule.
  static FaultSchedule Random(uint64_t seed, const RandomFaultOptions& opts);

  void Add(FaultEvent event);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  // Time of the last event (the schedule is kept sorted by time).
  Nanos end_time() const;

  // Distinct fault types present (heals/restores count as their own type).
  std::vector<FaultType> FaultTypes() const;
  // "crash(3) az-outage(1) ..." summary for scorecards.
  std::string Summary() const;

 private:
  std::vector<FaultEvent> events_;  // sorted by (time, insertion order)
};

// Applies a schedule to a live deployment, event by event, through the
// simulator's fault hooks. Records one trace line per applied event.
class FaultInjector {
 public:
  explicit FaultInjector(hopsfs::Deployment& deployment);

  // Schedules every event of `schedule` onto the simulation at
  // `base + event.time` — schedule times are relative to a phase start
  // (usually "now", when warm-up begins), not to sim time zero. May be
  // called once per injector.
  void Arm(const FaultSchedule& schedule, Nanos base = 0);

  // Trace of applied events ("[t=2.500s] partition az2 -| az0"), in
  // application order. Deterministic for a given seed. A fault that picks
  // its own victim is traced with the victim it picked.
  const std::vector<std::string>& trace() const { return trace_; }

  // Hosts this injector took down for good (block datanodes, namenodes);
  // no heal brings them back.
  const std::vector<HostId>& lost_hosts() const { return lost_hosts_; }

  // Surge arrivals issued / completed OK while a kOpenLoopSurge episode
  // was active (the surge-goodput invariant compares the two).
  int64_t surge_issued() const { return surge_issued_; }
  int64_t surge_completed() const { return surge_completed_; }

 private:
  void Apply(FaultEvent event);
  void RestartDeadNdbNodes();
  void StartSurge(int ops_per_sec);
  void StopSurge();

  hopsfs::Deployment& deployment_;
  std::vector<std::string> trace_;
  std::vector<HostId> lost_hosts_;
  bool armed_ = false;

  // Open-loop surge state: lazily created clients hammering Stat("/").
  std::vector<hopsfs::HopsFsClient*> surge_clients_;
  Simulation::PeriodicHandle surge_timer_;
  bool surge_active_ = false;
  size_t surge_rr_ = 0;
  int64_t surge_issued_ = 0;
  int64_t surge_completed_ = 0;
};

}  // namespace repro::chaos
