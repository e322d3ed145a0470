#include "chaos/schedule.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace repro::chaos {

namespace {
constexpr int kEpisodes = 4;  // per Random schedule
// Bounds for randomised parameters.
constexpr double kMaxLatencyFactor = 12.0;
constexpr double kMaxDropProbability = 0.25;
constexpr double kMaxGreySlowdown = 20.0;
constexpr double kMaxLogDiskSlowdown = 40.0;
}  // namespace

const char* FaultTypeName(FaultType type) {
  switch (type) {
    case FaultType::kCrashNdbNode: return "crash-ndb";
    case FaultType::kRestartNdbNode: return "restart-ndb";
    case FaultType::kAzOutage: return "az-outage";
    case FaultType::kAzRestore: return "az-restore";
    case FaultType::kPartitionAzs: return "partition";
    case FaultType::kPartitionOneWay: return "partition-oneway";
    case FaultType::kHealPartition: return "heal";
    case FaultType::kHealAllPartitions: return "heal-all";
    case FaultType::kLatencyInflate: return "latency-inflate";
    case FaultType::kLatencyRestore: return "latency-restore";
    case FaultType::kMessageDrop: return "msg-drop";
    case FaultType::kMessageDropClear: return "msg-drop-clear";
    case FaultType::kGreySlowNode: return "grey-slow";
    case FaultType::kGreyRestoreNode: return "grey-restore";
    case FaultType::kCrashBlockDn: return "crash-blockdn";
    case FaultType::kCrashLeaderNn: return "crash-leader-nn";
    case FaultType::kOpenLoopSurge: return "open-loop-surge";
    case FaultType::kOpenLoopSurgeStop: return "surge-stop";
    case FaultType::kLogDiskSlow: return "logdisk-slow";
    case FaultType::kLogDiskRestore: return "logdisk-restore";
  }
  return "?";
}

std::string FaultEvent::ToString() const {
  char buf[160];
  switch (type) {
    case FaultType::kHealAllPartitions:
    case FaultType::kLatencyRestore:
    case FaultType::kMessageDropClear:
    case FaultType::kOpenLoopSurgeStop:
      std::snprintf(buf, sizeof(buf), "[t=%.3fs] %s", ToSeconds(time),
                    FaultTypeName(type));
      break;
    case FaultType::kCrashNdbNode:
    case FaultType::kRestartNdbNode:
    case FaultType::kCrashBlockDn:
    case FaultType::kCrashLeaderNn:
      std::snprintf(buf, sizeof(buf), "[t=%.3fs] %s node=%d", ToSeconds(time),
                    FaultTypeName(type), a);
      break;
    case FaultType::kOpenLoopSurge:
      std::snprintf(buf, sizeof(buf), "[t=%.3fs] %s %d ops/s", ToSeconds(time),
                    FaultTypeName(type), a);
      break;
    case FaultType::kAzOutage:
    case FaultType::kAzRestore:
      std::snprintf(buf, sizeof(buf), "[t=%.3fs] %s az=%d", ToSeconds(time),
                    FaultTypeName(type), a);
      break;
    case FaultType::kPartitionAzs:
    case FaultType::kPartitionOneWay:
    case FaultType::kHealPartition:
      std::snprintf(buf, sizeof(buf), "[t=%.3fs] %s az%d%saz%d",
                    ToSeconds(time), FaultTypeName(type), a,
                    type == FaultType::kPartitionOneWay ? " -| " : " <-> ", b);
      break;
    case FaultType::kLatencyInflate:
    case FaultType::kMessageDrop:
      std::snprintf(buf, sizeof(buf), "[t=%.3fs] %s az%d<->az%d x%.3f",
                    ToSeconds(time), FaultTypeName(type), a, b, factor);
      break;
    case FaultType::kGreySlowNode:
    case FaultType::kGreyRestoreNode:
    case FaultType::kLogDiskSlow:
    case FaultType::kLogDiskRestore:
      std::snprintf(buf, sizeof(buf), "[t=%.3fs] %s node=%d x%.3f",
                    ToSeconds(time), FaultTypeName(type), a, factor);
      break;
  }
  return buf;
}

void FaultSchedule::Add(FaultEvent event) {
  // Keep sorted by time; stable for equal times so injection order matches
  // insertion order.
  auto it = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& x, const FaultEvent& y) { return x.time < y.time; });
  events_.insert(it, event);
}

Nanos FaultSchedule::end_time() const {
  return events_.empty() ? 0 : events_.back().time;
}

std::vector<FaultType> FaultSchedule::FaultTypes() const {
  std::vector<FaultType> types;
  for (const FaultEvent& e : events_) {
    if (std::find(types.begin(), types.end(), e.type) == types.end()) {
      types.push_back(e.type);
    }
  }
  return types;
}

std::string FaultSchedule::Summary() const {
  std::vector<std::pair<FaultType, int>> counts;
  for (const FaultEvent& e : events_) {
    auto it = std::find_if(counts.begin(), counts.end(),
                           [&](const auto& p) { return p.first == e.type; });
    if (it == counts.end()) {
      counts.emplace_back(e.type, 1);
    } else {
      ++it->second;
    }
  }
  std::string out;
  for (const auto& [type, n] : counts) {
    if (!out.empty()) out += ' ';
    out += FaultTypeName(type);
    out += '(';
    out += std::to_string(n);
    out += ')';
  }
  return out;
}

FaultSchedule FaultSchedule::Random(uint64_t seed,
                                    const RandomFaultOptions& opts) {
  // The schedule RNG is independent of the simulation RNG: the same seed
  // yields the same schedule no matter what deployment it later runs on.
  Rng rng(seed);
  FaultSchedule schedule;

  enum Kind {
    kKindCrash,
    kKindAzOutage,
    kKindPartition,
    kKindOneWay,
    kKindLatency,
    kKindDrop,
    kKindGrey,
    kKindRecoveryStorm,
    kKindLogDisk,
  };
  std::vector<Kind> kinds{kKindCrash};
  if (opts.enable_az_outage) kinds.push_back(kKindAzOutage);
  if (opts.enable_partition) {
    kinds.push_back(kKindPartition);
    kinds.push_back(kKindOneWay);
  }
  if (opts.enable_latency_inflation) kinds.push_back(kKindLatency);
  if (opts.enable_message_drop) kinds.push_back(kKindDrop);
  if (opts.enable_grey_node) kinds.push_back(kKindGrey);
  if (opts.enable_recovery_storm) kinds.push_back(kKindRecoveryStorm);
  if (opts.enable_log_disk_slow) kinds.push_back(kKindLogDisk);

  // Episodes are strictly sequential: each one injects a fault, holds it,
  // then heals — the next episode starts only after the previous heal.
  // Sequential episodes guarantee the cluster never sees two node groups
  // down at once (which would legitimately shut NDB down and void the
  // availability invariants; that regime has its own directed tests).
  const Nanos slot = opts.window / kEpisodes;
  for (int ep = 0; ep < kEpisodes; ++ep) {
    const Nanos slot_start = opts.start + ep * slot;
    // Inject in the first third of the slot, heal in the last third: every
    // fault is held long enough to bite, and fully healed before the slot
    // ends.
    const Nanos inject =
        slot_start + kMillisecond + rng.NextBelow(std::max<uint64_t>(
                                        1, static_cast<uint64_t>(slot / 3)));
    const Nanos heal =
        slot_start + (2 * slot) / 3 +
        rng.NextBelow(
            std::max<uint64_t>(1, static_cast<uint64_t>(slot / 3 -
                                                        2 * kMillisecond)));

    const Kind kind = kinds[rng.NextBelow(kinds.size())];
    const int az_a = static_cast<int>(rng.NextBelow(opts.num_azs));
    int az_b = static_cast<int>(rng.NextBelow(opts.num_azs));
    if (az_b == az_a) az_b = (az_b + 1) % opts.num_azs;

    switch (kind) {
      case kKindCrash: {
        const int node = static_cast<int>(rng.NextBelow(opts.num_ndb_nodes));
        schedule.Add({inject, FaultType::kCrashNdbNode, node, -1, 1.0});
        schedule.Add({heal, FaultType::kRestartNdbNode, node, -1, 1.0});
        break;
      }
      case kKindAzOutage:
        // The outage must stay well under the block layer's 10 s DN
        // heartbeat timeout: a longer outage would make the leader
        // re-replicate whole AZs of blocks mid-fault, which the
        // replication invariant would then (correctly) have to wait out.
        schedule.Add({inject, FaultType::kAzOutage, az_a, -1, 1.0});
        schedule.Add({heal, FaultType::kAzRestore, az_a, -1, 1.0});
        break;
      case kKindPartition:
        schedule.Add({inject, FaultType::kPartitionAzs, az_a, az_b, 1.0});
        schedule.Add({heal, FaultType::kHealPartition, az_a, az_b, 1.0});
        break;
      case kKindOneWay:
        schedule.Add({inject, FaultType::kPartitionOneWay, az_a, az_b, 1.0});
        schedule.Add({heal, FaultType::kHealPartition, az_a, az_b, 1.0});
        break;
      case kKindLatency: {
        const double f = 2.0 + rng.NextDouble() * (kMaxLatencyFactor - 2.0);
        schedule.Add({inject, FaultType::kLatencyInflate, az_a, az_b, f});
        schedule.Add({heal, FaultType::kLatencyRestore, -1, -1, 1.0});
        break;
      }
      case kKindDrop: {
        const double p = 0.01 + rng.NextDouble() * (kMaxDropProbability - 0.01);
        schedule.Add({inject, FaultType::kMessageDrop, az_a, az_b, p});
        schedule.Add({heal, FaultType::kMessageDropClear, -1, -1, 1.0});
        break;
      }
      case kKindGrey: {
        const int node = static_cast<int>(rng.NextBelow(opts.num_ndb_nodes));
        const double f = 2.0 + rng.NextDouble() * (kMaxGreySlowdown - 2.0);
        schedule.Add({inject, FaultType::kGreySlowNode, node, -1, f});
        schedule.Add({heal, FaultType::kGreyRestoreNode, node, -1, 1.0});
        break;
      }
      case kKindRecoveryStorm: {
        // 2-3 crash/restart rounds against one node inside the slot; the
        // restart gap is short enough that later crashes can land while
        // the node is still replaying or resyncing (the restart call then
        // re-enters the in-flight recovery and must handle it cleanly).
        const int node = static_cast<int>(rng.NextBelow(opts.num_ndb_nodes));
        const int rounds = 2 + static_cast<int>(rng.NextBelow(2));
        const Nanos span = heal - inject;
        for (int r = 0; r < rounds; ++r) {
          const Nanos crash_at = inject + (span * r) / rounds;
          const Nanos restart_at =
              crash_at + kMillisecond +
              rng.NextBelow(static_cast<uint64_t>(
                  std::max<Nanos>(1, span / (2 * rounds))));
          schedule.Add({crash_at, FaultType::kCrashNdbNode, node, -1, 1.0});
          schedule.Add({restart_at, FaultType::kRestartNdbNode, node, -1, 1.0});
        }
        break;
      }
      case kKindLogDisk: {
        // Saturate well past the write bandwidth the workload needs: the
        // redo backlog must hit the stall threshold and shed commits
        // instead of growing without bound.
        const int node = static_cast<int>(rng.NextBelow(opts.num_ndb_nodes));
        const double f = 4.0 + rng.NextDouble() * (kMaxLogDiskSlowdown - 4.0);
        schedule.Add({inject, FaultType::kLogDiskSlow, node, -1, f});
        schedule.Add({heal, FaultType::kLogDiskRestore, node, -1, 1.0});
        break;
      }
    }
  }
  return schedule;
}

FaultInjector::FaultInjector(hopsfs::Deployment& deployment)
    : deployment_(deployment) {}

void FaultInjector::Arm(const FaultSchedule& schedule, Nanos base) {
  assert(!armed_ && "FaultInjector::Arm called twice");
  armed_ = true;
  for (const FaultEvent& e : schedule.events()) {
    deployment_.sim().At(base + e.time, [this, e] { Apply(e); });
  }
}

// During a partition the arbitrator shuts down every NDB process on the
// losing side; healing the network does not resurrect them. Model the
// operator (or systemd) restarting them once connectivity is back —
// without this, dead nodes accumulate across episodes until a whole node
// group is gone and the cluster rightfully shuts itself down.
// Every heal/restore event restarts NDB processes the failure detector
// shot during the episode (arbitration losers stay down even after the
// network recovers; drop storms and latency inflation can also trip the
// detector on nodes whose hosts never failed). Models the operator or
// systemd bringing processes back once the fault clears. Hosts that are
// still down — e.g. a scheduled crash that has not been healed yet — are
// left alone.
void FaultInjector::RestartDeadNdbNodes() {
  ndb::NdbCluster& ndb = deployment_.ndb();
  for (ndb::NodeId n = 0; n < ndb.num_datanodes(); ++n) {
    if (!ndb.layout().alive(n) &&
        deployment_.topology().HostUp(ndb.datanode(n).host())) {
      ndb.RestartDatanode(n);
    }
  }
}

void FaultInjector::Apply(FaultEvent e) {
  Topology& topo = deployment_.topology();
  Network& net = deployment_.network();
  ndb::NdbCluster& ndb = deployment_.ndb();
  switch (e.type) {
    case FaultType::kCrashNdbNode:
      ndb.CrashDatanode(e.a);
      break;
    case FaultType::kRestartNdbNode:
      ndb.RestartDatanode(e.a);
      break;
    case FaultType::kAzOutage:
      topo.SetAzUp(e.a, false);
      break;
    case FaultType::kAzRestore:
      topo.SetAzUp(e.a, true);
      RestartDeadNdbNodes();
      break;
    case FaultType::kPartitionAzs:
      topo.PartitionAzs(e.a, e.b);
      break;
    case FaultType::kPartitionOneWay:
      topo.PartitionAzsOneWay(e.a, e.b);
      break;
    case FaultType::kHealPartition:
      topo.HealPartition(e.a, e.b);
      RestartDeadNdbNodes();
      break;
    case FaultType::kHealAllPartitions:
      topo.HealAllPartitions();
      RestartDeadNdbNodes();
      break;
    case FaultType::kLatencyInflate:
      topo.SetLatencyFactor(e.a, e.b, e.factor);
      break;
    case FaultType::kLatencyRestore:
      topo.ClearLatencyFactors();
      RestartDeadNdbNodes();
      break;
    case FaultType::kMessageDrop:
      net.SetDropProbability(e.a, e.b, e.factor);
      net.SetDropProbability(e.b, e.a, e.factor);
      break;
    case FaultType::kMessageDropClear:
      net.ClearDropProbabilities();
      RestartDeadNdbNodes();
      break;
    case FaultType::kGreySlowNode:
      ndb.datanode(e.a).SetGreySlowdown(e.factor, e.factor);
      break;
    case FaultType::kGreyRestoreNode:
      ndb.datanode(e.a).SetGreySlowdown(1.0, 1.0);
      RestartDeadNdbNodes();
      break;
    case FaultType::kCrashBlockDn:
      // The victim is the lowest-id live DN that holds a replica.
      e.a = -1;
      for (const auto& dn : deployment_.block_dns()) {
        if (dn->alive() && dn->block_count() > 0) {
          e.a = dn->id();
          lost_hosts_.push_back(dn->host());
          dn->Crash();
          break;
        }
      }
      break;
    case FaultType::kCrashLeaderNn:
      e.a = -1;
      if (hopsfs::Namenode* nn = deployment_.leader(); nn != nullptr) {
        e.a = nn->id();
        lost_hosts_.push_back(nn->host());
        nn->Crash();
      }
      break;
    case FaultType::kOpenLoopSurge:
      StartSurge(e.a);
      break;
    case FaultType::kOpenLoopSurgeStop:
      StopSurge();
      break;
    case FaultType::kLogDiskSlow:
      ndb.datanode(e.a).SetLogDiskSlowdown(e.factor);
      break;
    case FaultType::kLogDiskRestore:
      ndb.datanode(e.a).SetLogDiskSlowdown(1.0);
      RestartDeadNdbNodes();
      break;
  }
  trace_.push_back(e.ToString());
}

// An open-loop surge models a demand spike, not a component failure:
// extra clients stat the root at a fixed arrival rate, independent of
// completions. Without admission control this drives namenode queues
// into collapse; with it, excess arrivals are shed and the cluster's
// goodput holds (the surge-goodput invariant).
void FaultInjector::StartSurge(int ops_per_sec) {
  if (surge_active_ || ops_per_sec <= 0) return;
  surge_active_ = true;
  if (surge_clients_.empty()) {
    for (int i = 0; i < 6; ++i) {
      surge_clients_.push_back(deployment_.AddClient());
    }
  }
  const Nanos interval = std::max<Nanos>(1, kSecond / ops_per_sec);
  surge_timer_ = deployment_.sim().Every(interval, [this] {
    hopsfs::HopsFsClient* c = surge_clients_[surge_rr_++ % surge_clients_.size()];
    ++surge_issued_;
    c->Stat("/", [this](Status s) {
      if (s.ok()) ++surge_completed_;
    });
  });
}

void FaultInjector::StopSurge() {
  if (!surge_active_) return;
  surge_active_ = false;
  surge_timer_.Cancel();
}

}  // namespace repro::chaos
