// Chaos harness tests: schedule determinism, end-to-end replay
// determinism, invariant checking, and injector behaviour.
//
// The full-episode tests run a deliberately small configuration (short
// windows, few clients) so the suite stays fast; the soak benchmark
// covers the paper-scale runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "chaos/harness.h"
#include "chaos/invariants.h"
#include "chaos/schedule.h"
#include "hopsfs/deployment.h"

namespace repro::chaos {
namespace {

RandomFaultOptions SmallTopology() {
  RandomFaultOptions opts;
  opts.start = 2 * kSecond;
  opts.window = 4 * kSecond;
  opts.num_azs = 3;
  opts.num_ndb_nodes = 12;
  return opts;
}

TEST(FaultSchedule, SameSeedSameSchedule) {
  const auto opts = SmallTopology();
  const FaultSchedule a = FaultSchedule::Random(99, opts);
  const FaultSchedule b = FaultSchedule::Random(99, opts);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].ToString(), b.events()[i].ToString());
  }
}

TEST(FaultSchedule, DistinctSeedsDiffer) {
  const auto opts = SmallTopology();
  const FaultSchedule a = FaultSchedule::Random(1, opts);
  const FaultSchedule b = FaultSchedule::Random(2, opts);
  EXPECT_NE(a.Summary(), b.Summary())
      << "different seeds must randomise differently";
}

TEST(FaultSchedule, EveryFaultIsHealedInsideTheWindow) {
  const auto opts = SmallTopology();
  for (uint64_t seed = 50; seed < 60; ++seed) {
    const FaultSchedule s = FaultSchedule::Random(seed, opts);
    ASSERT_FALSE(s.empty());
    EXPECT_GE(s.events().front().time, opts.start);
    EXPECT_LE(s.end_time(), opts.start + opts.window)
        << "schedules must hand every resource back by end of window";
    // Any degradation class present must come with its heal/restore.
    const auto types = s.FaultTypes();
    auto has = [&](FaultType t) {
      return std::find(types.begin(), types.end(), t) != types.end();
    };
    if (has(FaultType::kAzOutage)) {
      EXPECT_TRUE(has(FaultType::kAzRestore));
    }
    if (has(FaultType::kCrashNdbNode)) {
      EXPECT_TRUE(has(FaultType::kRestartNdbNode));
    }
    if (has(FaultType::kLatencyInflate)) {
      EXPECT_TRUE(has(FaultType::kLatencyRestore));
    }
    if (has(FaultType::kMessageDrop)) {
      EXPECT_TRUE(has(FaultType::kMessageDropClear));
    }
    if (has(FaultType::kGreySlowNode)) {
      EXPECT_TRUE(has(FaultType::kGreyRestoreNode));
    }
    if (has(FaultType::kPartitionAzs) || has(FaultType::kPartitionOneWay)) {
      EXPECT_TRUE(has(FaultType::kHealPartition) ||
                  has(FaultType::kHealAllPartitions));
    }
  }
}

TEST(FaultSchedule, RandomNeverEmitsPermanentLosses) {
  // A block-DN or leader-NN crash never heals, so only explicit
  // schedules may contain one; every fault class is enabled here.
  RandomFaultOptions opts = SmallTopology();
  opts.enable_recovery_storm = true;
  opts.enable_log_disk_slow = true;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    for (const FaultType t : FaultSchedule::Random(seed, opts).FaultTypes()) {
      EXPECT_NE(t, FaultType::kCrashBlockDn) << "seed " << seed;
      EXPECT_NE(t, FaultType::kCrashLeaderNn) << "seed " << seed;
    }
  }
}

ChaosOptions SmallEpisode(uint64_t seed) {
  ChaosOptions opts;
  opts.seed = seed;
  opts.workload_clients = 4;
  opts.warmup = 1 * kSecond;
  opts.fault_window = 3 * kSecond;
  opts.settle = 2 * kSecond;
  return opts;
}

TEST(ChaosHarness, SameSeedReplaysByteIdentically) {
  const ChaosOptions opts = SmallEpisode(7);
  const ChaosReport a = RunChaosSchedule(opts);
  const ChaosReport b = RunChaosSchedule(opts);
  EXPECT_EQ(a.TraceString(), b.TraceString())
      << "a failing seed must be a complete reproduction recipe";
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.acked_writes, b.acked_writes);

  ChaosOptions other = opts;
  other.seed = 8;
  const ChaosReport c = RunChaosSchedule(other);
  EXPECT_NE(a.TraceString(), c.TraceString());
}

TEST(ChaosHarness, InvariantsHoldUnderRandomFaults) {
  const ChaosReport report = RunChaosSchedule(SmallEpisode(7));
  for (const auto& r : report.invariants) {
    EXPECT_TRUE(r.ok) << r.name << ": " << r.detail;
  }
  EXPECT_GT(report.acked_writes, 0) << "tracked writer made no progress";
  EXPECT_GT(report.completed, 0);
}

TEST(ChaosHarness, PlantedAckLossBugIsCaught) {
  ChaosOptions opts = SmallEpisode(4242);
  opts.enable_test_ack_loss_bug = true;
  // No other faults: the planted bug must be caught on its own.
  const ChaosReport report = RunChaosSchedule(opts, FaultSchedule{});
  bool durability_failed = false;
  for (const auto& r : report.invariants) {
    if (r.name == "durability") durability_failed = !r.ok;
  }
  EXPECT_TRUE(durability_failed)
      << "the checker must detect deliberately lost acked writes";
}

const InvariantResult& Verdict(const ChaosReport& report,
                               const std::string& name) {
  for (const auto& r : report.invariants) {
    if (r.name == name) return r;
  }
  static const InvariantResult kMissing{"missing", false, "not checked"};
  return kMissing;
}

// The victim id a self-resolving fault traced ("... node=N"), or -1.
int TracedVictim(const ChaosReport& report, const std::string& fault) {
  const std::string tag = fault + " node=";
  for (const auto& line : report.trace) {
    const size_t at = line.find(tag);
    if (at != std::string::npos) return std::stoi(line.substr(at + tag.size()));
  }
  return -1;
}

TEST(ChaosHarness, LeaderNamenodeCrashElectsOneNewLeader) {
  ChaosOptions opts = SmallEpisode(21);
  // A successor claims only after the leader misses two 2 s rounds.
  opts.settle = 6 * kSecond;
  opts.telemetry = true;  // the crashed NN may stay unavailable
  FaultSchedule schedule;
  schedule.Add({opts.warmup + kSecond / 2, FaultType::kCrashLeaderNn});
  const ChaosReport report = RunChaosSchedule(opts, schedule);

  const int crashed = TracedVictim(report, "crash-leader-nn");
  ASSERT_GE(crashed, 0) << report.TraceString();
  const InvariantResult& leadership = Verdict(report, "leadership");
  ASSERT_TRUE(leadership.ok) << leadership.detail;
  int leader = -1;
  ASSERT_EQ(std::sscanf(leadership.detail.c_str(), "single leader NN %d",
                        &leader),
            1)
      << leadership.detail;
  EXPECT_NE(leader, crashed) << "the crashed namenode cannot lead";
  const InvariantResult& settle = Verdict(report, "telemetry-settle");
  EXPECT_TRUE(settle.ok) << settle.detail;
}

TEST(ChaosHarness, BlockDnCrashIsReReplicated) {
  ChaosOptions opts = SmallEpisode(21);
  // Re-replication starts once the DN misses its 10 s heartbeat timeout.
  opts.settle = 12 * kSecond;
  opts.telemetry = true;  // the lost DN may stay unavailable, no other host
  FaultSchedule schedule;
  schedule.Add({opts.warmup + kSecond / 2, FaultType::kCrashBlockDn});
  const ChaosReport report = RunChaosSchedule(opts, schedule);

  ASSERT_GE(TracedVictim(report, "crash-blockdn"), 0) << report.TraceString();
  const InvariantResult& replication = Verdict(report, "replication");
  ASSERT_TRUE(replication.ok) << replication.detail;
  long long blocks = 0;
  ASSERT_EQ(std::sscanf(replication.detail.c_str(), "%lld blocks", &blocks),
            1)
      << replication.detail;
  EXPECT_GE(blocks, 1) << "the check must have followed real blocks";
  const InvariantResult& settle = Verdict(report, "telemetry-settle");
  EXPECT_TRUE(settle.ok) << settle.detail;
}

TEST(FaultInjector, GreySlowNodeStaysAliveAndRecovers) {
  Simulation sim(11);
  auto dopts = hopsfs::DeploymentOptions::FromPaperSetup(
      hopsfs::PaperSetup::kHopsFsCl_3_3, /*num_namenodes=*/3);
  hopsfs::Deployment dep(sim, dopts);
  dep.Start();
  sim.RunFor(2 * kSecond);

  FaultInjector injector(dep);
  FaultSchedule schedule;
  schedule.Add(FaultEvent{0, FaultType::kGreySlowNode, /*a=*/5, /*b=*/-1,
                          /*factor=*/10.0});
  schedule.Add(FaultEvent{2 * kSecond, FaultType::kGreyRestoreNode,
                          /*a=*/5});
  injector.Arm(schedule, sim.now());
  sim.RunFor(3 * kSecond);

  // Grey failure degrades without killing: heartbeats keep flowing, so
  // the failure detector must NOT have declared the node dead.
  EXPECT_TRUE(dep.ndb().layout().alive(5))
      << "grey-slow node must stay a cluster member";
  EXPECT_EQ(injector.trace().size(), 2u);
}

}  // namespace
}  // namespace repro::chaos
