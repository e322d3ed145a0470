// Tests for the workload generator and closed-loop driver.
#include <gtest/gtest.h>

#include <map>

#include "prof/profiler.h"
#include "util/strings.h"
#include "workload/driver.h"
#include "workload/spotify.h"

namespace repro::workload {
namespace {

TEST(SpotifyWorkload, MixSumsToOneHundredPercent) {
  double total = 0;
  for (const auto& e : SpotifyMix()) total += e.weight;
  EXPECT_NEAR(total, 100.0, 0.5);
}

TEST(SpotifyWorkload, MixIsReadDominated) {
  double reads = 0, writes = 0;
  for (const auto& e : SpotifyMix()) {
    switch (e.op) {
      case FsOp::kStat:
      case FsOp::kOpenRead:
      case FsOp::kListDir:
        reads += e.weight;
        break;
      default:
        writes += e.weight;
    }
  }
  // The Spotify trace is ~94% reads.
  EXPECT_GT(reads / (reads + writes), 0.88);
}

TEST(SpotifyWorkload, NamespaceShape) {
  NamespaceConfig cfg;
  cfg.users = 10;
  cfg.dirs_per_user = 2;
  cfg.files_per_dir = 3;
  SpotifyWorkload wl(cfg, 1);
  // 1 "/user" + per user: home + 2 leaf dirs.
  EXPECT_EQ(wl.all_dirs().size(), 1u + 10u * 3u);
  EXPECT_EQ(wl.all_files().size(), 10u * 2u * 3u);
  // Parents come before children (bootstrap requirement).
  EXPECT_EQ(wl.all_dirs().front(), "/user");
}

TEST(SpotifyWorkload, DrawsMatchMixFractions) {
  NamespaceConfig cfg;
  SpotifyWorkload wl(cfg, 2);
  Rng rng(7);
  std::vector<std::string> owned;
  std::map<FsOp, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) counts[wl.Next(rng, owned).op] += 1;
  // listDir ~57%, stat ~21.6%, read ~11.3% (+-2 points).
  EXPECT_NEAR(100.0 * counts[FsOp::kListDir] / n, 57.0, 2.0);
  EXPECT_NEAR(100.0 * counts[FsOp::kStat] / n, 21.6, 2.0);
  EXPECT_NEAR(100.0 * counts[FsOp::kOpenRead] / n, 11.3, 2.0);
}

TEST(SpotifyWorkload, ReadsAreSkewedMutationsAreNot) {
  NamespaceConfig cfg;
  SpotifyWorkload wl(cfg, 3);
  Rng rng(8);
  std::vector<std::string> owned;
  std::map<std::string, int> stat_targets;
  int stats = 0;
  for (int i = 0; i < 200000 && stats < 20000; ++i) {
    auto op = wl.Next(rng, owned);
    if (op.op == FsOp::kStat) {
      ++stats;
      stat_targets[op.path] += 1;
    }
  }
  // The hottest file should receive far more than a uniform share
  // (uniform over 8192 files would be ~0.012%).
  int hottest = 0;
  for (const auto& [p, c] : stat_targets) hottest = std::max(hottest, c);
  EXPECT_GT(100.0 * hottest / stats, 0.2);
}

TEST(SpotifyWorkload, DeleteTargetsPreviouslyCreatedFiles) {
  NamespaceConfig cfg;
  SpotifyWorkload wl(cfg, 4);
  Rng rng(9);
  std::vector<std::string> owned;
  std::set<std::string> created;
  for (int i = 0; i < 100000; ++i) {
    auto op = wl.Next(rng, owned);
    if (op.op == FsOp::kCreate) {
      created.insert(op.path);
    } else if (op.op == FsOp::kDelete || op.op == FsOp::kRename) {
      EXPECT_TRUE(created.count(op.path))
          << "mutation target was never created: " << op.path;
    }
  }
}

TEST(SpotifyWorkload, FreshNamesNeverCollide) {
  NamespaceConfig cfg;
  SpotifyWorkload wl(cfg, 5);
  Rng rng(10);
  std::vector<std::string> owned;
  std::set<std::string> fresh;
  for (int i = 0; i < 50000; ++i) {
    auto op = wl.Next(rng, owned);
    if (op.op == FsOp::kCreate || op.op == FsOp::kMkdir) {
      EXPECT_TRUE(fresh.insert(op.path).second)
          << "duplicate fresh name " << op.path;
    }
  }
}

TEST(SpotifyWorkload, PopularPathsCoverTopDirectories) {
  NamespaceConfig cfg;
  SpotifyWorkload wl(cfg, 6);
  auto popular = wl.PopularPaths(10);
  // 10 dirs, each contributing itself + its files.
  EXPECT_EQ(popular.size(), 10u * (1 + cfg.files_per_dir));
}

// A trivial in-memory target to exercise the driver in isolation.
class FakeTarget : public FsTarget {
 public:
  FakeTarget(Simulation& sim, Nanos latency) : sim_(sim), latency_(latency) {}

  void Execute(FsOp, const std::string&, const std::string&, int64_t,
               std::function<void(Status)> done) override {
    ++issued_;
    sim_.After(latency_, [done = std::move(done)] { done(OkStatus()); });
  }
  AzId az() const override { return 0; }

  void set_latency(Nanos latency) { latency_ = latency; }

  int issued_ = 0;

 private:
  Simulation& sim_;
  Nanos latency_;
};

SpotifyWorkload::Op StatX(Rng&, std::vector<std::string>&) {
  return SpotifyWorkload::Op{FsOp::kStat, "/x", "", 0};
}

TEST(ClosedLoopDriver, ThroughputMatchesLittleLaw) {
  Simulation sim(1);
  FakeTarget t1(sim, Millis(10)), t2(sim, Millis(10));
  ClosedLoopDriver driver(
      sim, {&t1, &t2}, [](Rng&, std::vector<std::string>&) {
        return SpotifyWorkload::Op{FsOp::kStat, "/x", "", 0};
      });
  auto res = driver.Run(Millis(100), Seconds(1));
  // 2 clients at 10 ms per op -> 200 ops/s.
  EXPECT_NEAR(res.ops_per_sec(), 200, 5);
  EXPECT_NEAR(res.all.MeanMillis(), 10, 0.5);
  EXPECT_EQ(res.failed, 0);
}

TEST(ClosedLoopDriver, WarmupExcludedFromResults) {
  Simulation sim(2);
  FakeTarget t(sim, Millis(10));
  ClosedLoopDriver driver(
      sim, {&t}, [](Rng&, std::vector<std::string>&) {
        return SpotifyWorkload::Op{FsOp::kStat, "/x", "", 0};
      });
  auto res = driver.Run(Seconds(1), Millis(500));
  // ~150 issued total, but only ~50 in the measure window.
  EXPECT_NEAR(static_cast<double>(res.completed), 50, 3);
  EXPECT_GT(t.issued_, 140);
}

TEST(ClosedLoopDriver, MeasureStartHookFires) {
  Simulation sim(3);
  FakeTarget t(sim, Millis(5));
  ClosedLoopDriver driver(
      sim, {&t}, [](Rng&, std::vector<std::string>&) {
        return SpotifyWorkload::Op{FsOp::kStat, "/x", "", 0};
      });
  Nanos hook_time = -1;
  driver.Run(Millis(100), Millis(100),
             [&] { hook_time = sim.now(); });
  EXPECT_EQ(hook_time, Millis(100));
}

// The driver keeps an op's issue time and type in its client state, so
// its completion closure is {this, client, generation} and fits
// std::function's inline buffer: once the results' timeline, histogram
// and per-op entry exist, an op costs the driver no allocation. The
// closure that captured the issue time and op type allocated once per op.
TEST(ClosedLoopDriver, SteadyStateOpsAllocateNothing) {
  Simulation sim(4);
  FakeTarget t1(sim, Millis(1)), t2(sim, Millis(1));
  ClosedLoopDriver driver(sim, {&t1, &t2}, StatX);
  uint64_t allocs = 0;
  int ops = 0;
  // Count from 100 ms into the measurement window (the first counted
  // completions create the per-op histogram) to 100 ms before its end.
  // The 2 s warm-up leaves the timeline room for the whole window.
  driver.Run(Seconds(2), Millis(500), [&] {
    sim.After(Millis(100), [&] {
      ops = -(t1.issued_ + t2.issued_);
      prof::SetAllocCounting(true);
      allocs = prof::TotalAllocs().count;
    });
    sim.After(Millis(400), [&] {
      allocs = prof::TotalAllocs().count - allocs;
      prof::SetAllocCounting(false);
      ops += t1.issued_ + t2.issued_;
    });
  });
  EXPECT_GT(ops, 500);
  EXPECT_EQ(allocs, 0u) << "over " << ops << " driver ops";
}

// A completion of an op issued by an earlier Run records nothing in the
// next Run's results.
TEST(ClosedLoopDriver, EarlierRunCompletionRecordsNothing) {
  Simulation sim(5);
  FakeTarget t(sim, Millis(150));
  ClosedLoopDriver driver(sim, {&t}, StatX);
  // The op issued at 0 is still in flight when this Run ends at 100 ms;
  // it completes at 150 ms, inside the next Run.
  driver.Run(0, Millis(100));
  t.set_latency(Millis(300));
  const DriverResults res = driver.Run(0, Millis(600));
  // This Run's own first completion lands at 400 ms.
  int64_t before_own = 0;
  for (const auto& w : res.timeline.windows()) {
    if (w.start < Millis(400)) before_own += w.count;
  }
  EXPECT_EQ(before_own, 0);
  EXPECT_TRUE(res.errors_by_code.empty());
}

}  // namespace
}  // namespace repro::workload
