// Zone profiler tests: nesting/unwind, allocation-hook attribution
// (hand-counted allocations in synthetic zones), folded-stack golden
// output, registry bridging with detach-freeze, the scrape-path
// zero-allocation regression, and the determinism contract (a pinned
// chaos run is byte-identical with the profiler installed or not).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chaos/harness.h"
#include "hopsfs_test_util.h"
#include "metrics/counters.h"
#include "ndb_test_util.h"
#include "prof/profiler.h"
#include "prof/report.h"
#include "telemetry/scraper.h"
#include "util/strings.h"
#include "util/time.h"

namespace repro {
namespace {

using prof::Profiler;
using prof::ProfilerOptions;
using prof::ProfZone;
using prof::ZoneStats;

// The default build is -O2, where GCC elides paired new/delete
// (allocation elision, [expr.new]/10). Escaping the pointer through an
// opaque sink forces the allocation to really happen so hand-counted
// expectations hold at any optimisation level.
void* g_escape_sink = nullptr;
__attribute__((noinline)) void Escape(void* p) {
  g_escape_sink = p;
  asm volatile("" ::: "memory");
}

// ---- zone nesting and unwind ----------------------------------------------

void LeafWork() { PROF_ZONE("leaf"); }

void MidWork(bool bail) {
  PROF_ZONE("mid");
  if (bail) return;  // early return must still charge "mid"
  LeafWork();
}

TEST(ProfZones, NestingBuildsPathTreeAndUnwindsOnEarlyReturn) {
  Profiler p;
  p.Install();
  {
    PROF_ZONE("outer");
    MidWork(false);
    MidWork(true);
  }
  LeafWork();  // same name, different path -> distinct node
  p.Uninstall();

  // Expected paths: outer; outer;mid; outer;mid;leaf; leaf.
  std::vector<std::string> paths;
  for (size_t i = 1; i < p.nodes().size(); ++i) {
    paths.push_back(p.PathOf(static_cast<int32_t>(i)));
  }
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_EQ(paths[0], "outer");
  EXPECT_EQ(paths[1], "outer;mid");
  EXPECT_EQ(paths[2], "outer;mid;leaf");
  EXPECT_EQ(paths[3], "leaf");

  EXPECT_EQ(p.nodes()[1].total.calls, 1u);  // outer
  EXPECT_EQ(p.nodes()[2].total.calls, 2u);  // mid: once deep, once bailed
  EXPECT_EQ(p.nodes()[3].total.calls, 1u);  // leaf under mid
  EXPECT_EQ(p.nodes()[4].total.calls, 1u);  // top-level leaf

  // ByName aggregates the two "leaf" paths.
  for (const auto& [name, stats] : p.ByName()) {
    if (name == "leaf") {
      EXPECT_EQ(stats.calls, 2u);
    }
    if (name == "mid") {
      EXPECT_EQ(stats.calls, 2u);
    }
  }
}

TEST(ProfZones, ZonesAreFreeWhenNoProfilerInstalled) {
  ASSERT_EQ(Profiler::Current(), nullptr);
  LeafWork();  // must not crash or record anywhere
  Profiler p;
  p.Install();
  LeafWork();
  p.Uninstall();
  LeafWork();  // after uninstall: not recorded
  ASSERT_EQ(p.nodes().size(), 2u);
  EXPECT_EQ(p.nodes()[1].total.calls, 1u);
}

TEST(ProfZones, InstallIsExclusiveAndDestructorUninstalls) {
  auto a = std::make_unique<Profiler>();
  a->Install();
  EXPECT_TRUE(a->installed());
  Profiler b;
  b.Install();  // displaces a
  EXPECT_FALSE(a->installed());
  EXPECT_TRUE(b.installed());
  a.reset();  // destroying a non-current profiler must not uninstall b
  EXPECT_EQ(Profiler::Current(), &b);
}

// Regression: Uninstall() with zones still open used to leave each open
// ProfZone's cached profiler pointer live — the pending RAII exits then
// charged the uninstalled profiler and restored the thread-local cursor
// to node indices inside *its* tree, corrupting whatever profiler was
// installed next. Uninstall must drain (poison) the open scopes instead.
TEST(ProfZones, UninstallMidZoneDoesNotChargeOrCorruptSuccessor) {
  Profiler p;
  Profiler q;
  p.Install();
  {
    PROF_ZONE("outer");
    {
      PROF_ZONE("mid");
      q.Install();  // displaces p while two of p's zones are still open
      LeafWork();
    }  // mid's drained exit must neither charge p nor move q's cursor
    LeafWork();
  }
  q.Uninstall();

  // p recorded nothing after being displaced mid-zone.
  for (size_t i = 1; i < p.nodes().size(); ++i) {
    EXPECT_EQ(p.nodes()[i].total.calls, 0u)
        << "uninstalled profiler charged at " << p.PathOf(static_cast<int32_t>(i));
  }
  // q saw two root-level leaf calls; a corrupted cursor would have nested
  // the second one under a stale node index from p's tree.
  ASSERT_EQ(q.nodes().size(), 2u);
  EXPECT_EQ(q.PathOf(1), "leaf");
  EXPECT_EQ(q.nodes()[1].total.calls, 2u);
}

// Regression: destroying the installed profiler while a zone is open was
// a use-after-free — the zone's exit called into the freed profiler.
// Runs clean under ASan now that ~Profiler's Uninstall drains the scope.
TEST(ProfZones, DeleteMidZoneIsSafe) {
  auto* p = new Profiler();
  p->Install();
  {
    PROF_ZONE("doomed");
    delete p;  // uninstalls and drains the still-open scope
  }  // this exit must be a no-op, not a call into freed memory
  EXPECT_EQ(Profiler::Current(), nullptr);
}

// ---- allocation-hook attribution ------------------------------------------

TEST(ProfAllocs, HandCountedAllocationsChargeTheActiveZone) {
  Profiler p;
  p.Install();
  // Warm the tree so node creation is done before the measured pass.
  { PROF_ZONE("alloc_zone"); }
  { PROF_ZONE("quiet_zone"); }
  p.ResetStats();

  {
    PROF_ZONE("alloc_zone");
    char* a = new char[100];
    Escape(a);
    int* b = new int(7);
    Escape(b);
    delete[] a;
    delete b;
  }
  { PROF_ZONE("quiet_zone"); }
  p.Uninstall();

  ZoneStats alloc_zone, quiet_zone;
  for (const auto& [name, stats] : p.ByName()) {
    if (name == "alloc_zone") alloc_zone = stats;
    if (name == "quiet_zone") quiet_zone = stats;
  }
  EXPECT_EQ(alloc_zone.calls, 1u);
  EXPECT_EQ(alloc_zone.allocs, 2u);
  EXPECT_EQ(alloc_zone.alloc_bytes, 100u + sizeof(int));
  EXPECT_EQ(quiet_zone.allocs, 0u);
  EXPECT_EQ(quiet_zone.alloc_bytes, 0u);
}

TEST(ProfAllocs, TrackAllocationsOffLeavesHeapColumnsZero) {
  ProfilerOptions opts;
  opts.track_allocations = false;
  Profiler p(opts);
  p.Install();
  {
    PROF_ZONE("no_heap_tracking");
    char* a = new char[64];
    Escape(a);
    delete[] a;
  }
  p.Uninstall();
  EXPECT_EQ(p.nodes()[1].total.calls, 1u);
  EXPECT_EQ(p.nodes()[1].total.allocs, 0u);
}

// ---- folded-stack golden ---------------------------------------------------

TEST(ProfReport, FoldedStackGoldenOnHandBuiltAllocTree) {
  Profiler p;
  p.Install();
  // Warm paths a, a;b so the measured pass allocates only what we count.
  {
    PROF_ZONE("a");
    { PROF_ZONE("b"); }
  }
  p.ResetStats();
  {
    PROF_ZONE("a");
    char* own = new char[10];  // self of a: 1 alloc, 10 bytes
    Escape(own);
    {
      PROF_ZONE("b");
      char* inner = new char[20];  // b: 2 allocs, 50 bytes
      Escape(inner);
      char* inner2 = new char[30];
      Escape(inner2);
      delete[] inner;
      delete[] inner2;
    }
    delete[] own;
  }
  p.Uninstall();

  EXPECT_EQ(prof::FoldedStacks(p, prof::Metric::kAllocs), "a 1\na;b 2\n");
  EXPECT_EQ(prof::FoldedStacks(p, prof::Metric::kAllocBytes),
            "a 10\na;b 50\n");
  // Calls-free metrics skip zero-valued lines entirely.
  EXPECT_EQ(prof::FoldedStacks(p, prof::Metric::kSimDiskBytes), "");
}

// ---- registry bridging -----------------------------------------------------

double SampleValue(const metrics::Registry& reg, const std::string& name) {
  for (const auto& s : reg.Collect()) {
    if (s.name == name) return s.value;
  }
  return -1;
}

TEST(ProfReport, ZoneMetricsRegisterLiveAndFreezeOnDetach) {
  metrics::Registry reg;
  auto p = std::make_unique<Profiler>();
  prof::RegisterZoneMetrics(p.get(), &reg);
  p->Install();
  { PROF_ZONE("bridge_zone"); }
  { PROF_ZONE("bridge_zone"); }
  // Live: the callback reads the profiler's tree.
  EXPECT_EQ(SampleValue(reg, "prof.zone.calls{zone=bridge_zone}"), 2.0);
  { PROF_ZONE("bridge_zone"); }
  EXPECT_EQ(SampleValue(reg, "prof.zone.calls{zone=bridge_zone}"), 3.0);

  p->Uninstall();  // detach hook freezes the callbacks
  p.reset();       // registry must survive the profiler
  EXPECT_EQ(SampleValue(reg, "prof.zone.calls{zone=bridge_zone}"), 3.0);
}

// ---- scrape-path allocation regression (Registry::CollectInto) ------------

TEST(ProfRegression, SteadyStateScrapeAllocatesNothing) {
  metrics::Registry reg;
  reg.GetCounter("test.ops")->Add(3);
  reg.GetCounter("test.labelled", {{"az", "1"}, {"node", "2"}})->Add(1);
  reg.GetGauge("test.depth")->Set(4.5);
  reg.GetHistogram("test.lat")->Record(Millis(50));
  double polled = 7;
  reg.RegisterCallback("test.cb", {}, metrics::MetricKind::kGauge,
                       [&polled] { return polled; });

  telemetry::ScraperOptions opts;
  opts.ring_capacity = 4;
  telemetry::Scraper scraper(&reg, opts);
  // Warm-up: fill every ring to capacity and size the scratch buffer.
  for (int i = 0; i < 6; ++i) scraper.ScrapeOnce(i * kMillisecond);

  prof::SetAllocCounting(true);
  const prof::AllocTotals before = prof::TotalAllocs();
  for (int i = 6; i < 12; ++i) scraper.ScrapeOnce(i * kMillisecond);
  const prof::AllocTotals after = prof::TotalAllocs();
  prof::SetAllocCounting(false);

  EXPECT_EQ(after.count - before.count, 0u)
      << "scrape path allocated " << (after.count - before.count)
      << " times over 6 steady-state scrapes";

  // The reuse must not change what a scrape observes.
  const telemetry::RingSeries* ops = scraper.Find("test.ops");
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(ops->latest().v, 3.0);
  EXPECT_EQ(scraper.KindOf("test.lat.count"), metrics::MetricKind::kCounter);
  const telemetry::RingSeries* cb = scraper.Find("test.cb");
  ASSERT_NE(cb, nullptr);
  EXPECT_EQ(cb->latest().v, 7.0);
}

TEST(ProfRegression, CollectStaysNameSortedAfterCollectIntoRewrite) {
  metrics::Registry reg;
  reg.GetGauge("zz.last")->Set(1);
  reg.GetCounter("aa.first")->Add(1);
  reg.GetHistogram("mm.mid")->Record(Millis(500));
  const auto samples = reg.Collect();
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i - 1].name, samples[i].name);
  }
}

// ---- chrome ring -----------------------------------------------------------

TEST(ProfReport, ChromeRingRecordsExitsAndWrapsOldestFirst) {
  ProfilerOptions opts;
  opts.chrome_ring_capacity = 2;
  Profiler p(opts);
  int64_t fake_now = 0;
  p.SetSimTimeSource([&fake_now] { return fake_now; });
  p.Install();
  fake_now = 1000;
  { PROF_ZONE("ring_a"); }
  fake_now = 2000;
  { PROF_ZONE("ring_b"); }
  fake_now = 3000;
  { PROF_ZONE("ring_c"); }  // evicts ring_a
  p.Uninstall();

  ASSERT_EQ(p.chrome_ring().size(), 2u);
  EXPECT_EQ(p.chrome_dropped(), 1u);
  const std::string events = prof::ZoneChromeEvents(p);
  // Oldest-first after wrap: ring_b before ring_c; ring_a evicted.
  const size_t pos_b = events.find("\"ring_b\"");
  const size_t pos_c = events.find("\"ring_c\"");
  EXPECT_EQ(events.find("\"ring_a\""), std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  ASSERT_NE(pos_c, std::string::npos);
  EXPECT_LT(pos_b, pos_c);
  EXPECT_NE(events.find("\"ts\":2.000"), std::string::npos);  // sim µs
}

// ---- allocation budgets on the flattened hot path --------------------------

// Pins the protocol-flattening work: steady-state NN dispatch runs on the
// per-op arena + inline callables (≤ 3 allocations per op, down from
// 10.6 at the seed), and a TC key-op allocates nothing: it forwards its
// pooled signal record (ndb/transport.h) instead of copying the request
// into a closure. A regression that reintroduces per-op std::string
// or std::function churn trips these before it reaches the bench gate.
TEST(ProfBudgets, FlattenedDispatchAndTcKeyopStayWithinBudget) {
  hopsfs::testing::TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fs.Create(StrFormat("/d/f%d", i), 1024).ok());
  }

  Profiler p;
  p.Install();
  // Warm-up inside the install window: first touches build the zone tree
  // and fill the NN path cache; the measured window is steady state.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fs.Stat(StrFormat("/d/f%d", i)).ok());
  }
  p.ResetStats();
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(fs.Stat(StrFormat("/d/f%d", i)).ok());
    }
  }
  p.Uninstall();

  double dispatch_per_call = -1.0;
  double keyop_per_call = -1.0;
  for (const auto& [name, stats] : p.ByName()) {
    if (stats.calls == 0) continue;
    const double per_call =
        static_cast<double>(stats.allocs) / static_cast<double>(stats.calls);
    if (name == "nn.op.dispatch") dispatch_per_call = per_call;
    if (name == "ndb.tc.keyop") keyop_per_call = per_call;
  }
  ASSERT_GE(dispatch_per_call, 0.0) << "nn.op.dispatch zone never ran";
  ASSERT_GE(keyop_per_call, 0.0) << "ndb.tc.keyop zone never ran";
  EXPECT_LE(dispatch_per_call, 3.0);
  EXPECT_LE(keyop_per_call, 0.1);
}

// ---- allocation floors of the NDB signal path ----------------------------

// Heap allocations made while `fn` runs (the global counter, no zones).
template <typename Fn>
uint64_t AllocsDuring(Fn&& fn) {
  prof::SetAllocCounting(true);
  const uint64_t before = prof::TotalAllocs().count;
  fn();
  const uint64_t after = prof::TotalAllocs().count;
  prof::SetAllocCounting(false);
  return after - before;
}

// One signal between two datanodes in different AZs, through the SEND
// stage, the wire, the RECV stage and its TC handler (a Committed ack for
// a transaction the TC no longer tracks, so the handler only looks it
// up). Once the record pool, the engine's event slab and the thread
// pools' rings have warmed up, a hop allocates nothing: each stage
// captures {this, 16-byte record ref} inline.
TEST(ProfAllocFloor, SteadyStateDatanodeHopAllocatesNothing) {
  ndb::testing::TestCluster tc;
  ndb::NdbCluster& cluster = *tc.cluster;
  ndb::NodeId peer = 1;
  while (cluster.layout().az_of(peer) == cluster.layout().az_of(0)) ++peer;
  const auto hop = [&] {
    ndb::Transport& t = cluster.transport();
    t.Send(t.New(ndb::TxnAck{12345}), ndb::SignalKind::kCommitted, 0, peer,
           64);
    tc.sim->Run();
  };
  for (int i = 0; i < 64; ++i) hop();  // warm-up
  const uint64_t allocs = AllocsDuring([&] {
    for (int i = 0; i < 32; ++i) hop();
  });
  EXPECT_EQ(allocs, 0u) << "32 steady-state datanode hops allocated";
  EXPECT_EQ(cluster.transport().pool()->live(), 0u);
}

// A periodic lives wholly in its pooled event, and Every hands back a
// move-only {engine, Timer} owner, so after the first slab is mapped,
// arming 1,000 periodics, ticking them and cancelling them (by dropping
// the handles) allocates nothing. A shared liveness flag per Every cost
// 1,000 allocations here.
TEST(ProfAllocFloor, ArmingAndCancellingPeriodicsAllocatesNothing) {
  Simulation sim;
  std::vector<Simulation::PeriodicHandle> handles;
  handles.reserve(1000);
  int64_t ticks = 0;
  const auto churn = [&] {
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(
          sim.Every(Millis(1 + i % 7), [&ticks] { ++ticks; }));
    }
    sim.RunFor(Millis(10));
    handles.clear();
  };
  // Warm-up: maps the slab and sizes the dispatch run.
  churn();
  const int64_t per_round = ticks;
  const uint64_t allocs = AllocsDuring(churn);
  EXPECT_EQ(allocs, 0u) << "1,000 Every timers armed, ticked and cancelled";
  EXPECT_EQ(ticks, 2 * per_round);
  EXPECT_TRUE(sim.Empty());
  EXPECT_EQ(sim.slabs(), 1u);
}

// Whole transactions through the NDB API on a 6-node, 3-replica, 3-AZ
// cluster, after warm-up: a committed read (Begin, Read, Commit) and a
// write (Begin, Write, Commit: the 3-replica prepare chain, the reverse
// commit chain and the complete phase). A write's one allocation is the
// birth of its row image, which the request, every replica's staged and
// committed row and its redo record then share; a read's reply shares the
// replica's committed image (0.19 and 1.16 measured). Replica chains ride
// inline and the TC's transaction entries and lock-table rows come from
// per-owner pools. Copying the value at every holder cost 1.19 and 7.16
// here, the closure-per-hop path 19.1 and 100.7, heap-built chains and
// node tables 5.9 and 23.5.
TEST(ProfAllocFloor, KeyOpAndWriteChainStayUnderPinnedCounts) {
  ndb::testing::TestCluster tc;
  ndb::NdbApiNode& api = *tc.api;
  const ndb::TableId table = tc.inode_table;
  const std::string value(24, 'v');  // past the small-string buffer
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(tc.InsertCommit(table, StrFormat("%d/f", i), value),
              Code::kOk);
  }
  const auto read = [&](int i) {
    ASSERT_EQ(tc.ReadCommitted(table, StrFormat("%d/f", i % 16)).first,
              Code::kOk);
  };
  const auto write = [&](int i) {
    const ndb::Key key = StrFormat("%d/f", i % 16);
    const ndb::TxnId txn = api.Begin(table, key);
    bool done = false;
    Code code = Code::kInternal;
    // The writer encodes its row once, as the namenode does.
    api.Write(txn, table, key, ndb::RowImage::Of(value), [&](Code c) {
      api.Commit(txn, [&, c](Code c2) {
        code = c == Code::kOk ? c2 : c;
        done = true;
      });
    });
    tc.RunUntil(done);
    ASSERT_EQ(code, Code::kOk);
  };
  for (int i = 0; i < 64; ++i) {
    read(i);
    write(i);
  }
  constexpr int kOps = 32;
  const uint64_t read_allocs = AllocsDuring([&] {
    for (int i = 0; i < kOps; ++i) read(i);
  });
  const uint64_t write_allocs = AllocsDuring([&] {
    for (int i = 0; i < kOps; ++i) write(i);
  });
  const double per_read = static_cast<double>(read_allocs) / kOps;
  const double per_write = static_cast<double>(write_allocs) / kOps;
  EXPECT_LE(per_read, 0.5) << "committed-read transaction allocations";
  EXPECT_LE(per_write, 1.5) << "3-replica write transaction allocations";
}

// ---- determinism: profiler on/off byte-identity ----------------------------

chaos::ChaosOptions SmallChaosOptions() {
  chaos::ChaosOptions opts;
  opts.seed = 42;
  opts.workload_clients = 6;
  opts.warmup = 1 * kSecond;
  opts.fault_window = 2 * kSecond;
  opts.settle = 2 * kSecond;
  opts.deployment.client.rpc_timeout = 250 * kMillisecond;
  opts.deployment.client.op_deadline = 1 * kSecond;
  return opts;
}

TEST(ProfDeterminism, ChaosRunIsByteIdenticalWithProfilerOnOrOff) {
  chaos::FaultSchedule schedule;
  schedule.Add({600 * kMillisecond, chaos::FaultType::kCrashNdbNode, 1});
  schedule.Add({Millis(1200), chaos::FaultType::kRestartNdbNode, 1});

  const chaos::ChaosOptions opts = SmallChaosOptions();

  ProfilerOptions popts;
  popts.chrome_ring_capacity = 1024;
  Profiler profiler(popts);
  profiler.Install();
  const chaos::ChaosReport run_on = chaos::RunChaosSchedule(opts, schedule);
  profiler.Uninstall();

  const chaos::ChaosReport run_off = chaos::RunChaosSchedule(opts, schedule);

  // The profiler observes host cost; it must not perturb the sim: full
  // event trace and workload outcome byte-identical, while the profiled
  // run actually recorded the protocol zones.
  EXPECT_EQ(run_on.TraceString(), run_off.TraceString());
  EXPECT_EQ(run_on.completed, run_off.completed);
  EXPECT_EQ(run_on.failed, run_off.failed);
  EXPECT_EQ(run_on.acked_writes, run_off.acked_writes);

  bool saw_dispatch = false, saw_commit = false, saw_recovery = false;
  for (const auto& [name, stats] : profiler.ByName()) {
    if (name == "nn.op.dispatch" && stats.calls > 0) saw_dispatch = true;
    if (name == "ndb.tc.commit" && stats.calls > 0) saw_commit = true;
    if (name == "ndb.recovery.restart" && stats.calls > 0) {
      saw_recovery = true;
    }
  }
  EXPECT_TRUE(saw_dispatch);
  EXPECT_TRUE(saw_commit);
  EXPECT_TRUE(saw_recovery);
}

}  // namespace
}  // namespace repro
