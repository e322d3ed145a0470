// Unit tests for the discrete-event engine, topology, network, resources.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/network.h"
#include "sim/resources.h"
#include "sim/topology.h"

namespace repro {
namespace {

TEST(Engine, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.After(Millis(3), [&] { order.push_back(3); });
  sim.After(Millis(1), [&] { order.push_back(1); });
  sim.After(Millis(2), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Millis(3));
}

TEST(Engine, EqualTimestampsRunInInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.After(Millis(1), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, RunUntilAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.After(Millis(10), [&] { ++fired; });
  sim.RunUntil(Millis(5));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), Millis(5));
  sim.RunUntil(Millis(20));
  EXPECT_EQ(fired, 1);
}

// The Timer taken at Every still names the periodic after five in-place
// reschedules: its generation never moves until the Cancel.
TEST(Engine, PeriodicFiresUntilCancelled) {
  Simulation sim;
  int ticks = 0;
  auto handle = sim.Every(Millis(10), [&] { ++ticks; });
  sim.RunUntil(Millis(55));
  EXPECT_EQ(ticks, 5);
  handle.Cancel();
  EXPECT_TRUE(sim.Empty());
  sim.RunUntil(Millis(200));
  EXPECT_EQ(ticks, 5);
}

TEST(Topology, UsWest1LatenciesMatchTableI) {
  auto t = AzLatencyTable::UsWest1();
  // One-way = RTT/2; intra-AZ b = 0.251/2 ms.
  EXPECT_EQ(t.one_way[1][1], static_cast<Nanos>(0.251 / 2 * 1e6));
  EXPECT_EQ(t.one_way[1][2], static_cast<Nanos>(0.399 / 2 * 1e6));
}

TEST(Topology, ReachabilityRespectsPartitionsAndHostState) {
  Topology topo(3, AzLatencyTable::UsWest1());
  const HostId a = topo.AddHost(0, "a");
  const HostId b = topo.AddHost(1, "b");
  EXPECT_TRUE(topo.Reachable(a, b));
  topo.PartitionAzs(0, 1);
  EXPECT_FALSE(topo.Reachable(a, b));
  topo.HealPartition(0, 1);
  EXPECT_TRUE(topo.Reachable(a, b));
  topo.SetHostUp(b, false);
  EXPECT_FALSE(topo.Reachable(a, b));
}

TEST(Topology, SelfPartitionIsIgnored) {
  Topology topo(3, AzLatencyTable::UsWest1());
  const HostId a = topo.AddHost(0, "a");
  const HostId b = topo.AddHost(0, "b");
  topo.PartitionAzs(0, 0);
  EXPECT_TRUE(topo.Reachable(a, b))
      << "intra-AZ connectivity must survive a nonsensical self-partition";
}

TEST(Engine, RunOneExecutesExactlyOneEvent) {
  Simulation sim;
  int fired = 0;
  sim.After(Millis(1), [&] { ++fired; });
  sim.After(Millis(2), [&] { ++fired; });
  EXPECT_TRUE(sim.RunOne());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Millis(1));
  EXPECT_TRUE(sim.RunOne());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.RunOne()) << "empty queue must report no work";
}

TEST(Topology, PartialHealLeavesOtherPartitionsCut) {
  Topology topo(3, AzLatencyTable::UsWest1());
  const HostId a = topo.AddHost(0, "a");
  const HostId b = topo.AddHost(1, "b");
  const HostId c = topo.AddHost(2, "c");
  topo.PartitionAzs(0, 1);
  topo.PartitionAzs(0, 2);
  topo.HealPartition(0, 1);
  EXPECT_TRUE(topo.Reachable(a, b)) << "healed pair must reconnect";
  EXPECT_FALSE(topo.Reachable(a, c)) << "unhealed pair must stay cut";
  EXPECT_TRUE(topo.Reachable(b, c));
  topo.HealAllPartitions();
  EXPECT_TRUE(topo.Reachable(a, c));
}

TEST(Topology, OneWayPartitionIsAsymmetric) {
  Topology topo(3, AzLatencyTable::UsWest1());
  const HostId a = topo.AddHost(0, "a");
  const HostId b = topo.AddHost(1, "b");
  topo.PartitionAzsOneWay(0, 1);
  EXPECT_FALSE(topo.Reachable(a, b)) << "cut direction";
  EXPECT_TRUE(topo.Reachable(b, a)) << "reverse direction stays up";
  topo.HealPartition(0, 1);
  EXPECT_TRUE(topo.Reachable(a, b));
}

TEST(Topology, LatencyFactorInflatesOnePair) {
  Topology topo(3, AzLatencyTable::Uniform(3, Micros(100), Micros(200)));
  topo.set_jitter_fraction(0);
  const HostId a = topo.AddHost(0, "a");
  const HostId b = topo.AddHost(1, "b");
  const HostId c = topo.AddHost(2, "c");
  Rng rng(1);
  const Nanos base_ab = topo.Latency(a, b, rng);
  const Nanos base_ac = topo.Latency(a, c, rng);
  topo.SetLatencyFactor(0, 1, 4.0);
  EXPECT_EQ(topo.Latency(a, b, rng), 4 * base_ab);
  EXPECT_EQ(topo.Latency(a, c, rng), base_ac) << "other pairs unaffected";
  topo.ClearLatencyFactors();
  EXPECT_EQ(topo.Latency(a, b, rng), base_ab);
}

TEST(Topology, AzFailureTakesHostsDown) {
  Topology topo(3, AzLatencyTable::UsWest1());
  const HostId a = topo.AddHost(0, "a");
  const HostId b = topo.AddHost(0, "b");
  topo.SetAzUp(0, false);
  EXPECT_FALSE(topo.HostUp(a));
  EXPECT_FALSE(topo.HostUp(b));
}

TEST(Network, DeliversWithLatency) {
  Simulation sim;
  Topology topo(3, AzLatencyTable::Uniform(3, Micros(100), Micros(200)));
  topo.set_jitter_fraction(0);
  const HostId a = topo.AddHost(0, "a");
  const HostId b = topo.AddHost(1, "b");
  Network net(sim, topo);
  Nanos delivered_at = -1;
  net.Send(a, b, 100, [&] { delivered_at = sim.now(); });
  sim.Run();
  EXPECT_GE(delivered_at, Micros(200));
  EXPECT_LT(delivered_at, Micros(210));  // + transmission time
}

TEST(Network, DropsToUnreachableDestination) {
  Simulation sim;
  Topology topo(3, AzLatencyTable::UsWest1());
  const HostId a = topo.AddHost(0, "a");
  const HostId b = topo.AddHost(1, "b");
  Network net(sim, topo);
  topo.PartitionAzs(0, 1);
  bool delivered = false;
  net.Send(a, b, 10, [&] { delivered = true; });
  sim.Run();
  EXPECT_FALSE(delivered);
}

TEST(Network, DropsWhenPartitionHappensMidFlight) {
  Simulation sim;
  Topology topo(3, AzLatencyTable::UsWest1());
  const HostId a = topo.AddHost(0, "a");
  const HostId b = topo.AddHost(1, "b");
  Network net(sim, topo);
  bool delivered = false;
  net.Send(a, b, 10, [&] { delivered = true; });
  sim.After(Micros(1), [&] { topo.PartitionAzs(0, 1); });
  sim.Run();
  EXPECT_FALSE(delivered);
}

TEST(Network, LossyLinkDelaysViaRetransmission) {
  Simulation sim(3);
  Topology topo(2, AzLatencyTable::Uniform(2, Micros(10), Micros(100)));
  topo.set_jitter_fraction(0);
  const HostId a = topo.AddHost(0, "a");
  const HostId b = topo.AddHost(1, "b");
  Network net(sim, topo);
  net.SetDropProbability(0, 1, 0.5);
  // TCP semantics: loss between reachable hosts is retried, so every
  // message still arrives — late, by one retransmit timeout per loss.
  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    net.Send(a, b, 10, [&] { ++delivered; });
  }
  sim.Run();
  EXPECT_EQ(delivered, 50) << "drops below the retry cap must not lose data";
  EXPECT_GT(net.messages_dropped(), 0) << "p=0.5 must have dropped some";
  net.ClearDropProbabilities();
  const int64_t dropped_before = net.messages_dropped();
  net.Send(a, b, 10, [] {});
  sim.Run();
  EXPECT_EQ(net.messages_dropped(), dropped_before);
}

TEST(Network, TotalLossResetsAfterMaxRetransmits) {
  Simulation sim(4);
  Topology topo(2, AzLatencyTable::Uniform(2, Micros(10), Micros(100)));
  const HostId a = topo.AddHost(0, "a");
  const HostId b = topo.AddHost(1, "b");
  Network net(sim, topo);
  net.SetDropProbability(0, 1, 1.0);
  bool delivered = false;
  net.Send(a, b, 10, [&] { delivered = true; });
  sim.Run();
  EXPECT_FALSE(delivered) << "a fully lossy link must eventually give up";
  EXPECT_EQ(net.messages_dropped(), kMaxRetransmits);
}

TEST(Network, AccountsIntraVsInterAzBytes) {
  Simulation sim;
  Topology topo(3, AzLatencyTable::UsWest1());
  const HostId a = topo.AddHost(0, "a");
  const HostId b = topo.AddHost(0, "b");
  const HostId c = topo.AddHost(1, "c");
  Network net(sim, topo);
  net.Send(a, b, 1000, [] {});
  net.Send(a, c, 1000, [] {});
  sim.Run();
  const int64_t framed = 1000 + net.config().per_message_overhead_bytes;
  EXPECT_EQ(net.intra_az_bytes(), framed);
  EXPECT_EQ(net.inter_az_bytes(), framed);
  EXPECT_EQ(net.az_pair_bytes(0, 1), framed);
  EXPECT_EQ(net.host_stats(a).bytes_sent, 2 * framed);
  EXPECT_EQ(net.host_stats(a).messages_sent, 2);
}

TEST(Network, BandwidthQueuesTransfers) {
  Simulation sim;
  Topology topo(2, AzLatencyTable::Uniform(2, Micros(10), Micros(100)));
  topo.set_jitter_fraction(0);
  const HostId a = topo.AddHost(0, "a");
  const HostId b = topo.AddHost(1, "b");
  NetworkConfig cfg;
  cfg.inter_az_bytes_per_sec = 1e6;  // 1 MB/s: 1 ms per KB
  cfg.nic_bytes_per_sec = 1e9;
  cfg.per_message_overhead_bytes = 0;
  Network net(sim, topo, cfg);
  std::vector<Nanos> arrivals;
  for (int i = 0; i < 3; ++i) {
    net.Send(a, b, 1000, [&] { arrivals.push_back(sim.now()); });
  }
  sim.Run();
  ASSERT_EQ(arrivals.size(), 3u);
  // Serialized on the link: ~1ms apart.
  EXPECT_GT(arrivals[1] - arrivals[0], Micros(900));
  EXPECT_GT(arrivals[2] - arrivals[1], Micros(900));
}

TEST(ThreadPool, ParallelismMatchesThreadCount) {
  Simulation sim;
  ThreadPool pool(sim, "p", 2);
  std::vector<Nanos> done;
  for (int i = 0; i < 4; ++i) {
    pool.Submit(Millis(10), [&] { done.push_back(sim.now()); });
  }
  sim.Run();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done[0], Millis(10));
  EXPECT_EQ(done[1], Millis(10));
  EXPECT_EQ(done[2], Millis(20));
  EXPECT_EQ(done[3], Millis(20));
  EXPECT_EQ(pool.busy_ns(), 4 * Millis(10));
}

TEST(ThreadPool, AffinitySerialisesOneThread) {
  Simulation sim;
  ThreadPool pool(sim, "p", 4);
  std::vector<Nanos> done;
  for (int i = 0; i < 3; ++i) {
    pool.SubmitTo(2, Millis(5), [&] { done.push_back(sim.now()); });
  }
  sim.Run();
  EXPECT_EQ(done.back(), Millis(15));
}

TEST(ThreadPool, UtilizationWindow) {
  Simulation sim;
  ThreadPool pool(sim, "p", 1);
  pool.Submit(Millis(30), nullptr);
  sim.RunUntil(Millis(60));
  EXPECT_NEAR(pool.Utilization(0), 0.5, 0.01);
  pool.ResetStats();
  EXPECT_EQ(pool.busy_ns(), 0);
}

TEST(ThreadPool, GreySlowdownStretchesServiceTime) {
  Simulation sim;
  ThreadPool pool(sim, "p", 1);
  pool.set_slowdown(3.0);
  Nanos done_at = 0;
  pool.Submit(Millis(10), [&] { done_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(done_at, Millis(30));
  pool.set_slowdown(1.0);
  const Nanos t0 = sim.now();
  pool.Submit(Millis(10), [&] { done_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(done_at - t0, Millis(10)) << "restore must clear the stretch";
}

TEST(Disk, GreySlowdownStretchesServiceTime) {
  Simulation sim;
  Disk disk(sim, "d", Micros(50), 1e9, 1e9);
  disk.set_slowdown(4.0);
  Nanos done_at = 0;
  disk.Write(1'000'000, [&] { done_at = sim.now(); });  // 1 MB, x4
  sim.Run();
  EXPECT_GE(done_at, 4 * Micros(1050));
}

TEST(Disk, ServiceTimeIncludesAccessAndTransfer) {
  Simulation sim;
  Disk disk(sim, "d", Micros(50), 1e9, 1e9);  // 1 GB/s
  Nanos done_at = 0;
  disk.Write(1'000'000, [&] { done_at = sim.now(); });  // 1 MB -> 1 ms
  sim.Run();
  EXPECT_GE(done_at, Micros(1050));
  EXPECT_EQ(disk.stats().bytes_written, 1'000'000);
}

// ---------------------------------------------------------------------------
// Scheduler ordering: equal-timestamp events dispatch in insertion order
// wherever they wait. The randomized dispatch-order digests live in
// tests/behaviour_digest_test.cc.
// ---------------------------------------------------------------------------

TEST(SchedulerEquivalence, FifoAtEqualTimestampAcrossWheelHeapBoundary) {
  Simulation sim;
  std::vector<int> order;
  const Nanos T = Millis(50);
  // Scheduled long before T: parked in the wheel.
  sim.At(T, [&] {
    order.push_back(0);
    // Scheduled while dispatching at T: the wheel cursor has already
    // passed T, so these land in the imminent heap — yet must still run
    // after every earlier-seq event at T.
    sim.At(T, [&] { order.push_back(2); });
    sim.After(0, [&] { order.push_back(3); });
  });
  // Scheduled from an event just before T.
  sim.At(T - Micros(100), [&] {
    sim.At(T, [&] { order.push_back(1); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now(), T);
}

TEST(SchedulerEquivalence, CancelAtTickTimestampHonoursFifo) {
  Simulation sim;
  int ticks = 0;
  auto h = sim.Every(Millis(10), [&] { ++ticks; });
  // Each tick reschedules itself with a fresh insertion seq, so a cancel
  // scheduled *after* the 20 ms tick ran carries a later seq than the
  // pending 30 ms tick: at the 30 ms tie the tick dispatches first, then
  // the cancel lands; nothing fires afterwards.
  sim.At(Millis(25), [&] {
    sim.At(Millis(30), [&] { h.Cancel(); });
  });
  sim.RunUntil(Millis(200));
  EXPECT_EQ(ticks, 3);
  EXPECT_TRUE(sim.Empty());
}

TEST(SchedulerEquivalence, CancelBeforePendingTickSuppressesIt) {
  Simulation sim;
  int ticks = 0;
  Simulation::PeriodicHandle h;
  // Earlier insertion seq than every tick: at the 30 ms tie the cancel
  // runs first and the in-flight tick must no-op.
  sim.At(Millis(30), [&] { h.Cancel(); });
  h = sim.Every(Millis(10), [&] { ++ticks; });
  sim.RunUntil(Millis(200));
  EXPECT_EQ(ticks, 2);
}

TEST(Engine, PeriodicTickNeverCopiesItsCallback) {
  struct Payload {
    int* copies;
    explicit Payload(int* c) : copies(c) {}
    Payload(const Payload& o) : copies(o.copies) { ++*copies; }
    Payload(Payload&& o) noexcept : copies(o.copies) {}
  };
  Simulation sim;
  int copies = 0;
  int ticks = 0;
  Payload p(&copies);
  auto h = sim.Every(Millis(1), [p = std::move(p), &ticks] { ++ticks; });
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(ticks, 1000);
  EXPECT_EQ(copies, 0) << "Every() must reschedule by handle, not copy "
                          "its closure per tick";
  h.Cancel();
}

TEST(Engine, FarFutureEventsBeyondWheelHorizonFire) {
  Simulation sim;
  std::vector<long long> fired;
  // ~25 h: beyond the level-3 horizon, parked in the far-future heap.
  sim.At(Seconds(90000), [&] { fired.push_back(sim.now()); });
  sim.At(Seconds(30), [&] { fired.push_back(sim.now()); });
  sim.Run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], Seconds(30));
  EXPECT_EQ(fired[1], Seconds(90000));
  EXPECT_EQ(sim.now(), Seconds(90000));
}

// RunUntil(t) drains the wheel only when an event may be due by t, so its
// bound must see every place an event can wait: a level-0 slot, an upper
// slot at the cursor waiting to cascade, and the far heap.
TEST(Engine, RunUntilReachesEveryEventDueByTheBound) {
  Simulation sim;
  std::vector<long long> fired;
  const auto record = [&] { fired.push_back(sim.now()); };
  const Nanos rev = Nanos{1} << 30;  // one level-0 revolution
  sim.At(rev - 100, record);         // level 0, last slot
  sim.At(rev + 1000, record);        // level 1, current once that slot drains
  sim.At(Seconds(400000), record);   // beyond level 3: the far heap
  sim.RunUntil(rev + 5000);
  EXPECT_EQ(fired, (std::vector<long long>{rev - 100, rev + 1000}));
  sim.RunUntil(Seconds(400000));
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_TRUE(sim.Empty());
}

TEST(Engine, DestroyingTheEngineReleasesEveryPendingCallback) {
  // 10,000 events span three 4096-event slabs; half fire, half are still
  // queued when the engine goes, and each slab is unmapped only after
  // its events' callbacks are destroyed.
  auto token = std::make_shared<int>(0);
  int fired = 0;
  {
    Simulation sim;
    for (int i = 0; i < 10000; ++i) {
      sim.After(Millis(i), [token, &fired] { ++fired; });
    }
    EXPECT_EQ(token.use_count(), 10001);
    sim.RunUntil(Millis(4999));
    EXPECT_EQ(fired, 5000);
    EXPECT_EQ(token.use_count(), 5001);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// ---------------------------------------------------------------------------
// One-shot cancellation.
// ---------------------------------------------------------------------------

// Counts destructions of the one live copy of a callback (moved-from
// shells do not count).
struct DestroyProbe {
  int* destroyed;
  explicit DestroyProbe(int* d) : destroyed(d) {}
  DestroyProbe(DestroyProbe&& o) noexcept
      : destroyed(std::exchange(o.destroyed, nullptr)) {}
  DestroyProbe(const DestroyProbe&) = delete;
  ~DestroyProbe() {
    if (destroyed != nullptr) ++*destroyed;
  }
};

TEST(EngineCancel, CancelledEventNeverRunsAndItsCallbackDiesAtCancel) {
  Simulation sim;
  int destroyed = 0;
  bool ran = false;
  auto t = sim.After(Millis(5), [p = DestroyProbe(&destroyed), &ran] {
    ran = true;
  });
  sim.After(Millis(10), [] {});
  EXPECT_EQ(destroyed, 0);
  EXPECT_EQ(sim.pending(), 2u);
  sim.Cancel(t);
  EXPECT_EQ(destroyed, 1) << "the callback must be destroyed at Cancel";
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(destroyed, 1);
}

TEST(EngineCancel, StaleTimerIsANoOp) {
  Simulation sim;
  int fired = 0;
  // After firing.
  auto a = sim.After(Millis(1), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending(), 0u);
  // After its slot was reused: the free list hands the same slot to the
  // next event, which a stale cancel must not touch.
  auto b = sim.After(Millis(1), [&] { ++fired; });
  EXPECT_EQ(b.idx, a.idx);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
  // Twice.
  auto c = sim.After(Millis(1), [&] { ++fired; });
  sim.Cancel(c);
  sim.Cancel(c);
  EXPECT_EQ(sim.pending(), 0u);
  // A default Timer names nothing.
  sim.After(Millis(1), [&] { ++fired; });
  sim.Cancel(Simulation::Timer{});
  sim.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(EngineCancel, CancelFromInsideOwnCallbackIsANoOp) {
  Simulation sim;
  Simulation::Timer self;
  int fired = 0;
  self = sim.After(Millis(1), [&] {
    ++fired;
    sim.Cancel(self);
    // Scheduled after the cancel: it may reuse no slot of a live event.
    sim.After(Millis(1), [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_TRUE(sim.Empty());
}

TEST(EngineCancel, CancelsInEveryPlaceAnEventCanWait) {
  struct Case {
    const char* where;
    Nanos delay;
  };
  // Level 0 (~1.07 s horizon), level 1 (the 5 s client RPC timeout),
  // level 2, level 3, and the far heap (beyond the ~78 h level-3
  // horizon).
  for (const Case& c : {Case{"level-0 slot", Millis(3)},
                        Case{"level-1 slot", Seconds(5)},
                        Case{"level-2 slot", Seconds(300)},
                        Case{"level-3 slot", Seconds(90000)},
                        Case{"far heap", Seconds(400000)}}) {
    SCOPED_TRACE(c.where);
    Simulation sim;
    int fired = 0;
    int destroyed = 0;
    auto t = sim.After(c.delay, [p = DestroyProbe(&destroyed), &fired] {
      ++fired;
    });
    // A live neighbour in the same place, scheduled both before and
    // after the cancelled one in its chain.
    sim.After(c.delay, [&] { ++fired; });
    sim.Cancel(t);
    sim.After(c.delay, [&] { ++fired; });
    EXPECT_EQ(destroyed, 1);
    EXPECT_EQ(sim.pending(), 2u);
    sim.Run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.events_processed(), 2u);
    EXPECT_EQ(sim.now(), c.delay);
  }
}

TEST(EngineCancel, CancelInTheSortedRunLeavesATombstone) {
  Simulation sim;
  int fired = 0;
  Simulation::Timer later;
  // Both in one ~65 us level-0 slot: when the first fires, the second is
  // already in the sorted run, so Cancel can only tombstone it.
  sim.At(Micros(10), [&] {
    ++fired;
    sim.Cancel(later);
  });
  later = sim.At(Micros(20), [&] { ++fired; });
  EXPECT_TRUE(sim.RunOne());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.Empty());
  // Only the tombstone remains: nothing to dispatch, and now() stays at
  // the last event that ran.
  EXPECT_FALSE(sim.RunOne());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(sim.now(), Micros(10));
}

TEST(EngineCancel, CancelInTheSpillHeapLeavesATombstone) {
  Simulation sim;
  std::vector<int> order;
  sim.At(Micros(10), [&] {
    order.push_back(0);
    // The wheel cursor is past this slot: zero-delay events spill into
    // the imminent heap.
    auto a = sim.After(0, [&] { order.push_back(1); });
    sim.After(0, [&] { order.push_back(2); });
    auto b = sim.After(Micros(5), [&] { order.push_back(3); });
    sim.Cancel(a);
    sim.Cancel(b);
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.now(), Micros(10));
  EXPECT_TRUE(sim.Empty());
}

TEST(EngineCancel, RunUntilSkipsTombstonesAndHonoursTheBound) {
  Simulation sim;
  std::vector<long long> fired;
  Simulation::Timer t;
  sim.At(Micros(10), [&] { sim.Cancel(t); });
  t = sim.At(Micros(20), [&] { fired.push_back(sim.now()); });
  sim.At(Micros(30), [&] { fired.push_back(sim.now()); });
  sim.RunUntil(Micros(25));
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(sim.now(), Micros(25));
  EXPECT_EQ(sim.pending(), 1u);
  sim.RunUntil(Millis(1));
  EXPECT_EQ(fired, (std::vector<long long>{Micros(30)}));
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(EngineCancel, ArmAndCancelChurnReusesSlots) {
  // 20,000 5 s timeouts armed 50 us apart, each cancelled 100 arms (5 ms)
  // later: without cancellation all of them would be parked at once
  // (five 4096-event slabs); with it the pool stays at one slab.
  Simulation sim;
  std::vector<Simulation::Timer> armed;
  int fired = 0;
  int arms = 0;
  std::function<void()> arm = [&] {
    armed.push_back(sim.After(Seconds(5), [&] { ++fired; }));
    if (armed.size() > 100) {
      sim.Cancel(armed.front());
      armed.erase(armed.begin());
    }
    if (++arms < 20000) sim.After(Micros(50), arm);
  };
  sim.After(0, arm);
  sim.Run();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(sim.events_processed(), 20000u + 100u);
  EXPECT_EQ(sim.slabs(), 1u);
}

// ---------------------------------------------------------------------------
// Periodic cancellation: a periodic cancels through the same Timer path as
// a one-shot, whether by Cancel(), by dropping its handle or by assigning
// over it, and stops at once.
// ---------------------------------------------------------------------------

TEST(EnginePeriodic, CancelFromInsideTheTickFinishesThatTickOnly) {
  Simulation sim;
  int ticks = 0;
  int destroyed = 0;
  int tail_sum = 0;
  Simulation::PeriodicHandle h;
  // The vector's heap buffer is read after the Cancel: had Cancel
  // destroyed the running closure, ASan would flag the read.
  h = sim.Every(Millis(10), [&, p = DestroyProbe(&destroyed),
                             tail = std::vector<int>{1, 2, 3}] {
    if (++ticks == 3) {
      h.Cancel();
      EXPECT_EQ(destroyed, 0) << "the running tick must survive its Cancel";
      EXPECT_EQ(sim.pending(), 0u);
    }
    tail_sum += tail[2];
  });
  sim.RunUntil(Millis(30));
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(tail_sum, 9);
  EXPECT_EQ(destroyed, 1) << "freed once the tick returned";
  EXPECT_TRUE(sim.Empty());
  sim.RunUntil(Millis(200));
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(EnginePeriodic, CancelInTheSortedRunLeavesATombstone) {
  Simulation sim;
  int ticks = 0;
  int destroyed = 0;
  Simulation::PeriodicHandle h;
  // Both in the ~65 us level-0 slot at 10 ms: when the one-shot fires,
  // the tick is already in the sorted run behind it.
  sim.At(Millis(10) - Micros(5), [&] {
    h.Cancel();
    EXPECT_EQ(destroyed, 1) << "the callback dies at Cancel";
    EXPECT_EQ(sim.pending(), 0u);
  });
  h = sim.Every(Millis(10), [&, p = DestroyProbe(&destroyed)] { ++ticks; });
  EXPECT_EQ(sim.pending(), 2u);
  sim.RunUntil(Millis(100));
  EXPECT_EQ(ticks, 0);
  EXPECT_EQ(sim.events_processed(), 1u) << "a tombstone is no dispatch";
  EXPECT_EQ(sim.now(), Millis(100));
}

TEST(EnginePeriodic, DroppingTheHandleStopsThePeriodicAtOnce) {
  Simulation sim;
  int ticks = 0;
  int destroyed = 0;
  {
    Simulation::PeriodicHandle h = sim.Every(
        Millis(10), [&, p = DestroyProbe(&destroyed)] { ++ticks; });
    sim.RunUntil(Millis(25));
    EXPECT_EQ(ticks, 2);
    EXPECT_EQ(sim.pending(), 1u);
  }
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(sim.pending(), 0u);
  sim.RunUntil(Millis(200));
  EXPECT_EQ(ticks, 2) << "no firing after the last owner is gone";
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(EnginePeriodic, MoveAssigningOverALiveHandleCancelsItsTimer) {
  Simulation sim;
  int a = 0;
  int b = 0;
  Simulation::PeriodicHandle h = sim.Every(Millis(10), [&] { ++a; });
  sim.RunUntil(Millis(15));
  h = sim.Every(Millis(10), [&] { ++b; });
  EXPECT_EQ(sim.pending(), 1u) << "the overwritten timer stops at once";
  // Moving transfers ownership: the moved-from handle cancels nothing.
  Simulation::PeriodicHandle moved = std::move(h);
  h.Cancel();
  h = Simulation::PeriodicHandle();
  sim.RunUntil(Millis(55));
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 4);
  moved.Cancel();
  EXPECT_TRUE(sim.Empty());
  static_assert(!std::is_copy_constructible_v<Simulation::PeriodicHandle>);
}

// ---------------------------------------------------------------------------
// Hard failures: scheduling into the past aborts in every build type.
// ---------------------------------------------------------------------------

TEST(EngineDeathTest, PastTimeScheduleAborts) {
  Simulation sim;
  sim.After(Millis(5), [] {});
  sim.RunUntil(Millis(10));
  EXPECT_DEATH(sim.At(Millis(1), [] {}), "scheduling into the past");
}

TEST(EngineDeathTest, NegativeDelayAborts) {
  Simulation sim;
  EXPECT_DEATH(sim.After(-1, [] {}), "scheduling into the past");
}

TEST(EngineDeathTest, NonPositiveEveryIntervalAborts) {
  Simulation sim;
  EXPECT_DEATH(sim.Every(0, [] {}), "scheduling into the past");
}

// ---------------------------------------------------------------------------
// Resource accounting: backlog clamps, zero windows, accrued busy time.
// ---------------------------------------------------------------------------

TEST(ThreadPool, BacklogClampsToZeroOnceFreeAtPasses) {
  Simulation sim;
  ThreadPool pool(sim, "p", 2);
  pool.Submit(Millis(5), nullptr);
  EXPECT_EQ(pool.Backlog(), 0) << "second thread is free immediately";
  EXPECT_EQ(pool.BacklogOf(0), Millis(5));
  sim.RunUntil(Millis(50));
  // free_at_ is now far in the past; a raw subtraction would go negative
  // and poison AIMD admission / NDB overflow decisions.
  EXPECT_EQ(pool.Backlog(), 0);
  EXPECT_EQ(pool.BacklogOf(0), 0);
}

TEST(Disk, BacklogClampsToZeroOnceFreeAtPasses) {
  Simulation sim;
  Disk disk(sim, "d", Micros(50), 1e9, 1e9);
  disk.Write(1'000'000, nullptr);
  EXPECT_GT(disk.Backlog(), 0);
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(disk.Backlog(), 0);
}

TEST(ThreadPool, UtilizationZeroWindowIsZeroNotNan) {
  Simulation sim;
  ThreadPool pool(sim, "p", 1);
  pool.Submit(Millis(5), nullptr);
  sim.RunUntil(Millis(10));
  // window_start == now(): the telemetry scraper hits this on scrape
  // boundaries; NaN/inf here would poison the grey-slow detector.
  EXPECT_EQ(pool.Utilization(sim.now()), 0.0);
}

TEST(Disk, UtilizationZeroWindowIsZeroNotNan) {
  Simulation sim;
  Disk disk(sim, "d", Micros(50), 1e9, 1e9);
  disk.Write(1000, nullptr);
  sim.RunUntil(Millis(10));
  EXPECT_EQ(disk.Utilization(sim.now()), 0.0);
}

TEST(ThreadPool, BusyNsIsClippedToElapsedWork) {
  Simulation sim;
  ThreadPool pool(sim, "p", 1);
  pool.Submit(Millis(10), nullptr);
  pool.Submit(Millis(10), nullptr);  // queued behind the first
  // Nothing has elapsed yet: charging whole bookings at submit time (the
  // old behaviour) would report 20 ms of "busy" on an idle pool.
  EXPECT_EQ(pool.busy_ns(), 0);
  EXPECT_EQ(pool.completed(), 0);
  sim.RunUntil(Millis(5));
  EXPECT_EQ(pool.busy_ns(), Millis(5));
  EXPECT_EQ(pool.completed(), 0) << "first item is still in service";
  sim.RunUntil(Millis(15));
  EXPECT_EQ(pool.busy_ns(), Millis(15));
  EXPECT_EQ(pool.completed(), 1);
  sim.RunUntil(Millis(60));
  EXPECT_EQ(pool.busy_ns(), Millis(20)) << "busy stops accruing when idle";
  EXPECT_EQ(pool.completed(), 2);
}

TEST(ThreadPool, ResetStatsCarriesInFlightWorkIntoNewWindow) {
  Simulation sim;
  ThreadPool pool(sim, "p", 1);
  pool.Submit(Millis(10), nullptr);
  sim.RunUntil(Millis(4));
  pool.ResetStats();
  EXPECT_EQ(pool.busy_ns(), 0);
  EXPECT_EQ(pool.completed(), 0);
  sim.RunUntil(Millis(20));
  // The 6 ms of service remaining at reset accrued inside the new window,
  // and its completion landed there too.
  EXPECT_EQ(pool.busy_ns(), Millis(6));
  EXPECT_EQ(pool.completed(), 1);
}

TEST(Disk, BusyNsIsClippedToElapsedWork) {
  Simulation sim;
  Disk disk(sim, "d", 0, 1e9, 1e9);  // no access time: 1 MB == 1 ms
  disk.Write(1'000'000, nullptr);
  EXPECT_EQ(disk.stats().busy_ns, 0);
  sim.RunUntil(Micros(400));
  EXPECT_EQ(disk.stats().busy_ns, Micros(400));
  sim.RunUntil(Millis(10));
  EXPECT_EQ(disk.stats().busy_ns, Millis(1));
  EXPECT_EQ(disk.stats().ops, 1);
}

}  // namespace
}  // namespace repro
