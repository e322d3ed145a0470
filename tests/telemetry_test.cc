// Tests for the telemetry pipeline: scraper rings, SLO burn-rate math
// (checked against hand-computed windows), health rollups including
// grey-slow and staleness detection, the Prometheus exporter, and the
// determinism contract (telemetry on vs off is byte-identical) asserted
// end-to-end through the chaos harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "chaos/harness.h"
#include "telemetry/export.h"
#include "telemetry/health.h"
#include "telemetry/scraper.h"
#include "telemetry/slo.h"
#include "util/rng.h"

namespace repro::telemetry {
namespace {

// ---------------------------------------------------------------- rings

TEST(RingSeries, EvictsOldestAndIndexesOldestFirst) {
  RingSeries ring(3);
  for (int i = 0; i < 5; ++i) ring.Push(i * 100, i);
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.at(0).t, 200);  // 0 and 1 evicted
  EXPECT_EQ(ring.at(2).t, 400);
  EXPECT_DOUBLE_EQ(ring.latest().v, 4);
}

TEST(RingSeries, AtOrBeforePicksNewestNotAfter) {
  RingSeries ring(8);
  ring.Push(100, 1);
  ring.Push(200, 2);
  ring.Push(300, 3);
  EXPECT_DOUBLE_EQ(ring.AtOrBefore(250)->v, 2);
  EXPECT_DOUBLE_EQ(ring.AtOrBefore(300)->v, 3);
  EXPECT_FALSE(ring.AtOrBefore(99).has_value());
  EXPECT_FALSE(RingSeries(4).AtOrBefore(1000).has_value());
}

TEST(ParsedName, SplitsBaseAndLabels) {
  const ParsedName p = ParseSeriesName("host.up{az=2,host=nn-5}");
  EXPECT_EQ(p.base, "host.up");
  EXPECT_EQ(p.LabelOr("az"), "2");
  EXPECT_EQ(p.LabelOr("host"), "nn-5");
  EXPECT_EQ(p.LabelOr("missing", "d"), "d");
  EXPECT_EQ(ParseSeriesName("plain.name").base, "plain.name");
  EXPECT_TRUE(ParseSeriesName("plain.name").labels.empty());
}

// -------------------------------------------------------------- scraper

TEST(Scraper, SnapshotsCountersAndCallbacks) {
  metrics::Registry reg;
  metrics::Counter* c = reg.GetCounter("layer.thing.events");
  double polled = 7.5;
  reg.RegisterCallback("layer.thing.depth", {}, metrics::MetricKind::kGauge,
                       [&polled] { return polled; });

  Scraper scraper(&reg);
  c->Add(3);
  scraper.ScrapeOnce(1000);
  c->Add(2);
  polled = 9.0;
  scraper.ScrapeOnce(2000);

  const RingSeries* events = scraper.Find("layer.thing.events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 2u);
  EXPECT_DOUBLE_EQ(events->at(0).v, 3);
  EXPECT_DOUBLE_EQ(events->at(1).v, 5);
  EXPECT_EQ(scraper.KindOf("layer.thing.events"),
            metrics::MetricKind::kCounter);

  const RingSeries* depth = scraper.Find("layer.thing.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_DOUBLE_EQ(depth->at(0).v, 7.5);
  EXPECT_DOUBLE_EQ(depth->at(1).v, 9.0);
  EXPECT_EQ(scraper.scrape_count(), 2);
}

// --------------------------------------------------- burn rates and SLOs

// Injects a (total, good) counter pair as scraped points at a fixed
// cadence, so window deltas are exact and hand-computable.
struct SyntheticSli {
  Scraper scraper{nullptr};
  double total = 0, good = 0;

  void Sample(Nanos t, double total_inc, double good_inc) {
    total += total_inc;
    good += good_inc;
    scraper.Inject("sli.total", metrics::MetricKind::kCounter, t, total);
    scraper.Inject("sli.good", metrics::MetricKind::kCounter, t, good);
  }
  const RingSeries* total_ring() const { return scraper.Find("sli.total"); }
  const RingSeries* good_ring() const { return scraper.Find("sli.good"); }
};

TEST(SloEngine, BurnRateMatchesHandComputedWindow) {
  SyntheticSli sli;
  // 100 requests per 100ms tick; ticks 1-5 all good, ticks 6-10 carry
  // 10 errors each.
  for (int i = 1; i <= 10; ++i) {
    sli.Sample(i * Millis(100), 100, i <= 5 ? 100 : 90);
  }
  // Window = last 500ms = ticks 6-10: 500 total, 450 good.
  // error_fraction = 50/500 = 0.10; target 0.999 -> burn = 0.10/0.001.
  const auto burn =
      SloEngine::BurnRate(sli.total_ring(), sli.good_ring(), Millis(500),
                          Millis(1000), 0.999);
  ASSERT_TRUE(burn.has_value());
  EXPECT_NEAR(*burn, 100.0, 1e-9);

  // A window wider than the series falls back to the oldest retained
  // point as baseline: ticks 2-10 = 900 total, 850 good
  // -> (50/900)/0.001.
  const auto burn_all =
      SloEngine::BurnRate(sli.total_ring(), sli.good_ring(), Millis(2000),
                          Millis(1000), 0.999);
  ASSERT_TRUE(burn_all.has_value());
  EXPECT_NEAR(*burn_all, 500.0 / 9.0, 1e-9);
}

TEST(SloEngine, NoTrafficIsNoDataNotZeroBurn) {
  SyntheticSli sli;
  sli.Sample(Millis(100), 100, 100);
  sli.Sample(Millis(200), 0, 0);  // counters frozen: no traffic
  EXPECT_FALSE(SloEngine::BurnRate(sli.total_ring(), sli.good_ring(),
                                   Millis(100), Millis(200), 0.999)
                   .has_value());
  EXPECT_FALSE(SloEngine::BurnRate(nullptr, nullptr, Millis(100), Millis(200),
                                   0.999)
                   .has_value());
}

TEST(SloEngine, FiresWhenBothWindowsBurnAndResolvesOnShortWindow) {
  SyntheticSli sli;
  SloEngine engine;
  BurnRule rule{"fast", /*short=*/Millis(200), /*long=*/Millis(600),
                /*threshold=*/10.0};
  engine.AddObjective({"availability", "sli.total", "sli.good", 0.999,
                       {rule}});

  // Healthy for 1s, then a 5% error rate (burn 50 > 10), then healthy.
  Nanos t = 0;
  auto tick = [&](double good_of_100) {
    t += Millis(100);
    sli.Sample(t, 100, good_of_100);
    engine.Evaluate(sli.scraper, t);
  };
  for (int i = 0; i < 10; ++i) tick(100);
  EXPECT_TRUE(engine.alerts().empty());

  // Errors begin. The long window (600ms) still averages in the healthy
  // ticks; the alert must fire once it too crosses the threshold:
  // after 2 bad ticks the 600ms window holds 10 errors / 600 requests
  // -> fraction 1/60 -> burn 16.7 > 10, so fire on the second bad tick.
  tick(95);
  EXPECT_EQ(engine.active_alert_count(), 0);
  tick(95);
  ASSERT_EQ(engine.alerts().size(), 1u);
  EXPECT_EQ(engine.alerts()[0].objective, "availability");
  EXPECT_EQ(engine.alerts()[0].rule, "fast");
  EXPECT_EQ(engine.alerts()[0].fired_at, t);
  EXPECT_TRUE(engine.alerts()[0].active());

  // Recovery: the short window (200ms) must read clean before resolve.
  tick(100);
  EXPECT_TRUE(engine.alerts()[0].active());  // window still has 1 bad tick
  tick(100);
  EXPECT_FALSE(engine.alerts()[0].active());
  EXPECT_EQ(engine.alerts()[0].resolved_at, t);
  EXPECT_EQ(engine.active_alert_count(), 0);
  // History keeps the resolved alert; a fresh burst appends a new one.
  tick(50);
  tick(50);
  EXPECT_EQ(engine.alerts().size(), 2u);
}

TEST(SloConfig, ScaledDownDividesEveryWindow) {
  const SloConfig prod = SloConfig::Production();
  const SloConfig scaled = prod.ScaledDown(1200);
  ASSERT_EQ(prod.rules.size(), scaled.rules.size());
  for (size_t i = 0; i < prod.rules.size(); ++i) {
    EXPECT_EQ(scaled.rules[i].short_window,
              prod.rules[i].short_window / 1200);
    EXPECT_EQ(scaled.rules[i].long_window, prod.rules[i].long_window / 1200);
    EXPECT_DOUBLE_EQ(scaled.rules[i].threshold, prod.rules[i].threshold);
  }
}

// --------------------------------------------------------------- health

// Builds a scraped history for `hosts` of one role, all in az 0 unless
// the name says otherwise. `fn(host_index, tick)` returns the per-tick
// ops increment; service/queue/error shaping is layered on by tests.
class HealthFixture : public ::testing::Test {
 protected:
  Scraper scraper{nullptr};

  void PushHost(const std::string& host, const std::string& az, Nanos t,
                bool up, double ops, double errors = 0, double queue_ns = 0,
                double busy_ns = -1, double work = -1) {
    const std::string suffix = "{az=" + az + ",host=" + host + "}";
    auto inject = [&](const std::string& base, metrics::MetricKind kind,
                      double v) {
      scraper.Inject(base + suffix, kind, t, v);
    };
    inject("host.up", metrics::MetricKind::kGauge, up ? 1 : 0);
    inject("host.ops", metrics::MetricKind::kCounter, ops);
    inject("host.errors", metrics::MetricKind::kCounter, errors);
    inject("host.queue_ns", metrics::MetricKind::kGauge, queue_ns);
    if (busy_ns >= 0) {
      inject("host.busy_ns", metrics::MetricKind::kCounter, busy_ns);
      inject("host.work", metrics::MetricKind::kCounter, work);
    }
  }

  HealthState StateOf(const HealthSnapshot& snap, const std::string& host) {
    const HostHealth* h = snap.Find(host);
    return h == nullptr ? HealthState::kHealthy : h->state;
  }
};

TEST_F(HealthFixture, DownHostRollsUpUnavailableAndAzDegradesCluster) {
  // Two hosts per AZ over two AZs; one host in az 1 is down.
  for (int tick = 1; tick <= 6; ++tick) {
    const Nanos t = tick * Millis(50);
    PushHost("nn-0", "0", t, true, 100.0 * tick);
    PushHost("nn-1", "0", t, true, 100.0 * tick);
    PushHost("nn-2", "1", t, true, 100.0 * tick);
    PushHost("nn-3", "1", t, tick < 3, 100.0 * 3);
  }
  const HealthSnapshot snap = HealthModel().Evaluate(scraper, Millis(300));
  EXPECT_EQ(StateOf(snap, "nn-3"), HealthState::kUnavailable);
  EXPECT_EQ(snap.Find("nn-3")->reason, "down");
  EXPECT_EQ(snap.az_state.at("1"), HealthState::kUnavailable);  // 1 of 2 down
  EXPECT_EQ(snap.az_state.at("0"), HealthState::kHealthy);
  // One AZ dark out of two is not a majority -> cluster degraded.
  EXPECT_EQ(snap.cluster, HealthState::kDegraded);
  EXPECT_EQ(snap.UnhealthyHosts(), std::vector<std::string>{"nn-3"});
}

TEST_F(HealthFixture, ErrorRateDegradesThenUnavailable) {
  for (int tick = 1; tick <= 6; ++tick) {
    const Nanos t = tick * Millis(50);
    PushHost("nn-0", "0", t, true, 100.0 * tick, 20.0 * tick);  // 20% errors
    PushHost("nn-1", "0", t, true, 100.0 * tick, 60.0 * tick);  // 60% errors
    PushHost("nn-2", "0", t, true, 100.0 * tick);
  }
  const HealthSnapshot snap = HealthModel().Evaluate(scraper, Millis(300));
  EXPECT_EQ(StateOf(snap, "nn-0"), HealthState::kDegraded);
  EXPECT_EQ(StateOf(snap, "nn-1"), HealthState::kUnavailable);
  EXPECT_EQ(StateOf(snap, "nn-2"), HealthState::kHealthy);
}

TEST_F(HealthFixture, ErrorRateNeedsMinimumOpsVolume) {
  // 2 errors on 4 ops is 50%, but the volume floor (20 ops) keeps an
  // idle host from flagging on a handful of failures.
  for (int tick = 1; tick <= 6; ++tick) {
    const Nanos t = tick * Millis(50);
    PushHost("nn-0", "0", t, true, 1.0 * tick, 0.5 * tick);
    PushHost("nn-1", "0", t, true, 1.0 * tick);
  }
  const HealthSnapshot snap = HealthModel().Evaluate(scraper, Millis(300));
  EXPECT_EQ(StateOf(snap, "nn-0"), HealthState::kHealthy);
}

TEST_F(HealthFixture, GreySlowServiceTimeIsPeerRelative) {
  // Four NDB nodes moving the same op volume; node 3 spends 12x the busy
  // time per work item (a CPU-stalled grey host whose queues still drain
  // between scrapes — queue depth stays zero for everyone).
  for (int tick = 1; tick <= 6; ++tick) {
    const Nanos t = tick * Millis(50);
    const double work = 500.0 * tick;
    const double busy = 20e3 * 500.0 * tick;  // 20us per op
    PushHost("ndb-dn-0", "0", t, true, work, 0, 0, busy, work);
    PushHost("ndb-dn-1", "0", t, true, work, 0, 0, busy, work);
    PushHost("ndb-dn-2", "1", t, true, work, 0, 0, busy, work);
    PushHost("ndb-dn-3", "1", t, true, work, 0, 0, 12 * busy, work);
  }
  const HealthSnapshot snap = HealthModel().Evaluate(scraper, Millis(300));
  EXPECT_EQ(StateOf(snap, "ndb-dn-3"), HealthState::kDegraded);
  EXPECT_NE(snap.Find("ndb-dn-3")->reason.find("grey-slow"),
            std::string::npos);
  EXPECT_EQ(StateOf(snap, "ndb-dn-0"), HealthState::kHealthy);
  EXPECT_EQ(StateOf(snap, "ndb-dn-1"), HealthState::kHealthy);
  EXPECT_EQ(StateOf(snap, "ndb-dn-2"), HealthState::kHealthy);
}

TEST_F(HealthFixture, GreySlowIgnoresNearIdlePools) {
  // Same 12x ratio but only a couple of work items per window — below
  // min_work_for_service, so the mean is noise, not a signal.
  for (int tick = 1; tick <= 6; ++tick) {
    const Nanos t = tick * Millis(50);
    const double work = 1.0 * tick;
    PushHost("ndb-dn-0", "0", t, true, work, 0, 0, 20e3 * work, work);
    PushHost("ndb-dn-1", "0", t, true, work, 0, 0, 20e3 * work, work);
    PushHost("ndb-dn-2", "0", t, true, work, 0, 0, 12 * 20e3 * work, work);
  }
  const HealthSnapshot snap = HealthModel().Evaluate(scraper, Millis(300));
  EXPECT_EQ(StateOf(snap, "ndb-dn-2"), HealthState::kHealthy);
}

TEST_F(HealthFixture, StalenessFiresForCounterFrozenAtNonzero) {
  // nn-0 served 600 ops, then froze, while both peers progress fast.
  for (int tick = 1; tick <= 6; ++tick) {
    const Nanos t = tick * Millis(50);
    PushHost("nn-0", "0", t, true, 600);
    PushHost("nn-1", "0", t, true, 600.0 * tick);
    PushHost("nn-2", "1", t, true, 600.0 * tick);
  }
  const HealthSnapshot snap = HealthModel().Evaluate(scraper, Millis(300));
  EXPECT_EQ(StateOf(snap, "nn-0"), HealthState::kDegraded);
  EXPECT_EQ(snap.Find("nn-0")->reason, "stale");
}

TEST_F(HealthFixture, HostFrozenAtZeroIsIdleNotStale) {
  // nn-3 has been at zero all along — AZ-sticky clients never picked it.
  // No prior progress means load imbalance, not a grey failure; and its
  // frozen counter must also keep nn-0-style peers from being the only
  // signal (a second stalled host makes the rollup ambiguous).
  for (int tick = 1; tick <= 6; ++tick) {
    const Nanos t = tick * Millis(50);
    PushHost("nn-1", "0", t, true, 600.0 * tick);
    PushHost("nn-2", "1", t, true, 600.0 * tick);
    PushHost("nn-3", "1", t, true, 0);
  }
  const HealthSnapshot snap = HealthModel().Evaluate(scraper, Millis(300));
  EXPECT_EQ(StateOf(snap, "nn-3"), HealthState::kHealthy);
  EXPECT_TRUE(snap.UnhealthyHosts().empty());
}

TEST_F(HealthFixture, TrickleTrafficPeersDoNotTriggerStaleness) {
  // Peers move, but only by a few ops per window (probe trickle, below
  // min_stale_peer_ops): one frozen host is load imbalance, not grey.
  for (int tick = 1; tick <= 6; ++tick) {
    const Nanos t = tick * Millis(50);
    PushHost("nn-0", "0", t, true, 600);
    PushHost("nn-1", "0", t, true, 600.0 + 5 * tick);
    PushHost("nn-2", "1", t, true, 600.0 + 5 * tick);
  }
  const HealthSnapshot snap = HealthModel().Evaluate(scraper, Millis(300));
  EXPECT_EQ(StateOf(snap, "nn-0"), HealthState::kHealthy);
}

TEST_F(HealthFixture, ClientsWithoutQueueSeriesAreNeverStale) {
  // Clients export no host.queue_ns; a client that legitimately stopped
  // submitting must not be flagged even with busy peers.
  for (int tick = 1; tick <= 6; ++tick) {
    const Nanos t = tick * Millis(50);
    const std::string suffix = "{az=0,host=client-0}";
    scraper.Inject("host.up" + suffix, metrics::MetricKind::kGauge,
                   t, 1);
    scraper.Inject("host.ops" + suffix, metrics::MetricKind::kCounter,
                   t, 500);
    for (int c = 1; c <= 2; ++c) {
      const std::string s =
          "{az=0,host=client-" + std::to_string(c) + "}";
      scraper.Inject("host.up" + s, metrics::MetricKind::kGauge, t, 1);
      scraper.Inject("host.ops" + s, metrics::MetricKind::kCounter, t,
                     500.0 * tick);
    }
  }
  const HealthSnapshot snap = HealthModel().Evaluate(scraper, Millis(300));
  EXPECT_EQ(StateOf(snap, "client-0"), HealthState::kHealthy);
}

// ------------------------------------------------------------ exporters

TEST(Exporters, PrometheusTextExposition) {
  metrics::Registry reg;
  reg.GetCounter("hopsfs.client.retries")->Add(4);
  reg.GetGauge("ndb.tc.active_txns", {{"az", "1"}, {"node", "3"}})->Set(7);
  reg.GetHistogram("slo.latency.seconds")->Record(Millis(50));

  const std::string text = PrometheusText(reg);
  EXPECT_NE(text.find("# TYPE hopsfs_client_retries counter"),
            std::string::npos);
  EXPECT_NE(text.find("hopsfs_client_retries 4"), std::string::npos);
  EXPECT_NE(text.find("ndb_tc_active_txns{az=\"1\",node=\"3\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE slo_latency_seconds histogram"),
            std::string::npos);
  // 50 ms lies between the edges 2^25 - 1 ns and 2^26 - 1 ns.
  EXPECT_NE(text.find("slo_latency_seconds_bucket{le=\"0.033554431\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("slo_latency_seconds_bucket{le=\"0.067108863\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("slo_latency_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("slo_latency_seconds_sum 0.05\n"), std::string::npos);
  // The flattened .count/.sum samples Collect() emits for histograms
  // must not double-export: exactly one _count line.
  const size_t first = text.find("slo_latency_seconds_count 1");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("slo_latency_seconds_count", first + 1),
            std::string::npos);
}

// "0.000000031" -> 31: decimal seconds to integer nanoseconds, exactly.
Nanos ExactNanos(const std::string& seconds) {
  const size_t dot = seconds.find('.');
  Nanos ns = std::stoll(seconds.substr(0, dot)) * kSecond;
  if (dot != std::string::npos) {
    std::string frac = seconds.substr(dot + 1);
    frac.resize(9, '0');
    ns += std::stoll(frac);
  }
  return ns;
}

// The value printed after `prefix` at the start of a line of `text`.
std::string LineValue(const std::string& text, const std::string& prefix) {
  const size_t at = text.find("\n" + prefix);
  if (at == std::string::npos) return "";
  const size_t begin = at + 1 + prefix.size();
  return text.substr(begin, text.find('\n', begin) - begin);
}

// (le, cumulative count) of every finite _bucket line of `family`.
std::vector<std::pair<std::string, int64_t>> BucketLines(
    const std::string& text, const std::string& family) {
  std::vector<std::pair<std::string, int64_t>> out;
  const std::string key = "\n" + family + "_bucket{le=\"";
  for (size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at + 1)) {
    const size_t le = at + key.size();
    const size_t quote = text.find('"', le);
    if (text.compare(le, quote - le, "+Inf") == 0) continue;
    out.emplace_back(text.substr(le, quote - le),
                     std::stoll(text.substr(quote + 3)));  // past "} "
  }
  return out;
}

// A sorted-vector oracle over a few thousand log-uniform latencies from
// 1 us to 30 s, plus every power of two and its predecessor in that range:
// at each printed le the cumulative count is exact, and _count and _sum
// match the oracle to the nanosecond. An empty histogram prints the same
// le set, so every scrape carries the same buckets.
TEST(Exporters, PrometheusBucketsAreExactAtEveryEdge) {
  metrics::Registry reg;
  Histogram* h = reg.GetHistogram("op.latency.seconds");
  const auto empty = BucketLines(PrometheusText(reg), "op_latency_seconds");

  Rng rng(23);
  std::vector<Nanos> oracle;
  for (int i = 0; i < 4000; ++i) {
    oracle.push_back(static_cast<Nanos>(
        static_cast<double>(Micros(1)) * std::pow(3e7, rng.NextDouble())));
  }
  for (int k = 10; (Nanos{1} << k) <= Seconds(30); ++k) {
    oracle.push_back((Nanos{1} << k) - 1);
    oracle.push_back(Nanos{1} << k);
  }
  Nanos sum = 0;
  for (const Nanos v : oracle) {
    h->Record(v);
    sum += v;
  }
  std::sort(oracle.begin(), oracle.end());

  const std::string text = PrometheusText(reg);
  const auto full = BucketLines(text, "op_latency_seconds");
  ASSERT_EQ(full.size(), static_cast<size_t>(Histogram::kMaxEdgeLog2 -
                                             Histogram::kMinEdgeLog2 + 1));
  ASSERT_EQ(empty.size(), full.size());
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(empty[i].first, full[i].first);
    EXPECT_EQ(empty[i].second, 0);
    const Nanos le = ExactNanos(full[i].first);
    EXPECT_EQ(le, (Nanos{1} << (Histogram::kMinEdgeLog2 + i)) - 1);
    const int64_t want =
        std::upper_bound(oracle.begin(), oracle.end(), le) - oracle.begin();
    EXPECT_EQ(full[i].second, want) << "le=" << full[i].first;
  }
  const std::string n = std::to_string(oracle.size());
  EXPECT_EQ(LineValue(text, "op_latency_seconds_bucket{le=\"+Inf\"} "), n);
  EXPECT_EQ(LineValue(text, "op_latency_seconds_count "), n);
  EXPECT_EQ(ExactNanos(LineValue(text, "op_latency_seconds_sum ")), sum);
}

// ------------------------------------------- end-to-end chaos determinism

chaos::ChaosOptions SmallChaosOptions() {
  chaos::ChaosOptions opts;
  opts.seed = 42;
  opts.workload_clients = 6;
  opts.warmup = 1 * kSecond;
  opts.fault_window = 2 * kSecond;
  opts.settle = 2 * kSecond;
  opts.client_rpc_timeout = 250 * kMillisecond;
  opts.client_op_deadline = 1 * kSecond;
  return opts;
}

TEST(TelemetryDeterminism, ChaosRunIsByteIdenticalWithTelemetryOnOrOff) {
  chaos::FaultSchedule schedule;
  schedule.Add({600 * kMillisecond, chaos::FaultType::kCrashNdbNode, 1});
  schedule.Add({Millis(1200), chaos::FaultType::kRestartNdbNode, 1});

  chaos::ChaosOptions on = SmallChaosOptions();
  on.telemetry = true;
  chaos::ChaosOptions off = SmallChaosOptions();
  off.telemetry = false;

  const chaos::ChaosReport run_on = chaos::RunChaosSchedule(on, schedule);
  const chaos::ChaosReport run_off = chaos::RunChaosSchedule(off, schedule);

  // Telemetry observes; it must not perturb: the full event trace and
  // the workload outcome are byte-identical, and only the observed run
  // carries scrapes.
  EXPECT_EQ(run_on.TraceString(), run_off.TraceString());
  EXPECT_EQ(run_on.completed, run_off.completed);
  EXPECT_EQ(run_on.failed, run_off.failed);
  EXPECT_EQ(run_on.acked_writes, run_off.acked_writes);
  EXPECT_GT(run_on.scrapes, 0);
  EXPECT_EQ(run_off.scrapes, 0);
}

TEST(TelemetryDeterminism, FaultFreeRunRaisesNoAlertsAndRollsUpHealthy) {
  chaos::ChaosOptions opts = SmallChaosOptions();
  opts.telemetry = true;
  const chaos::ChaosReport r =
      chaos::RunChaosSchedule(opts, chaos::FaultSchedule{});
  EXPECT_TRUE(r.invariants_ok());  // includes slo-silence
  EXPECT_TRUE(r.alerts.empty());
  EXPECT_EQ(r.final_health.cluster, HealthState::kHealthy);
  EXPECT_TRUE(r.final_health.UnhealthyHosts().empty());
}

}  // namespace
}  // namespace repro::telemetry
