// Tests for the windowed time-series metrics, CSV export, and the
// counter/gauge/histogram registry (labels, legacy-name shim, reports).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "metrics/counters.h"
#include "metrics/timeseries.h"

namespace repro::metrics {
namespace {

TEST(TimeSeries, WindowsAccumulateCountsAndSums) {
  TimeSeries ts(Millis(100));
  ts.Record(Millis(10), 5.0);
  ts.Record(Millis(90), 7.0);
  ts.Record(Millis(150), 1.0);
  ASSERT_EQ(ts.windows().size(), 2u);
  EXPECT_EQ(ts.windows()[0].count, 2);
  EXPECT_DOUBLE_EQ(ts.windows()[0].sum, 12.0);
  EXPECT_DOUBLE_EQ(ts.windows()[0].mean(), 6.0);
  EXPECT_EQ(ts.windows()[1].count, 1);
  EXPECT_EQ(ts.windows()[0].start, 0);
  EXPECT_EQ(ts.windows()[1].start, Millis(100));
}

TEST(TimeSeries, RatePerSecondScalesByWindow) {
  TimeSeries ts(Millis(100));
  for (int i = 0; i < 50; ++i) ts.Record(Millis(i));
  const auto rates = ts.RatePerSecond();
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 500.0);  // 50 events / 0.1 s
}

TEST(TimeSeries, GapsProduceEmptyWindows) {
  TimeSeries ts(Millis(100));
  ts.Record(Millis(50));
  ts.Record(Millis(450));
  ASSERT_EQ(ts.windows().size(), 5u);
  EXPECT_EQ(ts.windows()[2].count, 0);
  EXPECT_EQ(ts.RatePerSecond()[2], 0.0);
}

TEST(TimeSeries, SparklineTracksLoad) {
  TimeSeries ts(Millis(100));
  for (int i = 0; i < 100; ++i) ts.Record(Millis(10));   // busy window
  ts.Record(Millis(150));                                // quiet window
  const std::string spark = ts.Sparkline();
  ASSERT_EQ(spark.size(), 2u);
  EXPECT_EQ(spark[0], '#');
  EXPECT_NE(spark[1], '#');
}

TEST(TimeSeries, EdgeSampleBelongsToTheWindowItOpens) {
  // Windows are half-open [i*w, (i+1)*w): a sample at exactly t = w
  // lands in window 1, never window 0.
  TimeSeries ts(Millis(100));
  ts.Record(0);
  ts.Record(Millis(100));
  ASSERT_EQ(ts.windows().size(), 2u);
  EXPECT_EQ(ts.windows()[0].count, 1);
  EXPECT_EQ(ts.windows()[1].count, 1);
}

TEST(TimeSeries, EmptyWindowsAreNoDataNotZero) {
  TimeSeries ts(Millis(100));
  ts.Record(Millis(50), 4.0);
  ts.Record(Millis(250), 8.0);
  ASSERT_EQ(ts.windows().size(), 3u);
  EXPECT_TRUE(std::isnan(ts.windows()[1].mean()));
  EXPECT_TRUE(std::isnan(ts.MeanPerWindow()[1]));
  EXPECT_DOUBLE_EQ(ts.RatePerSecond()[1], 0.0);  // rates ARE true zeros
  ASSERT_TRUE(ts.MeanAt(Millis(50)).has_value());
  EXPECT_DOUBLE_EQ(*ts.MeanAt(Millis(50)), 4.0);
  EXPECT_FALSE(ts.MeanAt(Millis(150)).has_value());  // covered but empty
  EXPECT_FALSE(ts.MeanAt(Millis(999)).has_value());  // past coverage
}

TEST(Csv, WritesAlignedColumns) {
  const std::string path = "/tmp/repro_metrics_test.csv";
  ASSERT_TRUE(WriteCsv(path, {{"t", {0, 1, 2}}, {"ops", {10, 20}}}));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "t,ops");
  std::getline(in, line);
  EXPECT_EQ(line, "0,10");
  std::getline(in, line);
  EXPECT_EQ(line, "1,20");
  std::getline(in, line);
  EXPECT_EQ(line, "2,");  // padded
  std::remove(path.c_str());
}

TEST(Registry, LabelsEncodeSortedIntoFullNames) {
  const Labels labels{{"zone", "b"}, {"az", "1"}};
  EXPECT_EQ(labels.Encode(), "{az=1,zone=b}");
  EXPECT_EQ(FullName("host.up", labels), "host.up{az=1,zone=b}");
  EXPECT_EQ(Labels{}.Encode(), "");
}

TEST(Registry, GaugesAndHistograms) {
  Registry reg;
  Gauge* g = reg.GetGauge("ndb.tc.queue_depth");
  g->Set(5);
  g->Add(2);
  EXPECT_DOUBLE_EQ(g->value(), 7);
  EXPECT_EQ(reg.GetGauge("ndb.tc.queue_depth"), g);

  HistogramMetric* h = reg.GetHistogram("op.latency", {10, 100});
  h->Observe(5);
  h->Observe(50);
  h->Observe(500);
  EXPECT_EQ(h->count(), 3);
  EXPECT_DOUBLE_EQ(h->sum(), 555);
  ASSERT_EQ(h->bucket_counts().size(), 2u);
  EXPECT_EQ(h->bucket_counts()[0], 1);  // cumulative: <= 10
  EXPECT_EQ(h->bucket_counts()[1], 2);  // <= 100
}

TEST(Registry, ReportMatchesWholeDottedSegments) {
  EXPECT_TRUE(MatchesSegmentPrefix("ndb.tc.commits", "ndb.tc"));
  EXPECT_TRUE(MatchesSegmentPrefix("ndb.tc", "ndb.tc"));
  EXPECT_TRUE(MatchesSegmentPrefix("ndb.tc{az=1}", "ndb.tc"));
  EXPECT_FALSE(MatchesSegmentPrefix("ndb.tcp_retrans", "ndb.tc"));
  EXPECT_TRUE(MatchesSegmentPrefix("anything.at.all", ""));

  Registry reg;
  reg.GetCounter("ndb.tc.commits")->Add(1);
  reg.GetCounter("ndb.tcp_retrans")->Add(1);
  const std::string tc = reg.Report("ndb.tc");
  EXPECT_NE(tc.find("ndb.tc.commits"), std::string::npos);
  EXPECT_EQ(tc.find("ndb.tcp_retrans"), std::string::npos);
}

}  // namespace
}  // namespace repro::metrics
