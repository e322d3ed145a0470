// Tests for the windowed completion counter, CSV export, and the
// counter/gauge/histogram registry (labels, reports).
#include <gtest/gtest.h>

#include "metrics/counters.h"
#include "metrics/timeseries.h"

namespace repro::metrics {
namespace {

TEST(TimeSeries, WindowsAccumulateCounts) {
  TimeSeries ts;
  ts.Record(Millis(10));
  ts.Record(Millis(90));
  ts.Record(Millis(150));
  ASSERT_EQ(ts.windows().size(), 2u);
  EXPECT_EQ(ts.windows()[0].count, 2);
  EXPECT_EQ(ts.windows()[1].count, 1);
  EXPECT_EQ(ts.windows()[0].start, 0);
  EXPECT_EQ(ts.windows()[1].start, Millis(100));
}

TEST(TimeSeries, GapsProduceEmptyWindows) {
  TimeSeries ts;
  ts.Record(Millis(50));
  ts.Record(Millis(450));
  ASSERT_EQ(ts.windows().size(), 5u);
  EXPECT_EQ(ts.windows()[2].count, 0);
}

TEST(TimeSeries, EdgeSampleBelongsToTheWindowItOpens) {
  // Windows are half-open [i*w, (i+1)*w): a sample at exactly t = w
  // lands in window 1, never window 0.
  TimeSeries ts;
  ts.Record(0);
  ts.Record(Millis(100));
  ASSERT_EQ(ts.windows().size(), 2u);
  EXPECT_EQ(ts.windows()[0].count, 1);
  EXPECT_EQ(ts.windows()[1].count, 1);
}

TEST(Csv, WritesAlignedColumns) {
  EXPECT_EQ(CsvText({{"t", {0, 1, 2}}, {"ops", {10, 20}}}),
            "t,ops\n"
            "0,10\n"
            "1,20\n"
            "2,\n");  // padded
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

  Histogram* h = reg.GetHistogram("op.latency");
  EXPECT_EQ(reg.GetHistogram("op.latency"), h);
  EXPECT_NE(reg.GetHistogram("op.latency", {{"op", "mkdir"}}), h);
  h->Record(Micros(5));
  h->Record(Millis(50));
  h->Record(Millis(500));
  EXPECT_EQ(h->count(), 3);
  EXPECT_EQ(h->sum(), Micros(550005));
  EXPECT_EQ(h->CountAtMost((Nanos{1} << 26) - 1), 2);  // <= 67.1 ms

  // Scrapes see a histogram as a .count/.sum pair, the sum in seconds.
  double count = -1;
  double sum = -1;
  for (const Registry::Sample& s : reg.Collect()) {
    if (s.name == "op.latency.count") count = s.value;
    if (s.name == "op.latency.sum") sum = s.value;
  }
  EXPECT_EQ(count, 3);
  EXPECT_DOUBLE_EQ(sum, 0.550005);
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
