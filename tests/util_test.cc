// Unit tests for util: status, rng, histogram, file writer, codec, strings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "util/codec.h"
#include "util/file.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace repro {
namespace {

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(OkStatus().ok());
  EXPECT_FALSE(NotFound("x").ok());
  EXPECT_EQ(NotFound("x").code(), Code::kNotFound);
  EXPECT_TRUE(Unavailable("n").retryable());
  EXPECT_TRUE(TimedOut("t").retryable());
  EXPECT_TRUE(Aborted("a").retryable());
  EXPECT_FALSE(InvalidArgument("i").retryable());
  EXPECT_EQ(NotFound("f").ToString(), "NOT_FOUND: f");
}

TEST(Expected, ValueAndStatus) {
  Expected<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  Expected<int> e(NotFound("nope"));
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), Code::kNotFound);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, NextBelowInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.NextBelow(17), 17u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ZipfSkewsTowardsLowRanks) {
  Rng r(5);
  ZipfGenerator zipf(1000, 0.99);
  int64_t low = 0, total = 20000;
  for (int i = 0; i < total; ++i) {
    if (zipf.Next(r) < 10) ++low;
  }
  // Top-10 of 1000 should get far more than its uniform share (1%).
  EXPECT_GT(low, total / 20);
}

TEST(Rng, DiscreteDistributionRespectsWeights) {
  Rng r(9);
  DiscreteDistribution d({0.0, 1.0, 0.0});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.Next(r), 1);
}

TEST(Histogram, PercentilesAndMean) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(Millis(i));
  EXPECT_EQ(h.count(), 1000);
  // ~3% relative bucket error allowed.
  EXPECT_NEAR(ToMillis(h.Percentile(0.5)), 500, 25);
  EXPECT_NEAR(ToMillis(h.Percentile(0.99)), 990, 40);
  EXPECT_NEAR(h.MeanMillis(), 500.5, 1);
  EXPECT_EQ(h.min(), Millis(1));
  EXPECT_EQ(h.max(), Millis(1000));
}

// Nearest-rank oracle over random samples: for every quantile the
// histogram must select the *same rank* as a sorted vector — the bucketed
// answer may exceed the exact value by at most one bucket's width (~3%),
// and must never come in below it. A rank-selection off-by-one would pick
// a neighbouring sample and (for spread-out samples) land outside this
// window.
TEST(Histogram, NearestRankMatchesSortedOracle) {
  Rng rng(42);
  Histogram h;
  std::vector<Nanos> samples;
  for (int i = 0; i < 500; ++i) {
    const Nanos v = static_cast<Nanos>(rng.NextBelow(Millis(200))) + 1;
    samples.push_back(v);
    h.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(q * static_cast<double>(n))));
    const Nanos oracle = samples[std::min(n, rank) - 1];
    const Nanos got = h.Percentile(q);
    EXPECT_GE(got, oracle) << "q=" << q;
    EXPECT_LE(got, oracle + oracle / 32 + 1) << "q=" << q;
  }
}

// Values below 32 ns are bucketed exactly, so every rank must round-trip
// bit-exact — including q=0, which the old code reported as 0 instead of
// the min (ceil(0*n) hit the empty rank-0 prefix).
TEST(Histogram, SmallValueRanksAreExact) {
  Histogram h;
  std::vector<Nanos> samples;
  for (Nanos v = 1; v <= 20; ++v) {
    samples.push_back(v);
    h.Record(v);
  }
  for (double q : {0.0, 0.05, 0.5, 0.95, 1.0}) {
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(q * 20.0)));
    EXPECT_EQ(h.Percentile(q), samples[rank - 1]) << "q=" << q;
  }
}

// Values exactly on a power-of-two bucket boundary: the bucket's upper
// bound overshoots the boundary value, so low quantiles must clamp back
// to the observed min (64 here, not 65).
TEST(Histogram, BucketBoundaryValuesClampToObservedRange) {
  Histogram h;
  h.Record(64);
  h.Record(Millis(200));
  EXPECT_EQ(h.Percentile(0.0), 64);
  EXPECT_EQ(h.Percentile(0.5), 64);  // rank 1 of 2 == min, exactly
  EXPECT_EQ(h.Percentile(1.0), Millis(200));
  Histogram one;
  one.Record(4096);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(one.Percentile(q), 4096) << "q=" << q;
  }
}

// A full disk fails at fclose, after a buffered fwrite has succeeded:
// WriteFile must report it. A normal file round-trips its bytes.
TEST(WriteFile, ReportsFullDiskAndRoundTrips) {
  EXPECT_FALSE(WriteFile("/dev/full", "x"));
  EXPECT_FALSE(WriteFile("/nonexistent-dir/f.txt", "x"));
  const std::string path =
      ::testing::TempDir() + "/repro_util_test_write_file.txt";
  const std::string content = std::string("a,b\n1,2\n") + '\0' + "tail";
  ASSERT_TRUE(WriteFile(path, content));
  std::ifstream in(path, std::ios::binary);
  const std::string back((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(back, content);
  std::remove(path.c_str());
}

TEST(Codec, RoundTrip) {
  const auto fields = [](Encoder& e) {
    e.PutU8(7);
    e.PutU32(123456);
    e.PutU64(0xDEADBEEFCAFEull);
    e.PutI64(-42);
    e.PutString("hello");
    e.PutBool(true);
  };
  // A counting pass sizes the buffer; a second pass fills it.
  Encoder count;
  fields(count);
  EXPECT_EQ(count.size(), 1u + 4 + 8 + 8 + (4 + 5) + 1);
  std::string buf(count.size(), '\0');
  Encoder out(buf.data(), buf.size());
  fields(out);
  EXPECT_EQ(out.size(), buf.size());
  Decoder d(buf);
  EXPECT_EQ(d.GetU8(), 7);
  EXPECT_EQ(d.GetU32(), 123456u);
  EXPECT_EQ(d.GetU64(), 0xDEADBEEFCAFEull);
  EXPECT_EQ(d.GetI64(), -42);
  EXPECT_EQ(d.GetString(), "hello");
  EXPECT_TRUE(d.GetBool());
  EXPECT_TRUE(d.ok());
  EXPECT_TRUE(d.done());
}

TEST(Codec, WritingPastTheBufferAborts) {
  char buf[6];
  Encoder out(buf, sizeof buf);
  out.PutU32(1);  // fits: 4 of 6 bytes
  EXPECT_DEATH(out.PutU32(2), "overruns the 6-byte buffer");
}

TEST(Codec, TruncatedInputSetsError) {
  Decoder d("ab");
  d.GetU64();
  EXPECT_FALSE(d.ok());
}

TEST(Strings, SplitAndJoinPath) {
  auto parts = SplitPath("/a/b/c");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(JoinPath(parts), "/a/b/c");
  EXPECT_TRUE(SplitPath("/").empty());
  EXPECT_EQ(JoinPath({}), "/");
  auto messy = SplitPath("//x///y/");
  ASSERT_EQ(messy.size(), 2u);
  EXPECT_EQ(messy[1], "y");
}

TEST(Strings, SplitParent) {
  auto [parent, base] = SplitParent("/a/b/c");
  EXPECT_EQ(parent, "/a/b");
  EXPECT_EQ(base, "c");
  auto [rp, rb] = SplitParent("/top");
  EXPECT_EQ(rp, "/");
  EXPECT_EQ(rb, "top");
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
}

}  // namespace
}  // namespace repro
