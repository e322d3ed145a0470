// Unit tests for util: status, rng, histogram, file writer, codec, strings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "util/codec.h"
#include "util/file.h"
#include "util/histogram.h"
#include "util/indexed_map.h"
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

// ---- IndexedMap, driven the way the namenode's hint cache drives it ----

struct Hint {
  uint64_t id = 0;
  uint64_t parent = 0;
  bool operator==(const Hint&) const = default;
};
// The namenode's hint cache fills its index to 3/4 (Namenode::PathCache);
// RowStore's tables use the default limit of 1/2.
using HintMap = util::IndexedMap<Hint, 3>;
using HalfFullMap = util::IndexedMap<Hint>;

// Paths up to three components deep, keys that sort right beside a
// subtree's range ('.' < '/' < '0'), and keys whose home slot is the
// index's last one for every capacity up to 256, so that their probe
// chains wrap around to slot 0.
std::vector<std::string> HintKeys() {
  std::vector<std::string> keys;
  const char* names[] = {"a", "b", "ab", "c"};
  for (const char* x : names) {
    const std::string px = std::string("/") + x;
    keys.push_back(px);
    keys.push_back(px + ".z");
    keys.push_back(px + "0");
    for (const char* y : names) {
      const std::string py = px + "/" + y;
      keys.push_back(py);
      for (const char* z : names) keys.push_back(py + "/" + z);
    }
  }
  for (int i = 0, tails = 0; tails < 12; ++i) {
    std::string k = "/t" + std::to_string(i);
    if ((HintMap::Hash(k) & 255) == 255) {
      keys.push_back(std::move(k));
      ++tails;
    }
  }
  return keys;
}

// Every key is found exactly when the model holds it, with its value,
// and the map holds what the model holds, in the same order.
template <typename Map, int kMaxLoadQuarters>
void ExpectSameAs(const Map& m, const std::map<std::string, Hint>& model,
                  const std::vector<std::string>& keys, int step) {
  ASSERT_EQ(m.size(), model.size()) << "step " << step;
  ASSERT_TRUE(std::equal(m.map().begin(), m.map().end(), model.begin(),
                         model.end()))
      << "step " << step;
  ASSERT_LE(4 * m.size(), kMaxLoadQuarters * m.capacity())
      << "step " << step;
  ASSERT_LE(m.capacity(), 256u) << "step " << step;
  ASSERT_EQ(m.capacity() & (m.capacity() - 1), 0u) << "step " << step;
  for (const std::string& k : keys) {
    const auto* e = m.Find(k, Map::Hash(k));
    const auto it = model.find(k);
    ASSERT_EQ(e != nullptr, it != model.end()) << k << " at step " << step;
    if (e != nullptr) {
      ASSERT_EQ(e->first, k);
      ASSERT_EQ(e->second, it->second) << k << " at step " << step;
    }
  }
}

template <typename Map, int kMaxLoadQuarters>
void RunHintCacheModel(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", load limit " +
               std::to_string(kMaxLoadQuarters) + "/4");
  const std::vector<std::string> keys = HintKeys();
  Rng rng(seed);
  Map m;
  std::map<std::string, Hint> model;
  for (int step = 0; step < 3000; ++step) {
    const std::string& key = keys[rng.NextBelow(keys.size())];
    const uint64_t op = rng.NextBelow(100);
    if (op < 50) {
      // Priming or a walk's insert; overwrites when the key is there.
      const Hint h{rng.NextBelow(1000) + 1, rng.NextBelow(1000)};
      if (op % 2 == 0) {
        m.FindOrInsert(key, Map::Hash(key)).second = h;
      } else {
        m.FindOrInsert(key).second = h;
      }
      model[key] = h;
    } else if (op < 65) {
      // One hint dropped by key.
      const uint32_t hash = Map::Hash(key);
      if (const auto* e = m.Find(key, hash)) m.Erase(*e, hash);
      model.erase(key);
    } else if (op < 95) {
      // A rename of `key`: its subtree [key + "/", key + "0") goes as one
      // range, then its own hint.
      const std::string lo = key + "/", hi = key + "0";
      m.EraseRange(m.map().lower_bound(lo), m.map().lower_bound(hi));
      model.erase(model.lower_bound(lo), model.lower_bound(hi));
      const uint32_t hash = Map::Hash(key);
      if (const auto* e = m.Find(key, hash)) m.Erase(*e, hash);
      model.erase(key);
    } else if (op < 97) {
      // A retry's flush.
      m.Clear();
      model.clear();
    } else {
      // At most 256 slots, so the tail keys still home to the last one.
      m.Reserve(rng.NextBelow(keys.size()));
    }
    ExpectSameAs<Map, kMaxLoadQuarters>(m, model, keys, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IndexedMap, MatchesAnOrderedMapUnderHintCacheOps) {
  for (uint64_t seed : {1u, 2u, 3u, 42u, 7919u}) {
    RunHintCacheModel<HintMap, 3>(seed);
    if (HasFatalFailure()) return;
    RunHintCacheModel<HalfFullMap, 2>(seed);
    if (HasFatalFailure()) return;
  }
}

TEST(IndexedMap, TailKeysWrapAroundTheIndex) {
  // Every tail key of HintKeys homes to the last slot, so with all of
  // them in, the chain runs through slot 0 and erasing from its middle
  // must shift the wrapped members back across the end.
  std::vector<std::string> tails;
  for (const std::string& k : HintKeys()) {
    if (k.rfind("/t", 0) == 0) tails.push_back(k);
  }
  ASSERT_EQ(tails.size(), 12u);
  HintMap m;
  for (size_t i = 0; i < tails.size(); ++i) {
    m.FindOrInsert(tails[i]).second = Hint{i + 1, 0};
  }
  ASSERT_LE(m.capacity(), 256u);
  for (size_t i = 0; i < tails.size(); i += 2) {
    const uint32_t hash = HintMap::Hash(tails[i]);
    m.Erase(*m.Find(tails[i], hash), hash);
  }
  for (size_t i = 0; i < tails.size(); ++i) {
    const auto* e = m.Find(tails[i]);
    ASSERT_EQ(e != nullptr, i % 2 == 1) << tails[i];
    if (e != nullptr) {
      EXPECT_EQ(e->second.id, i + 1);
    }
  }
}

TEST(IndexedMap, ReserveSizesTheIndexOnce) {
  HintMap m;
  m.Reserve(1000);
  const size_t capacity = m.capacity();
  EXPECT_EQ(capacity, 2048u);
  // Filled to 3/4 at most: 2048 slots hold 1536 entries, and the 1537th
  // doubles the index.
  for (int i = 0; i < 1536; ++i) m.FindOrInsert("/d" + std::to_string(i));
  EXPECT_EQ(m.capacity(), capacity);
  m.FindOrInsert("/d1536");
  m.Clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.capacity(), 2 * capacity);
  EXPECT_EQ(m.Find("/d1"), nullptr);
}

}  // namespace
}  // namespace repro
