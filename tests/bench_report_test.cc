// bench::Report: the episode benches' one check reporter, JSON layout and
// baseline reader (bench/bench_report.h).
#include "bench_report.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace repro::bench {
namespace {

// A strict check that `s` is one JSON value (strtod stands in for the
// number grammar).
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}
  bool Valid() {
    const bool ok = Value();
    Space();
    return ok && i_ == s_.size();
  }

 private:
  void Space() {
    while (i_ < s_.size() && std::strchr(" \t\r\n", s_[i_]) != nullptr) ++i_;
  }
  bool Lit(const std::string& word) {
    Space();
    if (s_.compare(i_, word.size(), word) != 0) return false;
    i_ += word.size();
    return true;
  }
  bool String() {
    if (!Lit("\"")) return false;
    for (; i_ < s_.size() && s_[i_] != '"'; ++i_) {
      if (static_cast<unsigned char>(s_[i_]) < 0x20) return false;
      if (s_[i_] != '\\') continue;
      if (++i_ >= s_.size() || std::strchr("\"\\/bfnrtu", s_[i_]) == nullptr) {
        return false;
      }
      if (s_[i_] == 'u') i_ += 4;
    }
    return i_++ < s_.size();
  }
  bool Value() {
    Space();
    if (i_ >= s_.size()) return false;
    if (s_[i_] == '"') return String();
    if (s_[i_] == '{' || s_[i_] == '[') {
      const bool object = s_[i_++] == '{';
      const std::string close = object ? "}" : "]";
      if (Lit(close)) return true;
      do {
        if (object && !(String() && Lit(":"))) return false;
        if (!Value()) return false;
      } while (Lit(","));
      return Lit(close);
    }
    if (Lit("true") || Lit("false") || Lit("null")) return true;
    char* end = nullptr;
    std::strtod(s_.c_str() + i_, &end);
    if (end == s_.c_str() + i_) return false;
    i_ = static_cast<size_t>(end - s_.c_str());
    return true;
  }

  const std::string& s_;
  size_t i_ = 0;
};

// Points REPRO_CSV_DIR at a fresh directory and clears the other
// bench-contract variables; each test sets what it reads.
class BenchReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = ::testing::TempDir() + "bench_report_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
    setenv("REPRO_CSV_DIR", dir_.c_str(), 1);
    unsetenv("REPRO_BENCH_BASELINE");
    unsetenv("REPRO_SEEDS");
    unsetenv("REPRO_FULL");
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string JsonPath(const std::string& name) const {
    return dir_ + "/BENCH_" + name + ".json";
  }

  std::string ReadFile(const std::string& path) const {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  // Writes `name`'s JSON with the given values, then points
  // REPRO_BENCH_BASELINE at it.
  void WriteBaseline(const std::string& name,
                     const std::vector<std::pair<std::string, double>>& kv) {
    Report r(name);
    for (const auto& [k, v] : kv) r.Value(k, v);
    ASSERT_EQ(r.Finish(), 0);
    setenv("REPRO_BENCH_BASELINE", JsonPath(name).c_str(), 1);
  }

  std::string dir_;
};

TEST_F(BenchReportTest, EveryValueReadsBackBitExact) {
  const std::vector<std::pair<std::string, double>> values = {
      {"zones.ndb.tc.keyop.allocs_per_call", 0.1},
      {"loss_window.acked_commits", 200},
      {"a.third", 1.0 / 3.0},
      {"a.negative", -2.5e-7},
      {"a.huge", 1.7976931348623157e308},
      {"a.tiny", std::numeric_limits<double>::denorm_min()},
      {"a.eps", 6168439.123456789},
      {"a.zero", 0},
  };
  WriteBaseline("roundtrip", values);
  Report reader("reader");
  for (const auto& [key, value] : values) {
    const std::optional<double> got = reader.Baseline(key);
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(std::memcmp(&*got, &value, sizeof(double)), 0)
        << key << ": wrote " << value << ", read " << *got;
  }
}

TEST_F(BenchReportTest, KeyMissingFromTheBaselineReadsAsAbsent) {
  WriteBaseline("missing", {{"present", 1}});
  Report reader("reader");
  EXPECT_TRUE(reader.Baseline("present").has_value());
  EXPECT_FALSE(reader.Baseline("absent").has_value());
  EXPECT_FALSE(reader.Baseline("presen").has_value());
  EXPECT_EQ(reader.Finish(), 0);  // a readable baseline fails no check
}

TEST_F(BenchReportTest, NoBaselineReadsAsAbsent) {
  Report reader("reader");
  EXPECT_FALSE(reader.has_baseline());
  EXPECT_FALSE(reader.Baseline("anything").has_value());
  EXPECT_EQ(reader.Finish(), 0);
}

TEST_F(BenchReportTest, UnreadableBaselineFailsACheck) {
  const std::string garbled = dir_ + "/garbled.json";
  std::ofstream(garbled) << "{\n  \"values\": {\n    \"x\": 1 2\n  }\n}\n";
  for (const std::string& path : {dir_ + "/no_such.json", garbled}) {
    setenv("REPRO_BENCH_BASELINE", path.c_str(), 1);
    Report reader("reader");
    EXPECT_TRUE(reader.has_baseline());
    EXPECT_FALSE(reader.Baseline("y").has_value()) << path;
    EXPECT_EQ(reader.Finish(), 1) << path;
  }
}

TEST_F(BenchReportTest, FailedCheckMakesFinishReturnOneAndRecordsFalse) {
  Report r("failing");
  EXPECT_TRUE(r.Check(true, "holds"));
  EXPECT_FALSE(r.Check(false, "breaks"));
  EXPECT_TRUE(r.Check(true, "breaks"));  // a later pass does not clear it
  EXPECT_EQ(r.Finish(), 1);
  const std::string json = ReadFile(JsonPath("failing"));
  EXPECT_NE(json.find("\"holds\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"breaks\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bench\": \"failing\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"scale\": \"quick\""), std::string::npos) << json;

  Report ok("passing");
  ok.Check(true, "holds");
  EXPECT_EQ(ok.Finish(), 0);
}

TEST_F(BenchReportTest, QuotedAndBackslashedCheckNamesStillParse) {
  Report r("escapes");
  r.Check(true, "a \"quoted\" name");
  r.Check(true, "a back\\slash\\");
  r.Check(true, "\"values\": {\"evil\": 1}");
  r.Check(true, "tab\there");
  r.Check(true, "two\n  }\nlines");
  r.Value("after.checks", 42);
  ASSERT_EQ(r.Finish(), 0);
  const std::string json = ReadFile(JsonPath("escapes"));
  EXPECT_NE(json.find("\"a \\\"quoted\\\" name\": true"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"a back\\\\slash\\\\\": true"), std::string::npos)
      << json;
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_FALSE(JsonValidator("{\"a\"b\": true}").Valid());
  EXPECT_FALSE(JsonValidator("{\"a\\\": true}").Valid());

  // Check text that looks like a value is not read as one.
  setenv("REPRO_BENCH_BASELINE", JsonPath("escapes").c_str(), 1);
  Report reader("reader");
  EXPECT_EQ(reader.Baseline("after.checks"), 42);
  EXPECT_FALSE(reader.Baseline("evil").has_value());
  EXPECT_EQ(reader.Finish(), 0);
}

TEST_F(BenchReportTest, PinnedPrefixComparison) {
  WriteBaseline("pinned", {{"loss_window.acked_commits", 200},
                           {"loss_window.loss_window_ms", 90.571},
                           {"restart_soak.seeds", 12}});
  {
    Report same("same");
    same.Value("loss_window.acked_commits", 200);
    same.Value("loss_window.loss_window_ms", 90.571);
    same.Value("restart_soak.seeds", 8);  // outside the prefix
    EXPECT_TRUE(same.MatchesBaseline("loss_window."));
    EXPECT_FALSE(same.MatchesBaseline("restart_soak."));
  }
  {
    Report moved("moved");
    moved.Value("loss_window.acked_commits", 200);
    moved.Value("loss_window.loss_window_ms", std::nextafter(90.571, 100.0));
    EXPECT_FALSE(moved.MatchesBaseline("loss_window."));
  }
  {
    Report missing("missing");
    missing.Value("loss_window.acked_commits", 200);
    EXPECT_FALSE(missing.MatchesBaseline("loss_window."));
  }
  {
    Report extra("extra");
    extra.Value("loss_window.acked_commits", 200);
    extra.Value("loss_window.loss_window_ms", 90.571);
    extra.Value("loss_window.bound_ms", 1600);
    EXPECT_FALSE(extra.MatchesBaseline("loss_window."));
  }
}

TEST_F(BenchReportTest, SeedCountDefaultsAndOverride) {
  EXPECT_EQ(SeedCount(12), 12);
  setenv("REPRO_FULL", "1", 1);
  EXPECT_EQ(SeedCount(12), 40);
  setenv("REPRO_SEEDS", "8", 1);
  EXPECT_EQ(SeedCount(12), 8);
  unsetenv("REPRO_FULL");
  EXPECT_EQ(SeedCount(12), 8);
}

TEST_F(BenchReportTest, MalformedSeedCountExitsTwo) {
  for (const char* bad : {"8x", "abc", "0", "-3", "", " 8", "99999999999"}) {
    setenv("REPRO_SEEDS", bad, 1);
    EXPECT_EXIT(SeedCount(12), ::testing::ExitedWithCode(2), "REPRO_SEEDS")
        << "REPRO_SEEDS='" << bad << "'";
  }
}

TEST_F(BenchReportTest, AnyArgumentExitsTwoWithUsage) {
  char name[] = "bench_x";
  char quick[] = "--quick";
  char* none[] = {name, nullptr};
  char* stale[] = {name, quick, nullptr};
  RejectArguments(1, none);  // returns
  EXPECT_EXIT(RejectArguments(2, stale), ::testing::ExitedWithCode(2),
              "usage: bench_x");
}

}  // namespace
}  // namespace repro::bench
