#include "bench_report.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "metrics/timeseries.h"
#include "util/file.h"

namespace repro::bench {
namespace {

const char kValuesLine[] = "  \"values\": {";

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += {'\\', c};
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// The shortest %g form that reads back as the same double, so two
// numbers print alike exactly when they are equal.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

// Reads the lines Finish writes between kValuesLine and the closing
// brace, one `"key": number` each. Check names sit on deeper-indented
// lines before kValuesLine, so no check text is read as a value.
bool ReadValues(const char* path, std::map<std::string, double>* out) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line) && line != kValuesLine) {
  }
  while (std::getline(in, line) && line != "  }") {
    const size_t colon = line.find("\": ");
    if (line.compare(0, 5, "    \"") != 0 || colon == std::string::npos) {
      return false;
    }
    const std::string number = line.substr(colon + 3);
    if (number.compare(0, 4, "null") == 0) continue;
    char* end = nullptr;
    const double v = std::strtod(number.c_str(), &end);
    if (end == number.c_str() || (*end != '\0' && *end != ',')) return false;
    (*out)[line.substr(5, colon - 5)] = v;
  }
  return line == "  }";
}

const char* BaselinePath() {
  const char* path = std::getenv("REPRO_BENCH_BASELINE");
  return path != nullptr && path[0] != '\0' ? path : nullptr;
}

}  // namespace

bool FullScale() {
  const char* env = std::getenv("REPRO_FULL");
  return env != nullptr && env[0] == '1';
}

double PeakRssMb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double CpuSeconds() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

int SeedCount(int quick_default) {
  const char* env = std::getenv("REPRO_SEEDS");
  if (env == nullptr) return FullScale() ? 40 : quick_default;
  const size_t len = std::strlen(env);
  if (len == 0 || len > 6 || std::strspn(env, "0123456789") != len ||
      std::atoi(env) < 1) {
    std::fprintf(stderr, "REPRO_SEEDS must be 1..999999, got '%s'\n", env);
    std::exit(2);
  }
  return std::atoi(env);
}

void RejectArguments(int argc, char** argv) {
  if (argc <= 1) return;
  std::fprintf(stderr, "usage: %s (no arguments; set REPRO_FULL=1, "
               "REPRO_SEEDS, REPRO_BENCH_BASELINE, REPRO_CSV_DIR)\n", argv[0]);
  std::exit(2);
}

bool Report::Check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "pass" : "FAIL", what.c_str());
  const auto [it, inserted] = checks_.emplace(what, ok);
  it->second = it->second && ok;
  return ok;
}

bool Report::has_baseline() const { return BaselinePath() != nullptr; }

const std::map<std::string, double>& Report::BaselineValues() {
  if (!baseline_.has_value()) {
    baseline_.emplace();
    if (const char* path = BaselinePath()) {
      Check(ReadValues(path, &*baseline_),
            std::string("baseline ") + path + " is readable");
    }
  }
  return *baseline_;
}

std::optional<double> Report::Baseline(const std::string& key) {
  const auto& base = BaselineValues();
  const auto it = base.find(key);
  if (it == base.end()) return std::nullopt;
  return it->second;
}

bool Report::MatchesBaseline(const std::string& prefix) {
  // Shortest round-trip texts are equal exactly when the doubles are.
  auto section = [&prefix](const std::map<std::string, double>& all) {
    std::map<std::string, std::string> out;
    for (auto it = all.lower_bound(prefix);
         it != all.end() && it->first.starts_with(prefix); ++it) {
      out[it->first] = JsonNumber(it->second);
    }
    return out;
  };
  const auto now = section(values_), base = section(BaselineValues());
  for (const auto& [key, text] : now) {
    if (!base.contains(key) || base.at(key) != text) {
      std::printf("  %s: now %s\n", key.c_str(), text.c_str());
    }
  }
  for (const auto& [key, text] : base) {
    if (!now.contains(key) || now.at(key) != text) {
      std::printf("  %s: baseline %s\n", key.c_str(), text.c_str());
    }
  }
  return now == base;
}

int Report::Finish() {
  const std::string path = metrics::CsvDir() + "/BENCH_" + name_ + ".json";
  std::string json = "{\n  \"bench\": " + JsonString(name_) +
                     ",\n  \"scale\": \"" + (FullScale() ? "full" : "quick") +
                     "\",\n  \"checks\": {";
  size_t passed = 0;
  for (const auto& [what, ok] : checks_) {
    json += (json.back() == '{' ? "\n    " : ",\n    ") + JsonString(what) +
            (ok ? ": true" : ": false");
    passed += ok ? 1 : 0;
  }
  json += std::string("\n  },\n") + kValuesLine;
  for (const auto& [key, value] : values_) {
    json += (json.back() == '{' ? "\n    " : ",\n    ") + JsonString(key) +
            ": " + JsonNumber(value);
  }
  json += "\n  }\n}\n";

  const bool written = WriteFile(path, json);
  const bool ok = written && passed == checks_.size();
  std::printf("\nRESULT: %zu of %zu checks passed%s -> %s%s\n", passed,
              checks_.size(), ok ? "" : ", FAILED",
              written ? "" : "cannot write ", path.c_str());
  return ok ? 0 : 1;
}

}  // namespace repro::bench
