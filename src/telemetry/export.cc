#include "telemetry/export.h"

#include <cmath>
#include <cstdio>
#include <set>

#include "util/strings.h"

namespace repro::telemetry {
namespace {

// "hopsfs.client.retries" -> "hopsfs_client_retries" (Prometheus metric
// names cannot contain dots).
std::string PromName(const std::string& dotted) {
  std::string out = dotted;
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

// Canonical "{k=v,...}" label suffix -> Prometheus '{k="v",...}'.
std::string PromLabels(const ParsedName& parsed,
                       const std::string& extra_key = "",
                       const std::string& extra_value = "") {
  if (parsed.labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : parsed.labels) {
    if (!first) out += ',';
    out += k + "=\"" + v + "\"";
    first = false;
  }
  if (!extra_key.empty()) {
    if (!first) out += ',';
    out += extra_key + "=\"" + extra_value + "\"";
  }
  out += '}';
  return out;
}

std::string FormatValue(double v) {
  if (std::isnan(v)) return "NaN";
  char buf[64];
  if (v == static_cast<int64_t>(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

// Non-negative integer nanoseconds as exact decimal seconds
// (31 -> "0.000000031", 1500000000 -> "1.5").
std::string ExactSeconds(Nanos ns) {
  std::string out =
      StrFormat("%lld.%09lld", static_cast<long long>(ns / kSecond),
                static_cast<long long>(ns % kSecond));
  while (out.back() == '0') out.pop_back();
  if (out.back() == '.') out.pop_back();
  return out;
}

void AppendTypeLine(std::string& out, std::set<std::string>& typed,
                    const std::string& prom_name, const char* type) {
  if (!typed.insert(prom_name).second) return;
  out += "# TYPE " + prom_name + " " + type + "\n";
}

}  // namespace

std::string PrometheusText(const metrics::Registry& registry) {
  std::string out;
  std::set<std::string> typed;

  // Histograms expand to _bucket/_sum/_count; the flattened .count/.sum
  // samples Collect() emits for them are skipped to avoid double export.
  const auto histograms = registry.CollectHistograms();
  std::set<std::string> flattened;
  for (const auto& h : histograms) {
    flattened.insert(h.name + ".count");
    flattened.insert(h.name + ".sum");
  }

  for (const auto& sample : registry.Collect()) {
    if (flattened.count(sample.name) != 0) continue;
    const ParsedName parsed = ParseSeriesName(sample.name);
    const std::string prom = PromName(parsed.base);
    AppendTypeLine(out, typed, prom,
                   sample.kind == metrics::MetricKind::kCounter ? "counter"
                                                                : "gauge");
    out += prom + PromLabels(parsed) + " " + FormatValue(sample.value) + "\n";
  }

  for (const auto& h : histograms) {
    const ParsedName parsed = ParseSeriesName(h.name);
    const std::string prom = PromName(parsed.base);
    AppendTypeLine(out, typed, prom, "histogram");
    // One line per power-of-two edge of the log buckets' groups: the
    // cumulative count is exact there, and every scrape has the same set.
    for (int k = Histogram::kMinEdgeLog2; k <= Histogram::kMaxEdgeLog2; ++k) {
      const Nanos le = (Nanos{1} << k) - 1;
      out += prom + "_bucket" + PromLabels(parsed, "le", ExactSeconds(le)) +
             " " + std::to_string(h.histogram->CountAtMost(le)) + "\n";
    }
    const std::string count = std::to_string(h.histogram->count());
    out += prom + "_bucket" + PromLabels(parsed, "le", "+Inf") + " " + count +
           "\n";
    out += prom + "_sum" + PromLabels(parsed) + " " +
           ExactSeconds(h.histogram->sum()) + "\n";
    out += prom + "_count" + PromLabels(parsed) + " " + count + "\n";
  }
  return out;
}

std::string ScrapeArchiveJson(const Scraper& scraper) {
  std::string out = "{\n  \"scrapes\": " +
                    std::to_string(scraper.scrape_count()) +
                    ",\n  \"period_ns\": " +
                    std::to_string(scraper.options().period) +
                    ",\n  \"series\": [\n";
  bool first_series = true;
  for (const auto& [name, series] : scraper.series()) {
    if (!first_series) out += ",\n";
    first_series = false;
    out += "    {\"name\": \"" + name + "\", \"kind\": \"";
    out += series.kind == metrics::MetricKind::kCounter ? "counter" : "gauge";
    out += "\", \"points\": [";
    for (size_t i = 0; i < series.ring.size(); ++i) {
      const auto& p = series.ring.at(i);
      if (i > 0) out += ", ";
      char buf[64];
      std::snprintf(buf, sizeof(buf), "[%.6f, %s]", ToSeconds(p.t),
                    FormatValue(p.v).c_str());
      out += buf;
    }
    out += "]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string ScrapeCsv(const Scraper& scraper) {
  // Collect the union of scrape timestamps (rings can start late — a
  // series appears on the first tick after its metric is registered).
  std::set<Nanos> times;
  for (const auto& [name, series] : scraper.series()) {
    for (size_t i = 0; i < series.ring.size(); ++i) {
      times.insert(series.ring.at(i).t);
    }
  }

  // Labelled series names carry commas inside the braces
  // ("host.up{az=0,host=nn-0}"), so header cells are RFC 4180-quoted.
  std::string out = "time_s";
  for (const auto& [name, series] : scraper.series()) {
    out += name.find(',') != std::string::npos ? ",\"" + name + "\""
                                                : "," + name;
  }
  out += "\n";

  // Per-series cursor walk: rings are time-ordered, so one pass emits the
  // whole grid without per-cell searches.
  std::vector<std::pair<const RingSeries*, size_t>> cursors;
  cursors.reserve(scraper.series().size());
  for (const auto& [name, series] : scraper.series()) {
    cursors.emplace_back(&series.ring, 0);
  }
  for (const Nanos t : times) {
    out += StrFormat("%.6f", ToSeconds(t));
    for (auto& [ring, idx] : cursors) {
      out += ',';
      if (idx < ring->size() && ring->at(idx).t == t) {
        out += FormatValue(ring->at(idx).v);
        ++idx;
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace repro::telemetry
