// Metric registry: counters, gauges and histograms in a hierarchical
// dotted namespace with label support.
//
// Components (client, namenode, NDB nodes, block datanodes) register
// metrics by dotted `layer.component.event` name — optionally qualified
// by labels, e.g. `ndb.tc.commits{az=1,node=3}` — and benches print one
// sorted report at the end of a run while the telemetry scraper
// (src/telemetry/) snapshots the whole registry periodically. Metric
// pointers are stable for the life of the registry so hot paths pay one
// hash lookup at setup, not per event.
//
// Besides hot-path-updated metrics the registry accepts *callback*
// metrics: a function polled only when Collect() runs (i.e. at scrape
// time), so existing component statistics (queue backlogs, ops served,
// protocol counters) become scrapable series with zero hot-path cost and
// zero extra simulation events.
//
// The registry is optional everywhere: components take a nullable
// `metrics::Registry*` through their config structs and skip accounting
// when absent, so unit tests and existing call sites are untouched.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace repro::metrics {

class Counter {
 public:
  void Add(int64_t n = 1) { value_ += n; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// A value that can go up and down (queue depth, in-flight ops, up/down).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

// Cumulative-bucket histogram (Prometheus-style): Observe() increments
// every bucket whose upper bound is >= the value, plus count and sum.
class HistogramMetric {
 public:
  // `bounds` are the finite bucket upper bounds, ascending; an implicit
  // +Inf bucket (== count()) completes the histogram.
  explicit HistogramMetric(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  // Cumulative count per finite bound (bucket_counts()[i] = observations
  // with value <= bounds()[i]).
  const std::vector<int64_t>& bucket_counts() const { return counts_; }
  int64_t count() const { return count_; }
  double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
  double sum_ = 0;
};

// A small ordered label set. Encoded canonically (sorted by key) as
// "{k1=v1,k2=v2}" and appended to the metric name, so the same labels
// always address the same metric instance.
struct Labels {
  std::vector<std::pair<std::string, std::string>> kv;

  Labels() = default;
  Labels(std::initializer_list<std::pair<std::string, std::string>> init);

  bool empty() const { return kv.empty(); }
  // Canonical "{k=v,...}" encoding ("" when empty).
  std::string Encode() const;
};

// Full metric identifier: dotted name + canonical label suffix.
std::string FullName(const std::string& name, const Labels& labels);

enum class MetricKind { kCounter, kGauge, kHistogram };

class Registry {
 public:
  // Returns the metric registered under `name` (+ labels), creating it on
  // first use. Returned pointers stay valid for the registry's lifetime.
  Counter* GetCounter(const std::string& name);
  Counter* GetCounter(const std::string& name, const Labels& labels);
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  HistogramMetric* GetHistogram(const std::string& name,
                                std::vector<double> bounds,
                                const Labels& labels = {});

  // Registers a metric whose value is computed by `fn` only when
  // Collect() runs — the hook that turns existing component statistics
  // into scrapable series with zero hot-path cost. `kind` must be
  // kCounter (monotone, e.g. ops served) or kGauge (instantaneous, e.g.
  // queue backlog). Re-registering the same full name replaces the
  // callback (a restarted component re-binds its stats).
  void RegisterCallback(const std::string& name, const Labels& labels,
                        MetricKind kind, std::function<double()> fn);

  // One scraped value. Histograms are flattened to two samples,
  // `<name>.count` and `<name>.sum` (full bucket vectors are exported via
  // CollectHistograms / the Prometheus exporter).
  struct Sample {
    std::string name;  // full name including label suffix
    MetricKind kind;
    double value;
  };
  // Deterministic (name-sorted) snapshot of every metric, callbacks
  // included. Read-only: safe to call from scrape ticks. Allocates a
  // fresh vector per call — periodic scrapers should use CollectInto.
  std::vector<Sample> Collect() const;

  // Snapshot into a caller-owned buffer, reusing its Sample slots (and
  // their string capacity) across calls. Samples are emitted in a
  // deterministic section order — counters, gauges, histogram
  // .count/.sum pairs, callbacks, each section name-sorted (std::map
  // order) — which is stable across scrapes, so once the metric set
  // stops growing every slot re-receives the same name and the
  // steady-state scrape performs ZERO heap allocations (asserted by
  // prof_test with the allocation counters). Not globally name-sorted;
  // use Collect() when sorted output matters.
  void CollectInto(std::vector<Sample>* out) const;

  struct HistogramSample {
    std::string name;
    const HistogramMetric* histogram;
  };
  std::vector<HistogramSample> CollectHistograms() const;

  // (name, value) pairs of plain counters sorted by name; zero-valued
  // counters included so reports have a stable shape across runs.
  std::vector<std::pair<std::string, int64_t>> Snapshot() const;

  // Multi-line "  name = value" counter report for bench stdout. Only
  // counters matching `prefix` (empty = all). Matching is per whole path
  // segment: "ndb.tc" matches "ndb.tc.commits" but not "ndb.tcp_retrans".
  std::string Report(const std::string& prefix = "") const;

 private:
  struct CallbackMetric {
    MetricKind kind;
    std::function<double()> fn;
  };

  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
  std::map<std::string, CallbackMetric> callbacks_;
};

// True when `name` ("a.b.c" or "a.b.c{k=v}") falls under dotted `prefix`
// on whole-segment boundaries. Empty prefix matches everything.
bool MatchesSegmentPrefix(const std::string& name, const std::string& prefix);

// Null-safe helpers so call sites do not need to branch on registry
// presence.
inline void Bump(Counter* c, int64_t n = 1) {
  if (c != nullptr) c->Add(n);
}
inline Counter* GetCounter(Registry* r, const std::string& name) {
  return r != nullptr ? r->GetCounter(name) : nullptr;
}
inline Counter* GetCounter(Registry* r, const std::string& name,
                           const Labels& labels) {
  return r != nullptr ? r->GetCounter(name, labels) : nullptr;
}

}  // namespace repro::metrics
