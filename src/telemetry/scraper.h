// Deterministic sim-time metrics scraper.
//
// The scraper snapshots a metrics::Registry — hot-path counters plus the
// callback metrics components register for their internal statistics —
// into per-metric ring-buffer time series. It is *passive*: ScrapeOnce()
// is driven by the Telemetry bundle's periodic tick (one Simulation::Every
// subscription for the whole cluster), reads registry state, draws no RNG
// and sends no messages, so a run executes byte-identically with scraping
// on or off (asserted by telemetry_test / the chaos harness).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "metrics/counters.h"
#include "util/time.h"

namespace repro::telemetry {

// Fixed-capacity ring of (sim time, value) points; Push evicts the
// oldest point once full. Indexing is oldest -> newest.
class RingSeries {
 public:
  struct Point {
    Nanos t = 0;
    double v = 0;
  };

  explicit RingSeries(size_t capacity = 512)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void Push(Nanos t, double v);

  bool empty() const { return points_.empty(); }
  size_t size() const { return points_.size(); }
  size_t capacity() const { return capacity_; }

  // i == 0 is the oldest retained point.
  const Point& at(size_t i) const { return points_[(head_ + i) % points_.size()]; }
  const Point& latest() const { return at(size() - 1); }

  // Newest point with timestamp <= t (nullopt when every retained point
  // is newer than t, or the series is empty).
  std::optional<Point> AtOrBefore(Nanos t) const;

 private:
  size_t capacity_;
  size_t head_ = 0;  // index of oldest point once the ring wraps
  std::vector<Point> points_;
};

struct ScraperOptions {
  // Scrape period in sim time (the Telemetry tick interval).
  Nanos period = 100 * kMillisecond;
  // Points retained per series.
  size_t ring_capacity = 512;
};

class Scraper {
 public:
  struct Series {
    metrics::MetricKind kind = metrics::MetricKind::kGauge;
    RingSeries ring;
  };

  explicit Scraper(metrics::Registry* registry, ScraperOptions options = {})
      : registry_(registry), options_(options) {}

  // Snapshots every registry metric (Collect(): counters, gauges,
  // callbacks, flattened histograms) at sim time `now`. Read-only with
  // respect to the simulation.
  void ScrapeOnce(Nanos now);

  // Records an externally computed sample (health rollups, SLO alert
  // counts) so derived signals live in the same archive as raw metrics.
  void Inject(const std::string& full_name, metrics::MetricKind kind,
              Nanos now, double value);

  const RingSeries* Find(const std::string& full_name) const;
  metrics::MetricKind KindOf(const std::string& full_name) const;

  // Sorted by full name (std::map order) — deterministic for exporters.
  const std::map<std::string, Series>& series() const { return series_; }

  int64_t scrape_count() const { return scrape_count_; }
  Nanos last_scrape_at() const { return last_scrape_at_; }
  const ScraperOptions& options() const { return options_; }
  metrics::Registry* registry() const { return registry_; }

 private:
  metrics::Registry* registry_;
  ScraperOptions options_;
  // Per-scrape sample buffer, reused so steady-state scrapes are
  // allocation-free (see Registry::CollectInto).
  std::vector<metrics::Registry::Sample> scratch_;
  std::map<std::string, Series> series_;
  int64_t scrape_count_ = 0;
  Nanos last_scrape_at_ = -1;
};

// Splits a full metric name "base{k=v,...}" into its base name and label
// map (empty map when unlabelled). Shared by the health model and the
// exporters.
struct ParsedName {
  std::string base;
  std::vector<std::pair<std::string, std::string>> labels;

  std::string LabelOr(const std::string& key, const std::string& fallback
                      = "") const;
};
ParsedName ParseSeriesName(const std::string& full_name);

}  // namespace repro::telemetry
