#include "telemetry/scraper.h"

#include <algorithm>

namespace repro::telemetry {

void RingSeries::Push(Nanos t, double v) {
  if (points_.size() < capacity_) {
    points_.push_back({t, v});
    return;
  }
  points_[head_] = {t, v};
  head_ = (head_ + 1) % points_.size();
}

std::optional<RingSeries::Point> RingSeries::AtOrBefore(Nanos t) const {
  // Timestamps are pushed in nondecreasing order, so scan newest-first
  // for the first point at or before t. Rings are small (a few hundred
  // points) and this runs at evaluation time, not on hot paths.
  for (size_t i = size(); i-- > 0;) {
    const Point& p = at(i);
    if (p.t <= t) return p;
  }
  return std::nullopt;
}

void Scraper::ScrapeOnce(Nanos now) {
  if (registry_ == nullptr) return;
  // CollectInto reuses scratch_'s samples (and their string buffers)
  // across scrapes: once the metric set is stable and every ring is
  // warm, a scrape performs zero heap allocations (prof_test pins this
  // with the profiler's allocation counters).
  registry_->CollectInto(&scratch_);
  for (const auto& sample : scratch_) {
    auto it = series_.find(sample.name);
    if (it == series_.end()) {
      it = series_
               .emplace(sample.name,
                        Series{sample.kind, RingSeries(options_.ring_capacity)})
               .first;
    }
    it->second.ring.Push(now, sample.value);
  }
  ++scrape_count_;
  last_scrape_at_ = now;
}

void Scraper::Inject(const std::string& full_name, metrics::MetricKind kind,
                     Nanos now, double value) {
  auto it = series_.find(full_name);
  if (it == series_.end()) {
    it = series_
             .emplace(full_name, Series{kind, RingSeries(options_.ring_capacity)})
             .first;
  }
  it->second.ring.Push(now, value);
}

const RingSeries* Scraper::Find(const std::string& full_name) const {
  auto it = series_.find(full_name);
  return it != series_.end() ? &it->second.ring : nullptr;
}

metrics::MetricKind Scraper::KindOf(const std::string& full_name) const {
  auto it = series_.find(full_name);
  return it != series_.end() ? it->second.kind : metrics::MetricKind::kGauge;
}

std::string ParsedName::LabelOr(const std::string& key,
                                const std::string& fallback) const {
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return fallback;
}

ParsedName ParseSeriesName(const std::string& full_name) {
  ParsedName out;
  const size_t brace = full_name.find('{');
  if (brace == std::string::npos) {
    out.base = full_name;
    return out;
  }
  out.base = full_name.substr(0, brace);
  const size_t close = full_name.rfind('}');
  const std::string body =
      close != std::string::npos && close > brace
          ? full_name.substr(brace + 1, close - brace - 1)
          : full_name.substr(brace + 1);
  size_t pos = 0;
  while (pos < body.size()) {
    size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    const std::string kv = body.substr(pos, comma - pos);
    const size_t eq = kv.find('=');
    if (eq != std::string::npos) {
      out.labels.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    }
    pos = comma + 1;
  }
  return out;
}

}  // namespace repro::telemetry
