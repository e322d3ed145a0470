#include "metrics/counters.h"

#include <algorithm>

namespace repro::metrics {

bool MatchesSegmentPrefix(const std::string& name,
                          const std::string& prefix) {
  if (prefix.empty()) return true;
  if (name.size() < prefix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.size() == prefix.size()) return true;
  // Whole-segment boundary: the next character must end the path segment
  // ('.' continues the hierarchy, '{' starts a label suffix).
  const char next = name[prefix.size()];
  return next == '.' || next == '{';
}

// ---- HistogramMetric ------------------------------------------------------

HistogramMetric::HistogramMetric(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size(), 0) {}

void HistogramMetric::Observe(double value) {
  ++count_;
  sum_ += value;
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) ++counts_[i];
  }
}

// ---- Labels ---------------------------------------------------------------

Labels::Labels(
    std::initializer_list<std::pair<std::string, std::string>> init)
    : kv(init) {
  std::sort(kv.begin(), kv.end());
}

std::string Labels::Encode() const {
  if (kv.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) out += ',';
    out += kv[i].first;
    out += '=';
    out += kv[i].second;
  }
  out += '}';
  return out;
}

std::string FullName(const std::string& name, const Labels& labels) {
  return name + labels.Encode();
}

// ---- Registry -------------------------------------------------------------

Counter* Registry::GetCounter(const std::string& name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Counter* Registry::GetCounter(const std::string& name, const Labels& labels) {
  return GetCounter(FullName(name, labels));
}

Gauge* Registry::GetGauge(const std::string& name, const Labels& labels) {
  const std::string key = FullName(name, labels);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_.emplace(key, std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

HistogramMetric* Registry::GetHistogram(const std::string& name,
                                        std::vector<double> bounds,
                                        const Labels& labels) {
  const std::string key = FullName(name, labels);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(key, std::make_unique<HistogramMetric>(std::move(bounds)))
             .first;
  }
  return it->second.get();
}

void Registry::RegisterCallback(const std::string& name, const Labels& labels,
                                MetricKind kind, std::function<double()> fn) {
  callbacks_[FullName(name, labels)] = CallbackMetric{kind, std::move(fn)};
}

std::vector<Registry::Sample> Registry::Collect() const {
  std::vector<Sample> out;
  CollectInto(&out);
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return out;
}

void Registry::CollectInto(std::vector<Sample>* out) const {
  const size_t need = counters_.size() + gauges_.size() +
                      2 * histograms_.size() + callbacks_.size();
  // resize() keeps existing Sample slots (and their strings' capacity);
  // growth only happens when a new metric registers, never steady-state.
  out->resize(need);
  size_t i = 0;
  // Section order (each map already name-sorted) is stable across
  // scrapes, so slot i always re-receives the same name: assign() reuses
  // the string's buffer and the scrape allocates nothing.
  for (const auto& [name, c] : counters_) {
    Sample& s = (*out)[i++];
    s.name.assign(name);
    s.kind = MetricKind::kCounter;
    s.value = static_cast<double>(c->value());
  }
  for (const auto& [name, g] : gauges_) {
    Sample& s = (*out)[i++];
    s.name.assign(name);
    s.kind = MetricKind::kGauge;
    s.value = g->value();
  }
  for (const auto& [name, h] : histograms_) {
    Sample& c = (*out)[i++];
    c.name.assign(name);
    c.name += ".count";
    c.kind = MetricKind::kCounter;
    c.value = static_cast<double>(h->count());
    Sample& m = (*out)[i++];
    m.name.assign(name);
    m.name += ".sum";
    m.kind = MetricKind::kCounter;
    m.value = h->sum();
  }
  for (const auto& [name, cb] : callbacks_) {
    Sample& s = (*out)[i++];
    s.name.assign(name);
    s.kind = cb.kind;
    s.value = cb.fn();
  }
}

std::vector<Registry::HistogramSample> Registry::CollectHistograms() const {
  std::vector<HistogramSample> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.push_back({name, h.get()});
  return out;
}

std::vector<std::pair<std::string, int64_t>> Registry::Snapshot() const {
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::string Registry::Report(const std::string& prefix) const {
  std::string out;
  for (const auto& [name, counter] : counters_) {
    if (!MatchesSegmentPrefix(name, prefix)) continue;
    out += "  " + name + " = " + std::to_string(counter->value()) + "\n";
  }
  return out;
}

}  // namespace repro::metrics
