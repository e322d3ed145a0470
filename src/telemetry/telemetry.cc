#include "telemetry/telemetry.h"

namespace repro::telemetry {

namespace {
constexpr double kLatencyTarget = 0.99;
}  // namespace

Telemetry::Telemetry(Simulation& sim, metrics::Registry& registry,
                     TelemetryOptions options)
    : sim_(sim),
      options_(options),
      scraper_(&registry, options.scraper) {
  slo_.AddObjective({"availability", "slo.requests.total",
                     "slo.requests.good", options_.availability_target,
                     options_.slo.rules});
  slo_.AddObjective({"latency", "slo.latency.total", "slo.latency.good",
                     kLatencyTarget, options_.slo.rules});
}

void Telemetry::Start() {
  if (started_) return;
  started_ = true;
  tick_ = sim_.Every(options_.scraper.period, [this] { Tick(); });
}

void Telemetry::Stop() {
  if (!started_) return;
  started_ = false;
  tick_.Cancel();
}

void Telemetry::Tick() {
  const Nanos now = sim_.now();
  scraper_.ScrapeOnce(now);
  slo_.Evaluate(scraper_, now);
  last_health_ = health_model_.Evaluate(scraper_, now);
  ++ticks_;

  // Derived health/alert series join the scrape archive (health.host{...},
  // health.az{...}, health.cluster, slo.active_alerts), so exported
  // artifacts carry the rollups alongside raw metrics.
  for (const auto& h : last_health_.hosts) {
    scraper_.Inject(
        "health.host" +
            metrics::Labels{{"az", h.az}, {"host", h.host}}.Encode(),
        metrics::MetricKind::kGauge, now,
        static_cast<double>(static_cast<int>(h.state)));
  }
  for (const auto& [az, state] : last_health_.az_state) {
    scraper_.Inject("health.az" + metrics::Labels{{"az", az}}.Encode(),
                    metrics::MetricKind::kGauge, now,
                    static_cast<double>(static_cast<int>(state)));
  }
  scraper_.Inject("health.cluster", metrics::MetricKind::kGauge, now,
                  static_cast<double>(static_cast<int>(last_health_.cluster)));
  scraper_.Inject("slo.active_alerts", metrics::MetricKind::kGauge, now,
                  static_cast<double>(slo_.active_alert_count()));
}

}  // namespace repro::telemetry
