// Telemetry bundle: one periodic sim-time tick driving scrape ->
// SLO evaluation -> health rollup for a whole deployment.
//
// Determinism contract: the tick draws no RNG and sends no simulated
// messages — it only reads registry state (hot-path counters plus the
// callback metrics components registered) and appends to telemetry-local
// rings. Extra tick events shift engine sequence numbers monotonically,
// never the relative order of protocol events, so a run produces
// byte-identical results with telemetry enabled or disabled
// (telemetry_test pins this with a chaos-harness trace comparison).
#pragma once

#include "sim/engine.h"
#include "telemetry/health.h"
#include "telemetry/scraper.h"
#include "telemetry/slo.h"

namespace repro::telemetry {

struct TelemetryOptions {
  bool enabled = false;
  ScraperOptions scraper;

  // SLO objectives are auto-registered against the client-side counters
  // (slo.requests.* / slo.latency.*): availability against this target,
  // latency against 0.99.
  double availability_target = 0.999;
  SloConfig slo = SloConfig::Production();
};

class Telemetry {
 public:
  Telemetry(Simulation& sim, metrics::Registry& registry,
            TelemetryOptions options);

  // Starts the periodic scrape/evaluate tick (no-op when already started).
  void Start();
  void Stop();

  // One scrape + SLO + health evaluation at sim.now(). Start() drives
  // this; benches may call it directly for a final end-of-run sample.
  void Tick();

  Scraper& scraper() { return scraper_; }
  const Scraper& scraper() const { return scraper_; }
  SloEngine& slo() { return slo_; }
  const SloEngine& slo() const { return slo_; }
  const HealthModel& health_model() const { return health_model_; }
  // Rollup from the most recent tick.
  const HealthSnapshot& health() const { return last_health_; }
  const TelemetryOptions& options() const { return options_; }
  int64_t ticks() const { return ticks_; }

 private:
  Simulation& sim_;
  TelemetryOptions options_;
  Scraper scraper_;
  HealthModel health_model_;
  SloEngine slo_;
  HealthSnapshot last_health_;
  Simulation::PeriodicHandle tick_;
  bool started_ = false;
  int64_t ticks_ = 0;
};

}  // namespace repro::telemetry
