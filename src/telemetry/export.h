// Telemetry exporters: Prometheus text exposition, JSON scrape archive and
// CSV scrape archive, each built as a string for util::WriteFile.
#pragma once

#include <string>

#include "metrics/counters.h"
#include "telemetry/scraper.h"

namespace repro::telemetry {

// Prometheus text exposition format (version 0.0.4) of the registry's
// current state: dotted names become underscore-separated, labels are
// rendered as {k="v"}, and each family gets a # TYPE line. Histograms
// (nanoseconds) expand to _bucket/_sum/_count in seconds: one _bucket line
// at every power-of-two edge of the log buckets, le = 2^k - 1 ns printed
// exactly, where the cumulative count is exact, then le="+Inf".
std::string PrometheusText(const metrics::Registry& registry);

// Full scrape archive as JSON: every series with its kind and
// [time_seconds, value] points, sorted by name (deterministic).
std::string ScrapeArchiveJson(const Scraper& scraper);

// Scrape archive as a wide CSV: one row per scrape tick, one column per
// series (blank cells before a series first appeared).
std::string ScrapeCsv(const Scraper& scraper);

}  // namespace repro::telemetry
