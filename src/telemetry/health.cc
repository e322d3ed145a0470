#include "telemetry/health.h"

#include <algorithm>
#include <cstdio>

namespace repro::telemetry {
namespace {

// Signals are computed over the last kWindowSamples scrape points.
constexpr size_t kWindowSamples = 5;
// Mean queue backlog above this flags a host degraded (grey-slow).
constexpr Nanos kQueueDepthDegraded = 50 * kMillisecond;
// Error-rate thresholds over the window (errors delta / ops delta).
constexpr double kErrorRateDegraded = 0.10;
constexpr double kErrorRateUnavailable = 0.50;
// Minimum ops delta in the window before the error rate is trusted.
constexpr int64_t kMinOpsForErrorRate = 20;
// A staleness peer only counts as "progressing" at or above this ops
// delta. Trickle traffic (durability probes, a draining queue) moves
// counters by a handful of ops per window; one host missing its share
// of that trickle is load imbalance, not grey failure.
constexpr int64_t kMinStalePeerOps = 50;
// Grey-slow (service-time) detector: flag a host whose mean busy time
// per completed work item is >= factor x the median of its role peers.
// The floor and the minimum work delta keep µs-scale jitter on
// near-idle pools from flagging anyone.
constexpr double kGreyServiceFactor = 4.0;
constexpr Nanos kGreyServiceFloor = 50 * kMicrosecond;
constexpr int64_t kMinWorkForService = 20;

HealthState Worse(HealthState a, HealthState b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

// Role prefix of a host name: "nn-3" -> "nn", "ndb-dn-1" -> "ndb-dn".
// Hosts sharing a role are staleness peers for each other.
std::string RoleOf(const std::string& host) {
  const size_t dash = host.find_last_of('-');
  return dash == std::string::npos ? host : host.substr(0, dash);
}

// Change in a (counter) series over the last kWindowSamples scrape points;
// negative means "not enough points to tell".
double DeltaOver(const RingSeries* ring) {
  if (ring == nullptr || ring->size() < 2) return -1;
  const size_t last = ring->size() - 1;
  const size_t base = last > kWindowSamples ? last - kWindowSamples : 0;
  return ring->latest().v - ring->at(base).v;
}

double MeanOver(const RingSeries* ring) {
  if (ring == nullptr || ring->empty()) return 0;
  const size_t n = std::min(ring->size(), kWindowSamples);
  double sum = 0;
  for (size_t i = ring->size() - n; i < ring->size(); ++i) sum += ring->at(i).v;
  return sum / static_cast<double>(n);
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

const char* HealthStateName(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kUnavailable: return "unavailable";
  }
  return "?";
}

const HostHealth* HealthSnapshot::Find(const std::string& host) const {
  for (const auto& h : hosts) {
    if (h.host == host) return &h;
  }
  return nullptr;
}

std::vector<std::string> HealthSnapshot::UnhealthyHosts() const {
  std::vector<std::string> out;
  for (const auto& h : hosts) {
    if (h.state != HealthState::kHealthy) out.push_back(h.host);
  }
  return out;
}

std::string HealthSnapshot::ToString() const {
  std::string out = "cluster=";
  out += HealthStateName(cluster);
  for (const auto& [az, state] : az_state) {
    out += " az" + az + "=" + HealthStateName(state);
  }
  bool any = false;
  for (const auto& h : hosts) {
    if (h.state == HealthState::kHealthy) continue;
    out += any ? ", " : " | ";
    out += h.host + "=" + HealthStateName(h.state) + "(" + h.reason + ")";
    any = true;
  }
  return out;
}

HealthSnapshot HealthModel::Evaluate(const Scraper& scraper, Nanos now) const {
  HealthSnapshot snap;
  snap.at = now;

  // Pass 1: find every host via its host.up series and compute the
  // per-host signal values.
  for (const auto& [name, series] : scraper.series()) {
    const ParsedName parsed = ParseSeriesName(name);
    if (parsed.base != "host.up" || series.ring.empty()) continue;
    const std::string suffix = name.substr(parsed.base.size());

    HostHealth h;
    h.host = parsed.LabelOr("host", "?");
    h.az = parsed.LabelOr("az", "?");
    const bool up = series.ring.latest().v > 0.5;

    const RingSeries* ops = scraper.Find("host.ops" + suffix);
    const RingSeries* errors = scraper.Find("host.errors" + suffix);
    const RingSeries* queue = scraper.Find("host.queue_ns" + suffix);
    const RingSeries* recovering = scraper.Find("host.recovering" + suffix);
    h.recovering = recovering != nullptr && !recovering->empty() &&
                   recovering->latest().v > 0.5;
    h.has_queue = queue != nullptr;
    h.ops_delta = DeltaOver(ops);
    if (ops != nullptr && !ops->empty()) h.ops_total = ops->latest().v;
    h.mean_queue_ns = MeanOver(queue);
    const double err_delta = DeltaOver(errors);
    if (h.ops_delta >= kMinOpsForErrorRate && err_delta > 0) {
      h.error_rate = err_delta / h.ops_delta;
    }
    const double busy_delta = DeltaOver(scraper.Find("host.busy_ns" + suffix));
    const double work_delta = DeltaOver(scraper.Find("host.work" + suffix));
    if (busy_delta >= 0 && work_delta >= kMinWorkForService) {
      h.service_ns = busy_delta / work_delta;
    }

    if (!up) {
      h.state = HealthState::kUnavailable;
      h.reason = "down";
    } else if (h.recovering) {
      h.state = HealthState::kDegraded;
      h.reason = "recovering";
    } else if (h.error_rate >= kErrorRateUnavailable) {
      h.state = HealthState::kUnavailable;
      h.reason = "error-rate " + Fmt("%.2f", h.error_rate);
    } else if (h.error_rate >= kErrorRateDegraded) {
      h.state = HealthState::kDegraded;
      h.reason = "error-rate " + Fmt("%.2f", h.error_rate);
    } else if (h.mean_queue_ns >= kQueueDepthDegraded) {
      h.state = HealthState::kDegraded;
      h.reason = "queue " + Fmt("%.1fms", h.mean_queue_ns / 1e6);
    } else {
      h.reason = "ok";
    }
    snap.hosts.push_back(std::move(h));
  }
  std::sort(snap.hosts.begin(), snap.hosts.end(),
            [](const HostHealth& a, const HostHealth& b) {
              return a.host < b.host;
            });

  // Pass 2: peer-relative grey-slow. A host whose mean service time per
  // work item is a multiple of its role peers' median is CPU/disk
  // degraded even if its queues drain between scrapes (low utilisation
  // hides a grey host from the queue-depth signal entirely).
  for (auto& h : snap.hosts) {
    if (h.state != HealthState::kHealthy || h.service_ns < 0) continue;
    std::vector<double> peers;
    for (const auto& peer : snap.hosts) {
      if (peer.host == h.host || RoleOf(peer.host) != RoleOf(h.host) ||
          peer.service_ns < 0 ||
          peer.state == HealthState::kUnavailable) {
        continue;
      }
      peers.push_back(peer.service_ns);
    }
    if (peers.size() < 2) continue;
    std::nth_element(peers.begin(), peers.begin() + peers.size() / 2,
                     peers.end());
    const double median = peers[peers.size() / 2];
    if (h.service_ns >= kGreyServiceFactor * median &&
        h.service_ns >= kGreyServiceFloor) {
      h.state = HealthState::kDegraded;
      h.reason = "grey-slow " + Fmt("%.2f", h.service_ns / 1e3) + "us/op";
    }
  }

  // Pass 3: peer-relative staleness. A host whose ops counter froze — at
  // a nonzero value, so it demonstrably served before — while >= 2 peers
  // of the same role made real progress is grey-failed even though it
  // still heartbeats. Peer-relative, so a uniformly idle role never
  // flags; the prior-progress gate spares hosts that sticky clients
  // simply never picked (load imbalance, not grey failure); the per-peer
  // ops floor keeps trickle traffic (probes) from electing
  // "progressing" peers.
  for (auto& h : snap.hosts) {
    if (h.state != HealthState::kHealthy || h.ops_delta != 0 ||
        h.ops_total <= 0 || !h.has_queue) {
      continue;
    }
    int progressing_peers = 0;
    bool stalled_peer = false;
    for (const auto& peer : snap.hosts) {
      if (peer.host == h.host || RoleOf(peer.host) != RoleOf(h.host) ||
          peer.state == HealthState::kUnavailable) {
        continue;
      }
      if (peer.ops_delta >= kMinStalePeerOps) {
        ++progressing_peers;
      } else if (peer.ops_delta == 0) {
        stalled_peer = true;
      }
    }
    if (progressing_peers >= 2 && !stalled_peer) {
      h.state = HealthState::kDegraded;
      h.reason = "stale";
    }
  }

  // Pass 4: rollups. An AZ is unavailable when at least half its hosts
  // are, degraded when any host is unhealthy; the cluster is unavailable
  // when a majority of AZs are, degraded when any AZ is unhealthy.
  std::map<std::string, std::pair<int, int>> az_counts;  // az -> (total, unavailable)
  std::map<std::string, HealthState> az_worst;
  for (const auto& h : snap.hosts) {
    auto& [total, unavail] = az_counts[h.az];
    ++total;
    if (h.state == HealthState::kUnavailable) ++unavail;
    auto [it, fresh] = az_worst.emplace(h.az, h.state);
    if (!fresh) it->second = Worse(it->second, h.state);
  }
  int azs_unavailable = 0;
  for (const auto& [az, counts] : az_counts) {
    HealthState s = az_worst[az] == HealthState::kHealthy
                        ? HealthState::kHealthy
                        : HealthState::kDegraded;
    if (counts.second * 2 >= counts.first && counts.second > 0) {
      s = HealthState::kUnavailable;
      ++azs_unavailable;
    }
    snap.az_state[az] = s;
    snap.cluster = Worse(snap.cluster, s == HealthState::kUnavailable
                                           ? HealthState::kDegraded
                                           : s);
  }
  if (azs_unavailable * 2 > static_cast<int>(snap.az_state.size())) {
    snap.cluster = HealthState::kUnavailable;
  }
  return snap;
}

}  // namespace repro::telemetry
