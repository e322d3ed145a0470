#include "sim/network.h"

#include <algorithm>
#include <cassert>

namespace repro {

namespace {
// Aggregate intra-AZ fabric capacity (effectively unconstrained).
constexpr double kIntraAzBytesPerSec = 100.0e9;
// Transport retransmission timeout: a message lost on the wire between
// reachable hosts (SetDropProbability) is resent after this long, so loss
// shows up as added latency — matching TCP, which every protocol here
// runs over — not as a silently lost protocol message.
constexpr Nanos kRetransmitTimeout = 50 * kMillisecond;
}  // namespace

Network::Network(Simulation& sim, Topology& topology, NetworkConfig config)
    : sim_(sim), topology_(topology), config_(config),
      num_azs_(topology.num_azs()) {
  const int hosts = topology_.num_hosts();
  const int pairs = num_azs_ * num_azs_;
  nic_free_at_.assign(hosts, 0);
  link_free_at_.assign(pairs, 0);
  host_stats_.assign(hosts, HostNetStats{});
  az_pair_bytes_.assign(pairs, 0);
  drop_prob_.assign(pairs, 0.0);
}

void Network::SetDropProbability(AzId from, AzId to, double p) {
  assert(p >= 0.0 && p <= 1.0);
  drop_prob_[Pair(from, to)] = p;
  any_drop_prob_ = false;
  for (double q : drop_prob_) any_drop_prob_ |= q > 0.0;
}

void Network::SetAllDropProbability(double p) {
  assert(p >= 0.0 && p <= 1.0);
  drop_prob_.assign(drop_prob_.size(), p);
  any_drop_prob_ = p > 0.0;
}

Nanos Network::Occupy(Nanos& free_at, Nanos now, Nanos tx) {
  const Nanos start = std::max(free_at, now);
  free_at = start + tx;
  return free_at;
}

void Network::EnsureHost(HostId h) {
  if (h >= static_cast<HostId>(nic_free_at_.size())) {
    nic_free_at_.resize(h + 1, 0);
    host_stats_.resize(h + 1, HostNetStats{});
  }
}

Nanos Network::PrepareSend(HostId from, HostId to, int64_t payload_bytes) {
  assert(payload_bytes >= 0);
  if (!topology_.Reachable(from, to)) return -1;
  EnsureHost(std::max(from, to));

  const int64_t bytes = payload_bytes + config_.per_message_overhead_bytes;
  const AzId az_from = topology_.az_of(from);
  const AzId az_to = topology_.az_of(to);

  Nanos retransmit_delay = 0;
  if (any_drop_prob_ && from != to) {
    const double p = drop_prob_[Pair(az_from, az_to)];
    if (p > 0.0) {
      // Each lost copy costs one retransmission timeout; the message
      // itself survives unless the transport exhausts its retries and
      // resets the connection. See SetDropProbability.
      int losses = 0;
      while (sim_.rng().NextDouble() < p) {
        ++messages_dropped_;
        retransmit_delay += kRetransmitTimeout;
        if (++losses >= kMaxRetransmits) return -1;
      }
    }
  }

  host_stats_[from].bytes_sent += bytes;
  host_stats_[from].messages_sent += 1;
  az_pair_bytes_[Pair(az_from, az_to)] += bytes;
  if (az_from == az_to) {
    intra_az_bytes_ += bytes;
  } else {
    inter_az_bytes_ += bytes;
  }

  const Nanos now = sim_.now();
  Nanos departure = now;
  if (from != to) {
    const double link_rate = az_from == az_to ? kIntraAzBytesPerSec
                                              : config_.inter_az_bytes_per_sec;
    const Nanos nic_tx = static_cast<Nanos>(
        static_cast<double>(bytes) / config_.nic_bytes_per_sec * 1e9);
    const Nanos link_tx =
        static_cast<Nanos>(static_cast<double>(bytes) / link_rate * 1e9);
    // The transfer must clear both the sender NIC and the AZ-pair fabric;
    // occupy them serially (a conservative two-queue approximation).
    departure = Occupy(nic_free_at_[from], now, nic_tx);
    departure = Occupy(link_free_at_[Pair(az_from, az_to)], departure, link_tx);
  }
  return departure + retransmit_delay + topology_.Latency(from, to, sim_.rng());
}

void Network::ResetStats() {
  for (auto& s : host_stats_) s = HostNetStats{};
  std::fill(az_pair_bytes_.begin(), az_pair_bytes_.end(), 0);
  intra_az_bytes_ = 0;
  inter_az_bytes_ = 0;
}

}  // namespace repro
