// Message transport with finite bandwidth.
//
// Two resources shape transfers, mirroring what matters in a cloud region
// (§III C2): each host's NIC, and the aggregate capacity of each directed
// AZ-pair link. Inter-AZ links are the scarce, billable resource — the
// paper's motivation for AZ-local reads — so the network tracks intra- vs
// inter-AZ bytes separately; benchmarks report both (Figs. 12–14).
//
// Messages to unreachable destinations are silently dropped; all protocols
// above recover via timeouts, exactly as over a real partitioned network.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/topology.h"

namespace repro {

// Consecutive transport losses tolerated before the message is genuinely
// lost (a connection reset).
constexpr int kMaxRetransmits = 15;

struct NetworkConfig {
  // Per-host NIC throughput (GCP 32-vCPU VMs get ~16 Gbps).
  double nic_bytes_per_sec = 2.0e9;
  // Effective aggregate budget of each directed inter-AZ link available
  // to one deployment (per-VM egress caps, not fabric capacity). The
  // AZ-oblivious 3-AZ deployments approach this budget at high namenode
  // counts, reproducing the paper's "network I/O becomes a bottleneck"
  // regime past ~24 NNs; AZ-aware deployments stay far below it (§V-E).
  double inter_az_bytes_per_sec = 0.4e9;
  // Fixed per-message framing overhead added to every payload.
  int64_t per_message_overhead_bytes = 120;
};

struct HostNetStats {
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  int64_t messages_sent = 0;
  int64_t messages_received = 0;
};

class Network {
 public:
  Network(Simulation& sim, Topology& topology, NetworkConfig config = {});

  // Sends `payload_bytes` from host `from` to host `to`; `deliver` runs at
  // the arrival time. Dropped (deliver never runs) if the destination is
  // unreachable at send or arrival time.
  //
  // Templated on the callable so the scheduled arrival event captures the
  // caller's closure directly: a deliver closure of <= 32 bytes rides in
  // the engine's inline event slot with no heap allocation at all.
  template <typename F>
  void Send(HostId from, HostId to, int64_t payload_bytes, F deliver) {
    const Nanos arrival = PrepareSend(from, to, payload_bytes);
    if (arrival < 0) return;  // unreachable or connection reset
    const int64_t bytes = payload_bytes + config_.per_message_overhead_bytes;
    sim_.At(arrival,
            [this, from, to, bytes, f = std::move(deliver)]() mutable {
              // Re-check: the destination may have died or been partitioned
              // away while the message was in flight.
              if (!topology_.Reachable(from, to)) return;
              host_stats_[to].bytes_received += bytes;
              host_stats_[to].messages_received += 1;
              f();
            });
  }

  // ---- Statistics (since last ResetStats) ----
  int64_t intra_az_bytes() const { return intra_az_bytes_; }
  int64_t inter_az_bytes() const { return inter_az_bytes_; }
  int64_t az_pair_bytes(AzId from, AzId to) const {
    return az_pair_bytes_[Pair(from, to)];
  }
  const HostNetStats& host_stats(HostId h) const {
    static const HostNetStats kEmpty{};
    return h < static_cast<HostId>(host_stats_.size()) ? host_stats_[h]
                                                       : kEmpty;
  }
  void ResetStats();

  // ---- Fault injection: probabilistic message loss ----
  // Loses each wire transmission on the directed from -> to AZ link with
  // the given probability (lossy link, not a clean partition). The
  // transport retransmits after `retransmit_timeout`, so loss between
  // reachable hosts manifests as latency spikes and failure-detector
  // flapping — only after `max_retransmits` consecutive losses is the
  // message genuinely gone (connection reset). Probability 0 restores the
  // link. Draws from the simulation RNG only when a non-zero probability
  // is installed, so fault-free runs keep their exact event sequences.
  void SetDropProbability(AzId from, AzId to, double p);
  void SetAllDropProbability(double p);
  void ClearDropProbabilities() { SetAllDropProbability(0.0); }
  int64_t messages_dropped() const { return messages_dropped_; }

  const NetworkConfig& config() const { return config_; }
  Topology& topology() { return topology_; }
  Simulation& sim() { return sim_; }

 private:
  // Everything Send() does before scheduling the arrival: reachability,
  // loss draws, byte accounting, NIC/link occupancy. Returns the arrival
  // time, or -1 when the message never arrives.
  Nanos PrepareSend(HostId from, HostId to, int64_t payload_bytes);

  // Flat row-major index into the per-directed-AZ-pair tables.
  int Pair(AzId from, AzId to) const { return from * num_azs_ + to; }

  // Earliest time a new transmission can start on the given resource, and
  // the update after occupying it for `tx` nanoseconds.
  static Nanos Occupy(Nanos& free_at, Nanos now, Nanos tx);

  // Hosts may be added to the topology after the network is constructed;
  // grow the per-host bookkeeping on demand.
  void EnsureHost(HostId h);

  Simulation& sim_;
  Topology& topology_;
  NetworkConfig config_;
  int num_azs_;

  // Per-AZ-pair state is flat and row-major (`from * num_azs_ + to`) —
  // one cache line covers the whole 3-AZ table, and Send() does no
  // double-indirection.
  std::vector<Nanos> nic_free_at_;       // per host
  std::vector<Nanos> link_free_at_;      // per directed AZ pair

  std::vector<HostNetStats> host_stats_;
  std::vector<int64_t> az_pair_bytes_;   // per directed AZ pair
  int64_t intra_az_bytes_ = 0;
  int64_t inter_az_bytes_ = 0;

  std::vector<double> drop_prob_;        // per directed AZ pair
  bool any_drop_prob_ = false;
  int64_t messages_dropped_ = 0;
};

}  // namespace repro
