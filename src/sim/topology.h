// Cloud topology: a region of availability zones containing hosts.
//
// Latencies default to the paper's Table I measurements for GCP us-west1
// (0.247–0.251 ms intra-AZ RTT, 0.360–0.399 ms inter-AZ RTT). Hosts can be
// marked down (machine failure) and AZs can be partitioned from each other
// (the split-brain scenarios of §IV-A2 / §V-F).
//
// Layout: everything on the message path is a flat, index-addressed array —
// per-host columns (az, up) and per-AZ-pair tables stored row-major as
// `a * num_azs + b`. Reachable()/Latency() run once per simulated message,
// so they touch two host columns and one precomputed latency cell; no
// nested vectors, no strings, no pointer hops.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/time.h"

namespace repro {

using AzId = int;
using HostId = int;

constexpr AzId kNoAz = -1;

struct AzLatencyTable {
  // One-way latencies in nanoseconds, indexed [from_az][to_az]. The
  // diagonal is the intra-AZ latency. Derived from Table I RTTs.
  std::vector<std::vector<Nanos>> one_way;
  Nanos same_host = 25 * kMicrosecond;

  // The paper's measured us-west1 matrix (a=0, b=1, c=2).
  static AzLatencyTable UsWest1();
  // A uniform synthetic table with n AZs.
  static AzLatencyTable Uniform(int num_azs, Nanos intra_one_way,
                                Nanos inter_one_way);
};

class Topology {
 public:
  Topology(int num_azs, AzLatencyTable latency);

  // Adds a host to an AZ and returns its id.
  HostId AddHost(AzId az, std::string name);

  int num_azs() const { return num_azs_; }
  int num_hosts() const { return static_cast<int>(host_az_.size()); }
  AzId az_of(HostId h) const { return host_az_[h]; }
  const std::string& name_of(HostId h) const { return host_name_[h]; }

  bool HostUp(HostId h) const { return host_up_[h] != 0; }
  void SetHostUp(HostId h, bool up) { host_up_[h] = up ? 1 : 0; }

  // Fails / restores a whole AZ at once.
  void SetAzUp(AzId az, bool up);

  // Installs a network partition between two AZs (both directions).
  // Hosts in partitioned AZs stay up but cannot exchange messages.
  void PartitionAzs(AzId a, AzId b);
  // Asymmetric (grey) partition: cuts only the from -> to direction, so
  // `to` can still talk to `from` but never hears back — the classic
  // half-open link failure detectors struggle with.
  void PartitionAzsOneWay(AzId from, AzId to);
  void HealPartition(AzId a, AzId b);
  void HealAllPartitions();
  bool Partitioned(AzId a, AzId b) const {
    return az_partitioned_[Pair(a, b)] != 0;
  }

  // Latency inflation (fault injection): multiplies the one-way latency of
  // the directed a -> b AZ pair. Factor 1.0 restores normal latency.
  void SetLatencyFactor(AzId a, AzId b, double factor);
  void SetAllLatencyFactor(double factor);
  void ClearLatencyFactors() { SetAllLatencyFactor(1.0); }
  double latency_factor(AzId a, AzId b) const {
    return latency_factor_[Pair(a, b)];
  }

  // True if a message can currently travel from a to b.
  bool Reachable(HostId a, HostId b) const {
    if (host_up_[a] == 0 || host_up_[b] == 0) return false;
    return az_partitioned_[Pair(host_az_[a], host_az_[b])] == 0;
  }

  // One-way propagation latency. `rng` adds a small multiplicative jitter
  // when jitter_fraction > 0 (the default models cloud network variance).
  Nanos Latency(HostId a, HostId b, Rng& rng) const;

  void set_jitter_fraction(double f) { jitter_fraction_ = f; }

 private:
  int Pair(AzId a, AzId b) const { return a * num_azs_ + b; }

  int num_azs_;
  Nanos same_host_latency_;
  double jitter_fraction_ = 0.05;

  // ---- Per-host columns (struct-of-arrays, indexed by HostId) ----------
  // The hot columns are 4 + 1 bytes per host; names live in their own
  // (cold) column so a Reachable() check never walks past a std::string.
  std::vector<int32_t> host_az_;
  std::vector<uint8_t> host_up_;
  std::vector<std::string> host_name_;

  // ---- Per-AZ-pair tables (row-major, a * num_azs_ + b) ----------------
  std::vector<Nanos> base_latency_;       // one-way base latency
  std::vector<Nanos> effective_latency_;  // base × latency factor
  std::vector<double> latency_factor_;    // 1.0 = normal
  std::vector<uint8_t> az_partitioned_;   // 1 when a -> b is cut
};

}  // namespace repro
