#include "sim/topology.h"

#include <cassert>

namespace repro {

AzLatencyTable AzLatencyTable::UsWest1() {
  // Table I of the paper, RTT in ms:
  //          a      b      c
  //   a    0.247  0.360  0.372
  //   b    0.360  0.251  0.399
  //   c    0.372  0.399  0.249
  // Stored as one-way latency = RTT / 2.
  auto us = [](double rtt_ms) {
    return static_cast<Nanos>(rtt_ms / 2.0 * 1e6);
  };
  AzLatencyTable t;
  t.one_way = {
      {us(0.247), us(0.360), us(0.372)},
      {us(0.360), us(0.251), us(0.399)},
      {us(0.372), us(0.399), us(0.249)},
  };
  return t;
}

AzLatencyTable AzLatencyTable::Uniform(int num_azs, Nanos intra_one_way,
                                       Nanos inter_one_way) {
  AzLatencyTable t;
  t.one_way.assign(num_azs, std::vector<Nanos>(num_azs, inter_one_way));
  for (int i = 0; i < num_azs; ++i) t.one_way[i][i] = intra_one_way;
  return t;
}

Topology::Topology(int num_azs, AzLatencyTable latency)
    : num_azs_(num_azs), same_host_latency_(latency.same_host) {
  assert(static_cast<int>(latency.one_way.size()) >= num_azs);
  const int pairs = num_azs * num_azs;
  base_latency_.resize(pairs);
  for (int a = 0; a < num_azs; ++a) {
    for (int b = 0; b < num_azs; ++b) {
      base_latency_[Pair(a, b)] = latency.one_way[a][b];
    }
  }
  effective_latency_ = base_latency_;
  latency_factor_.assign(pairs, 1.0);
  az_partitioned_.assign(pairs, 0);
}

HostId Topology::AddHost(AzId az, std::string name) {
  assert(az >= 0 && az < num_azs_);
  host_az_.push_back(az);
  host_up_.push_back(1);
  host_name_.push_back(std::move(name));
  return static_cast<HostId>(host_az_.size()) - 1;
}

void Topology::SetAzUp(AzId az, bool up) {
  for (size_t h = 0; h < host_az_.size(); ++h) {
    if (host_az_[h] == az) host_up_[h] = up ? 1 : 0;
  }
}

void Topology::PartitionAzs(AzId a, AzId b) {
  if (a == b) return;  // an AZ cannot be partitioned from itself
  az_partitioned_[Pair(a, b)] = az_partitioned_[Pair(b, a)] = 1;
}

void Topology::PartitionAzsOneWay(AzId from, AzId to) {
  if (from == to) return;
  az_partitioned_[Pair(from, to)] = 1;
}

void Topology::SetLatencyFactor(AzId a, AzId b, double factor) {
  assert(factor > 0);
  const int p = Pair(a, b);
  latency_factor_[p] = factor;
  effective_latency_[p] = static_cast<Nanos>(
      static_cast<double>(base_latency_[p]) * factor);
}

void Topology::SetAllLatencyFactor(double factor) {
  assert(factor > 0);
  for (size_t p = 0; p < latency_factor_.size(); ++p) {
    latency_factor_[p] = factor;
    effective_latency_[p] = static_cast<Nanos>(
        static_cast<double>(base_latency_[p]) * factor);
  }
}

void Topology::HealPartition(AzId a, AzId b) {
  az_partitioned_[Pair(a, b)] = az_partitioned_[Pair(b, a)] = 0;
}

void Topology::HealAllPartitions() {
  az_partitioned_.assign(az_partitioned_.size(), 0);
}

Nanos Topology::Latency(HostId a, HostId b, Rng& rng) const {
  // Inflation factors are folded into effective_latency_ at
  // SetLatencyFactor time, so the per-message cost is one table load.
  Nanos base = a == b ? same_host_latency_
                      : effective_latency_[Pair(host_az_[a], host_az_[b])];
  if (jitter_fraction_ > 0) {
    const double j = 1.0 + jitter_fraction_ * (2.0 * rng.NextDouble() - 1.0);
    base = static_cast<Nanos>(static_cast<double>(base) * j);
  }
  return base;
}

}  // namespace repro
