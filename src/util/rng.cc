#include "util/rng.h"

#include <cassert>
#include <cmath>

namespace repro {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::NextU64() {
  ++draws_;
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -n % n;
  for (;;) {
    const uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p_true) { return NextDouble() < p_true; }

double Rng::NextExp(double mean) {
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

Rng Rng::Split() { return Rng(NextU64()); }

ZipfGenerator::ZipfGenerator(uint64_t n, double theta) : n_(n) {
  assert(n > 0);
  cdf_.resize(n);
  double sum = 0;
  for (uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (auto& c : cdf_) c /= sum;
}

uint64_t ZipfGenerator::Next(Rng& rng) const {
  const double u = rng.NextDouble();
  // Binary search for the first CDF entry >= u.
  uint64_t lo = 0, hi = n_ - 1;
  while (lo < hi) {
    const uint64_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

DiscreteDistribution::DiscreteDistribution(std::vector<double> weights) {
  double sum = 0;
  for (double w : weights) {
    assert(w >= 0);
    sum += w;
  }
  assert(sum > 0);
  cdf_.reserve(weights.size());
  double acc = 0;
  for (double w : weights) {
    acc += w / sum;
    cdf_.push_back(acc);
  }
  cdf_.back() = 1.0;
}

int DiscreteDistribution::Next(Rng& rng) const {
  const double u = rng.NextDouble();
  for (size_t i = 0; i < cdf_.size(); ++i) {
    if (u < cdf_[i]) return static_cast<int>(i);
  }
  return static_cast<int>(cdf_.size()) - 1;
}

}  // namespace repro
