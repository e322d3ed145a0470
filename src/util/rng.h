// Deterministic random number generation.
//
// Every simulation owns a single seeded Rng; all stochastic choices
// (workload op mix, path popularity, jitter) draw from it so a run is
// reproducible from its seed alone. The generator is xoshiro256**, seeded
// via SplitMix64 — fast, high quality, and stable across platforms
// (unlike std::mt19937 + std::uniform_int_distribution whose outputs are
// implementation-defined).
#pragma once

#include <cstdint>
#include <vector>

namespace repro {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  uint64_t NextU64();

  // Values drawn from this stream so far (every Next* goes through
  // NextU64). Behaviour digests pin it: a refactor that adds or drops a
  // draw shifts every later random choice.
  uint64_t draws() const { return draws_; }

  // Uniform in [0, n). n must be > 0.
  uint64_t NextBelow(uint64_t n);

  // Uniform in [0, 1).
  double NextDouble();

  bool NextBool(double p_true);

  // Exponentially distributed with the given mean (for inter-arrival jitter).
  double NextExp(double mean);

  // Splits off an independent stream (for per-node RNGs that must not
  // perturb each other's sequences when topology changes).
  Rng Split();

 private:
  uint64_t s_[4];
  uint64_t draws_ = 0;
};

// Zipf-distributed ranks in [0, n). Used to model skewed directory/file
// popularity in the Spotify-style workload. Precomputes the CDF once.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta);

  uint64_t Next(Rng& rng) const;
  uint64_t n() const { return n_; }

 private:
  uint64_t n_;
  std::vector<double> cdf_;
};

// Picks an index according to a fixed discrete distribution (op mix).
class DiscreteDistribution {
 public:
  explicit DiscreteDistribution(std::vector<double> weights);

  int Next(Rng& rng) const;
  int size() const { return static_cast<int>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

}  // namespace repro
