// Log-bucketed latency histogram (HDR-style) for percentile reporting.
//
// The paper reports average end-to-end latency (Fig. 8) and the 50th/90th/
// 99th percentiles (Fig. 9); this histogram backs both. Buckets grow
// geometrically so a single structure covers 1 us .. 100 s with ~2% relative
// error, at constant memory.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.h"

namespace repro {

class Histogram {
 public:
  Histogram();

  void Record(Nanos value);
  void Merge(const Histogram& other);
  void Reset();

  int64_t count() const { return count_; }
  Nanos min() const { return count_ ? min_ : 0; }
  Nanos max() const { return max_; }
  Nanos sum() const { return sum_; }
  double MeanMillis() const;

  // Returns the value at quantile q in [0,1], e.g. 0.99 for p99.
  Nanos Percentile(double q) const;

  std::string Summary() const;
  const std::vector<int64_t>& buckets() const { return buckets_; }

 private:
  static int BucketFor(Nanos value);
  static Nanos BucketUpperBound(int bucket);

  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  Nanos sum_ = 0;
  Nanos min_ = 0;
  Nanos max_ = 0;
};

}  // namespace repro
