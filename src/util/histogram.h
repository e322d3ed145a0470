// Log-bucketed latency histogram (HDR-style) for percentile reporting.
//
// The paper reports average end-to-end latency (Fig. 8) and the 50th/90th/
// 99th percentiles (Fig. 9); this histogram backs both, and the metrics
// registry exports it as a Prometheus histogram. Values below 32 ns are
// exact; above that each power of two splits into 32 buckets, so a bucket
// is 1.6-3.1% of its values wide and one structure covers 1 us .. 100 s at
// constant memory.
#pragma once

#include <cstdint>
#include <vector>

#include "util/time.h"

namespace repro {

class Histogram {
 public:
  Histogram();

  void Record(Nanos value);

  int64_t count() const { return count_; }
  Nanos min() const { return count_ ? min_ : 0; }
  Nanos max() const { return max_; }
  Nanos sum() const { return sum_; }
  double MeanMillis() const;

  // Returns the value at quantile q in [0,1], e.g. 0.99 for p99.
  Nanos Percentile(double q) const;

  // Powers of two that end a bucket group: no bucket straddles 2^k - 1 ns
  // for k in [kMinEdgeLog2, kMaxEdgeLog2], so CountAtMost(2^k - 1) is
  // exact there (values of 2^40 ns and more share the last bucket).
  static constexpr int kMinEdgeLog2 = 5;
  static constexpr int kMaxEdgeLog2 = 39;
  // Number of recorded values <= `bound`, counted by whole buckets: exact
  // when `bound` is the last value of a bucket.
  int64_t CountAtMost(Nanos bound) const;

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
