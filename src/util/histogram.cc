#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace repro {
namespace {

// 32 sub-buckets per power of two: a bucket spans 1/64 (1.6%) to 1/32
// (3.1%) of its values.
constexpr int kSubBucketBits = 5;
constexpr int kSubBuckets = 1 << kSubBucketBits;
// Values up to 2^40 ns (~18 minutes) are representable exactly enough;
// larger ones clamp into the last bucket.
constexpr int kTopLog2 = 40;
constexpr int kMaxBuckets = (kTopLog2 - kSubBucketBits + 1) * kSubBuckets;
// The exact power-of-two edges are the ends of the bucket groups, bar the
// clamping last one.
static_assert(Histogram::kMinEdgeLog2 == kSubBucketBits);
static_assert(Histogram::kMaxEdgeLog2 == kTopLog2 - 1);

}  // namespace

Histogram::Histogram() : buckets_(kMaxBuckets, 0) {}

int Histogram::BucketFor(Nanos value) {
  if (value < 0) value = 0;
  if (value < kSubBuckets) return static_cast<int>(value);
  const int msb = 63 - __builtin_clzll(static_cast<uint64_t>(value));
  const int shift = msb - kSubBucketBits;
  const int sub = static_cast<int>((value >> shift) - kSubBuckets);
  const int bucket = (msb - kSubBucketBits) * kSubBuckets + kSubBuckets + sub;
  return std::min(bucket, kMaxBuckets - 1);
}

Nanos Histogram::BucketUpperBound(int bucket) {
  if (bucket < kSubBuckets) return bucket;
  const int group = (bucket - kSubBuckets) / kSubBuckets;
  const int sub = (bucket - kSubBuckets) % kSubBuckets;
  const int shift = group;
  return (static_cast<Nanos>(kSubBuckets + sub + 1) << shift) - 1;
}

void Histogram::Record(Nanos value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[BucketFor(value)];
}

int64_t Histogram::CountAtMost(Nanos bound) const {
  if (bound < 0) return 0;
  const auto end = buckets_.begin() + BucketFor(bound) + 1;
  return std::accumulate(buckets_.begin(), end, int64_t{0});
}

double Histogram::MeanMillis() const {
  if (count_ == 0) return 0;
  return ToMillis(sum_) / static_cast<double>(count_);
}

Nanos Histogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: smallest recorded value whose cumulative count reaches
  // ceil(q*n), clamped to rank 1 — without the clamp q=0 hits the empty
  // rank-0 prefix and reports bucket 0 (i.e. 0 ns) instead of the min.
  const int64_t target = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))));
  if (target <= 1) return min_;
  int64_t seen = 0;
  for (int i = 0; i < kMaxBuckets; ++i) {
    seen += buckets_[i];
    // Rank 1 is exactly min_ and rank n exactly max_; interior ranks
    // report the bucket's upper bound, clamped into [min_, max_] so a
    // boundary-straddling bucket never reports a value outside the
    // observed range.
    if (seen >= target) return std::clamp(BucketUpperBound(i), min_, max_);
  }
  return max_;
}

}  // namespace repro
