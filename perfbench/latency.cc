#include "latency.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

constexpr int kSubBits = 9;
constexpr int64_t kExact = int64_t{2} << kSubBits;  // 1024: width-1 buckets.
constexpr int kMaxShift = 31;                       // Values below 2^41 ns.
constexpr size_t kBuckets = (size_t{kMaxShift} << kSubBits) + kExact;

size_t BucketOf(int64_t ns) {
  if (ns < kExact) return static_cast<size_t>(std::max<int64_t>(ns, 0));
  const int msb = 63 - __builtin_clzll(static_cast<uint64_t>(ns));
  const int shift = std::min(msb - kSubBits, kMaxShift);
  const int64_t sub =
      std::min<int64_t>(ns >> shift, kExact - 1);  // In [512, 1024).
  return (static_cast<size_t>(shift) << kSubBits) + static_cast<size_t>(sub);
}

/// [low, low + width) covered by bucket `b`, in nanoseconds.
void BucketRange(size_t b, double* low, double* width) {
  if (b < static_cast<size_t>(kExact)) {
    *low = static_cast<double>(b);
    *width = 1.0;
    return;
  }
  const int shift = static_cast<int>(b >> kSubBits) - 1;
  const int64_t sub = static_cast<int64_t>(b) - (int64_t{shift} << kSubBits);
  *low = std::ldexp(static_cast<double>(sub), shift);
  *width = std::ldexp(1.0, shift);
}

}  // namespace

LatencyRecord::LatencyRecord() : buckets_(kBuckets, 0) {}

void LatencyRecord::AddNs(int64_t ns) {
  ++buckets_[BucketOf(ns)];
  ++count_;
}

void LatencyRecord::Merge(const LatencyRecord& other) {
  for (size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double LatencyRecord::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  // Continuous rank in [0, count): rank r falls in the bucket holding the
  // floor(r)-th sample, at the matching fraction of that bucket.
  const double n = static_cast<double>(count_);
  const double rank = std::clamp(q, 0.0, 1.0) * n;
  double before = 0.0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const double c = static_cast<double>(buckets_[b]);
    if (rank < before + c || before + c >= n) {
      double low = 0.0;
      double width = 0.0;
      BucketRange(b, &low, &width);
      const double frac = std::clamp((rank - before) / c, 0.0, 1.0);
      return (low + width * frac) * 1e-9;
    }
    before += c;
  }
  return 0.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace perfbench
