#include "stats/quantile.h"

#include <algorithm>
#include <cstring>

namespace genbase::stats {

namespace {

/// Four buckets per binade over the whole double range. A 2^16 cap (16 per
/// binade) cut Q2's per-execute select at GENBASE_SCALE 0.08 from 5.3 to
/// 1.3 us of a ~170 us execute on a 4-vCPU host, but its 384 KB more per
/// plan raised serving_churn's peak RSS by ~2 MiB.
constexpr int kMaxBucketBits = 14;

/// log2 of QuantileBuckets(count).
int BucketBits(int64_t count) {
  int bits = 1;
  while (bits < kMaxBucketBits && (int64_t{1} << bits) < count) ++bits;
  return bits;
}

/// Order-preserving key: a < b implies key(a) < key(b), and a == b implies
/// key(a) == key(b). Negative doubles flip every bit (a larger magnitude
/// gets a smaller key); the rest set the sign bit, so they sort above.
uint64_t OrderKey(double x) {
  if (x == 0.0) x = 0.0;  // -0.0 == +0.0, so they share +0.0's key.
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

/// The sorted-order index both selects return, min(count - 1,
/// floor(q * count)), after their shared argument checks.
genbase::Result<int64_t> QuantileRank(int64_t count, double q) {
  if (count <= 0) {
    return genbase::Status::InvalidArgument("quantile of empty set");
  }
  if (!(q >= 0.0 && q <= 1.0)) {
    return genbase::Status::InvalidArgument("quantile q out of [0,1]");
  }
  return std::min<int64_t>(
      count - 1, static_cast<int64_t>(q * static_cast<double>(count)));
}

}  // namespace

genbase::Result<double> Quantile(const std::vector<double>& values,
                                 double q) {
  return Quantile(values.data(), static_cast<int64_t>(values.size()), q);
}

genbase::Result<double> Quantile(const double* values, int64_t count,
                                 double q, MemoryTracker* tracker) {
  GENBASE_ASSIGN_OR_RETURN(const int64_t rank, QuantileRank(count, q));
  GENBASE_ASSIGN_OR_RETURN(
      ScopedReservation reservation,
      ScopedReservation::Acquire(
          tracker, count * static_cast<int64_t>(sizeof(double))));
  std::vector<double> copy(values, values + count);
  std::nth_element(copy.begin(), copy.begin() + rank, copy.end());
  return copy[static_cast<size_t>(rank)];
}

int64_t QuantileBuckets(int64_t count) {
  return int64_t{1} << BucketBits(count);
}

void PartitionForQuantile(const double* values, int64_t count,
                          double* partitioned, int64_t* bucket_ends) {
  const int shift = 64 - BucketBits(count);
  const int64_t buckets = QuantileBuckets(count);
  std::fill_n(bucket_ends, buckets, 0);
  for (int64_t i = 0; i < count; ++i) {
    ++bucket_ends[OrderKey(values[i]) >> shift];
  }
  // Sizes -> starts; the scatter then advances each start to its end.
  int64_t start = 0;
  for (int64_t b = 0; b < buckets; ++b) {
    const int64_t size = bucket_ends[b];
    bucket_ends[b] = start;
    start += size;
  }
  for (int64_t i = 0; i < count; ++i) {
    partitioned[bucket_ends[OrderKey(values[i]) >> shift]++] = values[i];
  }
}

genbase::Result<double> PartitionedQuantile(const double* partitioned,
                                            const int64_t* bucket_ends,
                                            int64_t count, double q,
                                            double* scratch) {
  GENBASE_ASSIGN_OR_RETURN(const int64_t rank, QuantileRank(count, q));
  // The first bucket ending past `rank` holds it, and the buckets around it
  // hold only values <= (before) or >= (after) its own.
  const int64_t* end = std::upper_bound(
      bucket_ends, bucket_ends + QuantileBuckets(count), rank);
  const int64_t lo = end == bucket_ends ? 0 : end[-1];
  const int64_t size = *end - lo;
  std::copy_n(partitioned + lo, size, scratch);
  std::nth_element(scratch, scratch + (rank - lo), scratch + size);
  return scratch[rank - lo];
}

}  // namespace genbase::stats
