#ifndef GENBASE_STATS_QUANTILE_H_
#define GENBASE_STATS_QUANTILE_H_

#include <cstdint>
#include <vector>

#include "common/memory_tracker.h"
#include "common/status.h"

namespace genbase::stats {

/// \brief q-quantile (0 <= q <= 1) of `values` by partial selection
/// (nth_element on a copy): the value at index min(n - 1, floor(q * n)) in
/// sorted order. Rejects an empty set and q outside [0, 1] (NaN included).
/// q = 0.9 gives the paper's Query 2 "top 10% covariance" threshold.
genbase::Result<double> Quantile(const std::vector<double>& values, double q);

/// Span overload; the vector overload forwards here. Selects on a private
/// copy, charged to `tracker` (nullptr = untracked); the input is not
/// reordered.
genbase::Result<double> Quantile(const double* values, int64_t count,
                                 double q, MemoryTracker* tracker = nullptr);

/// \brief Radix buckets PartitionForQuantile uses for `count` values: the
/// smallest power of two >= count, between 2 and 2^14.
int64_t QuantileBuckets(int64_t count);

/// \brief One O(count + buckets) radix pass that prepares repeated quantile
/// selects over the same values. Buckets are the top bits of an
/// order-preserving key (equal values, -0.0 and +0.0 included, share a
/// key), so every value of bucket b compares <= every value of bucket b + 1.
/// Writes the values grouped by bucket, each bucket in input order, to
/// `partitioned` (count doubles), and one past each bucket's last index to
/// `bucket_ends` (QuantileBuckets(count) entries).
void PartitionForQuantile(const double* values, int64_t count,
                          double* partitioned, int64_t* bucket_ends);

/// \brief Quantile over PartitionForQuantile's output: copies only the
/// bucket holding Quantile's sorted-order index into `scratch` (room for
/// count doubles) and selects there. Returns the value Quantile returns on
/// the original values, with the same argument checks.
genbase::Result<double> PartitionedQuantile(const double* partitioned,
                                            const int64_t* bucket_ends,
                                            int64_t count, double q,
                                            double* scratch);

}  // namespace genbase::stats

#endif  // GENBASE_STATS_QUANTILE_H_
