#ifndef GENBASE_WORKLOAD_LATENCY_HISTOGRAM_H_
#define GENBASE_WORKLOAD_LATENCY_HISTOGRAM_H_

#include <cstdint>

#include "obs/metrics.h"

namespace genbase::workload {

/// \brief Log-bucketed latency histogram, HdrHistogram-style but sized for
/// this benchmark: obs::HistogramBucket's geometry (~5% buckets from 1
/// microsecond to beyond the per-op timeout), so any recorded latency is
/// resolved to within one bucket width (<= 5% relative error) at O(1)
/// record cost and a few KB of memory. Values outside the tracked range
/// clamp to the edge buckets (exact min/max/sum are kept separately and
/// stay exact).
///
/// Not internally synchronized: each workload client records into its own
/// histogram and the runner merges them after the measured phase.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Record(double seconds);
  void Merge(const LatencyHistogram& other);
  void Reset();

  int64_t count() const { return hist_.count; }
  double sum() const { return hist_.sum; }
  double min() const { return hist_.min; }  ///< 0 when empty.
  double max() const { return hist_.max; }  ///< 0 when empty.
  double mean() const { return hist_.mean(); }

  /// Latency at quantile `q` in [0, 1]: the representative value (geometric
  /// bucket midpoint) of the bucket containing the q-th quantile observation
  /// (nearest-rank). Defined for every input, never UB: 0 when empty,
  /// exactly min() at q = 0, exactly max() at q = 1, and out-of-range q
  /// clamps to [0, 1].
  double Quantile(double q) const { return hist_.Quantile(q); }

  /// Quantile on the percent scale: Percentile(p) == Quantile(p / 100).
  double Percentile(double p) const { return Quantile(p / 100.0); }

 private:
  obs::HistogramSnapshot hist_;
};

}  // namespace genbase::workload

#endif  // GENBASE_WORKLOAD_LATENCY_HISTOGRAM_H_
