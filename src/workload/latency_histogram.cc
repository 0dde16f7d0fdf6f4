#include "workload/latency_histogram.h"

#include <algorithm>
#include <cmath>

namespace genbase::workload {

LatencyHistogram::LatencyHistogram() { Reset(); }

void LatencyHistogram::Record(double seconds) {
  if (seconds < 0 || !std::isfinite(seconds)) seconds = 0.0;
  ++hist_.buckets[static_cast<size_t>(obs::HistogramBucket(seconds))];
  if (hist_.count == 0) {
    hist_.min = hist_.max = seconds;
  } else {
    hist_.min = std::min(hist_.min, seconds);
    hist_.max = std::max(hist_.max, seconds);
  }
  ++hist_.count;
  hist_.sum += seconds;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  const obs::HistogramSnapshot& o = other.hist_;
  if (o.count == 0) return;
  for (size_t i = 0; i < hist_.buckets.size(); ++i) {
    hist_.buckets[i] += o.buckets[i];
  }
  if (hist_.count == 0) {
    hist_.min = o.min;
    hist_.max = o.max;
  } else {
    hist_.min = std::min(hist_.min, o.min);
    hist_.max = std::max(hist_.max, o.max);
  }
  hist_.count += o.count;
  hist_.sum += o.sum;
}

void LatencyHistogram::Reset() {
  hist_ = obs::HistogramSnapshot();
  hist_.buckets.assign(obs::kHistogramBuckets, 0);
}

}  // namespace genbase::workload
