#ifndef PERFBENCH_LATENCY_H_
#define PERFBENCH_LATENCY_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// \brief Bounded latency record over integer nanoseconds: exact below
/// 1024 ns, then 512 linear sub-buckets per power of two (each bucket at
/// most 0.2% wide), up to ~36 minutes. Memory stays at ~135 KB however many
/// samples arrive, which is what lets the serving workloads record every op
/// at a million ops per second. Not thread-safe: one record per thread,
/// merged after the run.
class LatencyRecord {
 public:
  LatencyRecord();

  void AddNs(int64_t ns);
  void AddSeconds(double s) { AddNs(static_cast<int64_t>(s * 1e9)); }
  void Merge(const LatencyRecord& other);

  int64_t count() const { return count_; }

  /// Value at quantile q in [0, 1], in seconds; 0 when empty. The samples
  /// in a bucket are taken as evenly spread across it, so the estimate is
  /// continuous and within one bucket width of the exact order statistic.
  double Quantile(double q) const;

 private:
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
};

/// Quantile of a small sample by linear interpolation between order
/// statistics (the "inclusive" method); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// num / den, 0 when den is 0 (a layer that saw no work).
double Ratio(double num, double den);

}  // namespace perfbench

#endif  // PERFBENCH_LATENCY_H_
