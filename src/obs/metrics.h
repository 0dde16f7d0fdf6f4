#ifndef GENBASE_OBS_METRICS_H_
#define GENBASE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace genbase::obs {

/// \brief Label set of one metric instrument, e.g.
/// {{"instance","s3"},{"shard","0"}}. Canonicalized (sorted by key) at
/// registration, so label order never creates duplicate instruments.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// \brief Monotonic counter. Inc is a relaxed atomic add — safe from any
/// thread, cheap enough for per-operation hot paths. Components that need a
/// consistent multi-counter snapshot update their counters under the same
/// lock that guards the structure the counters describe (the mutex then
/// orders the relaxed writes for any reader holding it); the registry itself
/// never requires that.
class Counter {
 public:
  void Inc(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Settable gauge over a double (covers integral gauges too). Add and
/// SetMax are CAS loops — contention on a gauge is operation-granular here,
/// never a spin risk.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  /// Keeps the high-water mark: value = max(value, v).
  void SetMax(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Number of log buckets in every latency histogram (Histogram and
/// workload::LatencyHistogram): a 1us floor, ~5% geometric growth, and a
/// range past 1000 s, so any value resolves to within one bucket width.
inline constexpr int kHistogramBuckets = 427;

/// Bucket of `seconds` in that geometry. Values outside the range (NaN and
/// +/-inf included) clamp to the edge buckets.
int HistogramBucket(double seconds);

/// \brief Read-only copy of a histogram's state, safe to use after the
/// source instrument keeps moving.
struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when empty.
  double max = 0.0;  ///< 0 when empty.
  std::vector<int64_t> buckets;

  double mean() const { return count == 0 ? 0.0 : sum / count; }
  /// Value at quantile q in [0, 1]: the representative value (geometric
  /// bucket midpoint) of the bucket holding the q-th observation
  /// (nearest-rank), clamped to [min, max]. Defined for every q (empty ->
  /// 0, q <= 0 -> min, q >= 1 -> max, out-of-range clamps).
  double Quantile(double q) const;
};

/// \brief Log-bucketed concurrent histogram (HistogramBucket geometry, with
/// atomic buckets so many threads can Observe without coordination).
/// min/max/sum are tracked atomically and stay exact; Observe is a handful
/// of relaxed atomic ops.
class Histogram {
 public:
  Histogram();
  void Observe(double seconds);
  HistogramSnapshot Snapshot() const;

 private:
  std::vector<std::atomic<int64_t>> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  /// +/-inf sentinels let concurrent first observations race safely;
  /// Snapshot maps the empty state back to 0.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// \brief One exported metric value (see MetricsRegistry::Snapshot).
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Labels labels;
  Kind kind = Kind::kCounter;
  double value = 0.0;       ///< Counters and gauges.
  HistogramSnapshot hist;   ///< Histograms only.
};

/// \brief Process-global metrics registry: named counters, gauges and
/// histograms with label sets. Instruments are registered once (mutex) and
/// then updated lock-free through stable pointers — the intended pattern is
/// "resolve handles in a component's constructor, Inc/Set on the hot path".
/// Instruments are never removed: a metric is a process-lifetime time
/// series, and components that come and go (one serving stack per bench
/// cell) distinguish themselves with an `instance` label
/// (NextInstanceId).
///
/// Exports: Snapshot() for programmatic access, PrometheusText() for the
/// text exposition format, ToJson() for METRICS_*.json artifacts.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Returns the instrument registered under (name, labels), creating it on
  /// first use. The returned pointer is stable for the process lifetime.
  /// Same (name, canonicalized labels) always returns the same instrument;
  /// one name must keep one kind (enforced by check-fail in debug spirit:
  /// a kind clash returns a fresh unexported instrument rather than UB).
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {});

  /// All instruments, sorted by (name, labels) — deterministic export order.
  std::vector<MetricSample> Snapshot() const;

  /// Prometheus text exposition format (counters/gauges; histograms as
  /// summary quantiles plus _count/_sum).
  std::string PrometheusText() const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}
  /// keyed by "name{k=\"v\",...}".
  std::string ToJson() const;

  /// "prefixN" with a process-unique N — the instance label components use
  /// to keep their instruments apart.
  static std::string NextInstanceId(const char* prefix);

 private:
  struct Instrument {
    MetricSample::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    Labels labels;
  };

  Instrument* GetOrCreate(const std::string& name, const Labels& labels,
                          MetricSample::Kind kind);

  mutable std::mutex mu_;
  /// Keyed by "name{k=\"v\",...}" (canonical labels), values stable because
  /// instruments are heap-allocated and never erased.
  std::map<std::string, Instrument> instruments_;
};

/// Canonical instrument key: name + sorted labels rendered as
/// `name{k="v",k2="v2"}` (bare name when label-free). Shared by the
/// registry and its exporters so tests can address instruments by key.
std::string MetricKey(const std::string& name, const Labels& labels);

}  // namespace genbase::obs

#endif  // GENBASE_OBS_METRICS_H_
