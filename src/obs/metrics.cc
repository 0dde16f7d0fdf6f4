#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace genbase::obs {

namespace {

// 1us floor; ~5% geometric growth; kHistogramBuckets reach past 1000 s
// (ceil(log(1000 / 1e-6) / log(1.05)) == 426).
constexpr double kMinTracked = 1e-6;
constexpr double kGrowth = 1.05;
const double kLogGrowth = std::log(kGrowth);

double BucketValue(int bucket) {
  if (bucket == 0) return kMinTracked;
  // Geometric midpoint of [min * g^(b-1), min * g^b).
  return kMinTracked * std::pow(kGrowth, bucket - 0.5);
}

void AtomicAddDouble(std::atomic<double>* a, double d) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void AtomicMinDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v < cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v > cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AppendEscapedValue(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

std::string FormatDouble(double v) {
  char buf[40];
  if (!std::isfinite(v)) return "null";
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

}  // namespace

int HistogramBucket(double seconds) {
  if (!(seconds > kMinTracked)) return 0;
  // Clamp while still a double: float→int conversion of an out-of-range
  // value (inf, or anything past INT_MAX) is UB, so the comparison must
  // happen before the cast. The negated form also routes NaN to the cap.
  const double b =
      std::floor(std::log(seconds / kMinTracked) / kLogGrowth) + 1.0;
  if (!(b < kHistogramBuckets - 1)) return kHistogramBuckets - 1;
  return std::max(1, static_cast<int>(b));
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the quantile observation (1-based, nearest-rank method).
  const int64_t rank =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * count)));
  // The extreme ranks are tracked exactly; everything in between resolves
  // to its bucket's representative value.
  if (rank >= count) return max;
  if (rank <= 1) return min;
  int64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      return std::clamp(BucketValue(static_cast<int>(i)), min, max);
    }
  }
  return max;
}

Histogram::Histogram() : buckets_(kHistogramBuckets) {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

void Histogram::Observe(double seconds) {
  if (seconds < 0 || !std::isfinite(seconds)) seconds = 0.0;
  buckets_[static_cast<size_t>(HistogramBucket(seconds))].fetch_add(
      1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, seconds);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Extremes start at +/-inf so concurrent first observations need no
  // seeding handshake; Snapshot maps the empty state back to 0.
  AtomicMinDouble(&min_, seconds);
  AtomicMaxDouble(&max_, seconds);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.buckets.resize(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    s.count += s.buckets[i];
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = s.count == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  s.max = s.count == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
  return s;
}

std::string MetricKey(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  key.push_back('{');
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key.push_back(',');
    key.append(sorted[i].first).append("=\"");
    AppendEscapedValue(&key, sorted[i].second);
    key.push_back('"');
  }
  key.push_back('}');
  return key;
}

MetricsRegistry& MetricsRegistry::Global() {
  // lint:allow(raw-new-delete): leaked process singleton — instrument pointers are handed out for the process lifetime
  static auto* registry = new MetricsRegistry();
  return *registry;
}

std::string MetricsRegistry::NextInstanceId(const char* prefix) {
  static std::atomic<uint64_t> seq{0};
  return std::string(prefix) +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

MetricsRegistry::Instrument* MetricsRegistry::GetOrCreate(
    const std::string& name, const Labels& labels, MetricSample::Kind kind) {
  const std::string key = MetricKey(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = instruments_.find(key);
  if (it == instruments_.end()) {
    Instrument inst;
    inst.kind = kind;
    inst.labels = labels;
    std::sort(inst.labels.begin(), inst.labels.end());
    switch (kind) {
      case MetricSample::Kind::kCounter:
        inst.counter = std::make_unique<Counter>();
        break;
      case MetricSample::Kind::kGauge:
        inst.gauge = std::make_unique<Gauge>();
        break;
      case MetricSample::Kind::kHistogram:
        inst.histogram = std::make_unique<Histogram>();
        break;
    }
    it = instruments_.emplace(key, std::move(inst)).first;
  }
  return &it->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  Instrument* inst = GetOrCreate(name, labels, MetricSample::Kind::kCounter);
  if (inst->counter == nullptr) {
    // Kind clash with an existing gauge/histogram of the same key: hand back
    // a private instrument (never exported) instead of corrupting the
    // registered one. This is a programming error surfaced by the missing
    // series, not a crash.
    // lint:allow(raw-new-delete): deliberately leaked never-exported fallback for kind clashes
    static auto* orphan = new Counter();
    return orphan;
  }
  return inst->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels) {
  Instrument* inst = GetOrCreate(name, labels, MetricSample::Kind::kGauge);
  if (inst->gauge == nullptr) {
    // lint:allow(raw-new-delete): deliberately leaked never-exported fallback for kind clashes
    static auto* orphan = new Gauge();
    return orphan;
  }
  return inst->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels) {
  Instrument* inst =
      GetOrCreate(name, labels, MetricSample::Kind::kHistogram);
  if (inst->histogram == nullptr) {
    // lint:allow(raw-new-delete): deliberately leaked never-exported fallback for kind clashes
    static auto* orphan = new Histogram();
    return orphan;
  }
  return inst->histogram.get();
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(instruments_.size());
  for (const auto& [key, inst] : instruments_) {
    MetricSample s;
    // Recover the bare name from the canonical key.
    const size_t brace = key.find('{');
    s.name = brace == std::string::npos ? key : key.substr(0, brace);
    s.labels = inst.labels;
    s.kind = inst.kind;
    switch (inst.kind) {
      case MetricSample::Kind::kCounter:
        s.value = static_cast<double>(inst.counter->Value());
        break;
      case MetricSample::Kind::kGauge:
        s.value = inst.gauge->Value();
        break;
      case MetricSample::Kind::kHistogram:
        s.hist = inst.histogram->Snapshot();
        s.value = static_cast<double>(s.hist.count);
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string MetricsRegistry::PrometheusText() const {
  const std::vector<MetricSample> samples = Snapshot();
  std::string out;
  out.reserve(4096);
  std::string last_name;
  for (const MetricSample& s : samples) {
    const std::string key = MetricKey(s.name, s.labels);
    if (s.name != last_name) {
      out.append("# TYPE ").append(s.name).append(" ");
      out.append(s.kind == MetricSample::Kind::kCounter   ? "counter"
                 : s.kind == MetricSample::Kind::kGauge ? "gauge"
                                                          : "summary");
      out.push_back('\n');
      last_name = s.name;
    }
    if (s.kind == MetricSample::Kind::kHistogram) {
      for (double q : {0.5, 0.9, 0.99}) {
        Labels with_q = s.labels;
        with_q.emplace_back("quantile", FormatDouble(q));
        out.append(MetricKey(s.name, with_q))
            .append(" ")
            .append(FormatDouble(s.hist.Quantile(q)))
            .push_back('\n');
      }
      out.append(MetricKey(s.name + "_count", s.labels))
          .append(" ")
          .append(FormatDouble(static_cast<double>(s.hist.count)))
          .push_back('\n');
      out.append(MetricKey(s.name + "_sum", s.labels))
          .append(" ")
          .append(FormatDouble(s.hist.sum))
          .push_back('\n');
    } else {
      out.append(key).append(" ").append(FormatDouble(s.value)).push_back(
          '\n');
    }
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  const std::vector<MetricSample> samples = Snapshot();
  std::string counters, gauges, histograms;
  for (const MetricSample& s : samples) {
    const std::string key = MetricKey(s.name, s.labels);
    std::string entry = "\"";
    AppendEscapedValue(&entry, key);
    entry.append("\":");
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        if (!counters.empty()) counters.push_back(',');
        counters.append(entry).append(FormatDouble(s.value));
        break;
      case MetricSample::Kind::kGauge:
        if (!gauges.empty()) gauges.push_back(',');
        gauges.append(entry).append(FormatDouble(s.value));
        break;
      case MetricSample::Kind::kHistogram: {
        if (!histograms.empty()) histograms.push_back(',');
        entry.append("{\"count\":")
            .append(FormatDouble(static_cast<double>(s.hist.count)))
            .append(",\"sum_s\":")
            .append(FormatDouble(s.hist.sum))
            .append(",\"min_s\":")
            .append(FormatDouble(s.hist.min))
            .append(",\"max_s\":")
            .append(FormatDouble(s.hist.max))
            .append(",\"p50_s\":")
            .append(FormatDouble(s.hist.Quantile(0.5)))
            .append(",\"p99_s\":")
            .append(FormatDouble(s.hist.Quantile(0.99)))
            .append("}");
        histograms.append(entry);
        break;
      }
    }
  }
  std::string out = "{\"counters\":{";
  out.append(counters).append("},\"gauges\":{").append(gauges);
  out.append("},\"histograms\":{").append(histograms).append("}}");
  return out;
}

}  // namespace genbase::obs
