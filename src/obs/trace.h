#ifndef GENBASE_OBS_TRACE_H_
#define GENBASE_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace genbase::obs {

/// \brief The stages a served request passes through, in path order. Used
/// both as span names and as indices into StageSeconds / per-stage
/// histograms, so the trace view and the aggregate view always agree on
/// what a "stage" is.
enum class RequestStage {
  kQueue = 0,     ///< Admission queue wait (miss path only).
  kCache,         ///< Result-cache lookup.
  kFlight,        ///< Single-flight wait behind another request's miss.
  kDispatch,      ///< Shard acquire + modeled network/glue time.
  kExecute,       ///< Engine execution on the shard.
  kVerify,        ///< Result verification against shared truth.
  kNumRequestStages,
};

inline constexpr int kNumRequestStages =
    static_cast<int>(RequestStage::kNumRequestStages);

const char* RequestStageName(RequestStage stage);

/// \brief Seconds spent in each stage of one request. The stack fills this
/// for every request (sampled or not — six doubles), so per-stage
/// histograms stay exact while traces stay sampled. queue + flight is the
/// request's queueing delay (Queued()); the serving stack keeps cache +
/// dispatch + execute == cell.total_s; verify is added by the runner.
///
/// When the resource profiler is enabled (see obs/profiler.h), `cpu` holds
/// the thread-CPU seconds (CLOCK_THREAD_CPUTIME_ID) spent inside each
/// stage's wall window, clamped per stage to cpu <= wall. Blocking stages
/// (queue, flight) burn near-zero CPU while their wall time grows under
/// overload; modeled network time in dispatch contributes no CPU at all.
/// All zeros when profiling is off.
struct StageSeconds {
  double s[kNumRequestStages] = {0, 0, 0, 0, 0, 0};
  double cpu[kNumRequestStages] = {0, 0, 0, 0, 0, 0};

  double& operator[](RequestStage stage) { return s[static_cast<int>(stage)]; }
  double operator[](RequestStage stage) const {
    return s[static_cast<int>(stage)];
  }
  double& Cpu(RequestStage stage) { return cpu[static_cast<int>(stage)]; }
  double Cpu(RequestStage stage) const {
    return cpu[static_cast<int>(stage)];
  }
  /// Seconds spent waiting: admission queue plus single-flight wait.
  double Queued() const {
    return (*this)[RequestStage::kQueue] + (*this)[RequestStage::kFlight];
  }
  double Sum() const {
    double t = 0;
    for (double v : s) t += v;
    return t;
  }
  double CpuSum() const {
    double t = 0;
    for (double v : cpu) t += v;
    return t;
  }
};

/// \brief One completed span. POD so it can live in the lock-free rings:
/// `name` must point at a string with static storage duration (stage names,
/// literals), free-form context goes into the inline `detail` buffer.
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 for the root span.
  const char* name = "";
  double start_s = 0.0;  ///< Seconds since the tracer's process anchor.
  double dur_s = 0.0;
  uint32_t tid = 0;       ///< Small per-thread ordinal, not the OS tid.
  bool synthetic = false; ///< Tail-kept span rebuilt from StageSeconds.
  char detail[40] = {0};

  void SetDetail(std::string_view d) {
    const size_t n = d.size() < sizeof(detail) - 1 ? d.size()
                                                   : sizeof(detail) - 1;
    // A default string_view has a null data(); memcpy forbids null even
    // with a zero count.
    if (n > 0) std::memcpy(detail, d.data(), n);
    detail[n] = '\0';
  }
};

/// \brief One line of the JSONL slow-query log: every tail-kept request
/// (shed / stale tripwire / deadline miss / verify failure / slowest-N)
/// gets one, whether or not it was head-sampled.
struct SlowQueryRecord {
  uint64_t trace_id = 0;
  std::string workload;
  std::string query;
  int variant = 0;
  int class_id = 0;
  double start_s = 0.0;    ///< Tracer-anchor seconds of arrival.
  double latency_s = 0.0;  ///< Coordinated-omission-corrected end-to-end.
  StageSeconds stages;
  /// MemoryTracker reservation activity during the request window (bytes,
  /// monotone reserved-total delta); -1 when unknown / profiling disabled.
  int64_t alloc_delta_bytes = -1;
  bool shed = false;
  bool stale_tripwire = false;
  bool deadline_missed = false;
  bool verify_failed = false;
  int retries = 0;       ///< Extra execute attempts (fault-tolerance path).
  bool slowest = false;  ///< Kept because it was in the slowest-N set.
};

/// Deterministic trace id for the `index`-th scheduled op of a workload:
/// a pure function of (seed, workload name, index) so reruns — and the
/// sampling decisions derived from the id — are reproducible.
uint64_t RequestTraceId(uint64_t seed, std::string_view workload,
                        uint64_t index);

/// Head-sampling decision: hashes the trace id into [0,1) and compares
/// against `rate`. Pure, so every thread agrees without coordination.
bool TraceSampled(uint64_t trace_id, double rate);

/// \brief Process-global trace collector. Writers append completed spans to
/// lock-free thread-local SPSC rings (acquired from a reuse pool, so
/// short-lived workload threads don't grow memory without bound); the
/// collector drains rings on Collect(). A full ring drops the span and
/// bumps `trace_spans_dropped_total` — the hot path never blocks.
class Tracer {
 public:
  static Tracer& Global();

  /// Sampling rate in [0,1]. Initialized from GENBASE_TRACE_SAMPLE
  /// (default 0.01); benches override it around overhead-gate runs.
  double sample_rate() const {
    return sample_rate_.load(std::memory_order_relaxed);
  }
  void set_sample_rate(double rate);

  /// Monotonic seconds since the tracer singleton was created — the time
  /// base of every Span::start_s.
  double NowSeconds() const;

  /// Appends one completed span to the calling thread's ring. Lock-free;
  /// drops (and counts) instead of blocking when the ring is full.
  void Record(const Span& span);

  /// Drains every thread ring into the internal collected buffer. Called
  /// from one collector thread at a time (the workload runner, between
  /// runs). Returns the number of spans drained.
  size_t Collect();

  /// Collect() then move out everything gathered so far.
  std::vector<Span> TakeCollected();

  void LogSlowQuery(SlowQueryRecord record);
  std::vector<SlowQueryRecord> TakeSlowQueries();

  int64_t spans_recorded() const { return spans_recorded_->Value(); }
  int64_t spans_dropped() const { return spans_dropped_->Value(); }

  /// Small ordinal for the calling thread, stable for the thread lifetime;
  /// used as Span::tid so Chrome trace rows stay compact.
  static uint32_t ThreadOrdinal();

  /// Spans per thread ring. Power of two; at 1% sampling a ring holds
  /// thousands of requests' spans between collects.
  static constexpr size_t kRingCapacity = 2048;

 private:
  struct Ring {
    std::atomic<uint64_t> head{0};  ///< Writer-owned, release on publish.
    std::atomic<uint64_t> tail{0};  ///< Collector-owned.
    std::atomic<bool> in_use{false};
    std::vector<Span> slots{std::vector<Span>(kRingCapacity)};
  };

  Tracer();
  Ring* AcquireRing();
  void DrainRing(Ring* ring);

  std::atomic<double> sample_rate_{0.01};
  std::chrono::steady_clock::time_point anchor_;

  std::mutex rings_mu_;            ///< Guards the ring list, not ring data.
  std::deque<std::unique_ptr<Ring>> rings_;

  std::mutex collect_mu_;
  std::vector<Span> collected_;
  std::vector<SlowQueryRecord> slow_queries_;

  Counter* spans_recorded_;
  Counter* spans_dropped_;

  friend struct TracerTls;
};

/// \brief Installs {trace id, sampling decision} for the current thread for
/// the lifetime of one request; restores the previous context on exit, so
/// traces nest correctly if a request is served from within another.
/// Span creation below this point needs no plumbing — ScopedSpan reads the
/// thread-local context.
class ScopedTrace {
 public:
  ScopedTrace(uint64_t trace_id, bool sampled);
  ~ScopedTrace();

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  uint64_t saved_trace_id_;
  uint64_t saved_parent_;
  uint64_t saved_next_span_id_;
  bool saved_sampled_;
};

/// \brief RAII span: opens on construction, records on destruction.
/// A single branch (and nothing else) when the current trace is unsampled.
/// Nesting: the youngest live ScopedSpan on this thread is the parent of
/// any span opened under it.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }
  uint64_t span_id() const { return span_id_; }
  double start_s() const { return start_s_; }
  void SetDetail(std::string_view d) {
    if (active_) detail_.SetDetail(d);
  }

 private:
  bool active_ = false;
  const char* name_ = "";
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  double start_s_ = 0.0;
  Span detail_;  ///< Only `detail` field used; avoids a second buffer.
};

/// Emits a completed child span of the current innermost span (e.g. the
/// PhaseClock data-management/analytics/glue breakdown bridged under the
/// execute span). No-op when the current trace is unsampled. `start_s` and
/// `dur_s` are in tracer-anchor seconds.
void EmitChildSpan(const char* name, double start_s, double dur_s,
                   std::string_view detail = {});

}  // namespace genbase::obs

#endif  // GENBASE_OBS_TRACE_H_
