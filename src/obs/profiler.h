#ifndef GENBASE_OBS_PROFILER_H_
#define GENBASE_OBS_PROFILER_H_

#include <cstdint>
#include <optional>
#include <string_view>

#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace genbase::obs {

class MetricsWindow;

/// \brief Process-global resource-profiling switch. When enabled, the
/// request path additionally captures per-stage thread-CPU time
/// (CLOCK_THREAD_CPUTIME_ID next to every stage's wall clock), per-request
/// allocation deltas, periodic RSS samples, and hardware-counter deltas
/// around the execute stage. When disabled — the default — every capture
/// point is a single relaxed atomic load and a branch, so the serving hot
/// path pays nothing (fig7 gates the enabled cost at < 3% throughput).
///
/// Enabled by the `--profile=` flag on the figure benches or the
/// GENBASE_PROFILE environment variable (any non-empty value but "0").
class Profiler {
 public:
  static bool Enabled();
  static void SetEnabled(bool enabled);
};

/// --- process memory ----------------------------------------------------------

/// Resident set size from /proc/self/statm, in bytes; -1 where unavailable
/// (non-Linux). One small pread — microseconds, safe to sample every few
/// requests.
int64_t ReadRssBytes();

/// Samples RSS into the registry gauges `process_rss_bytes` (last sample)
/// and `process_peak_rss_bytes` (high-water mark across samples). No-op when
/// RSS is unavailable. Returns the sampled value for callers that want it.
int64_t SampleProcessRss();

/// --- execute-stage hardware counters -----------------------------------------

/// Hardware-counter totals the execute stage accumulated inside `window`
/// (summed across client threads), rebuilt from the six
/// `execute_perf_*_total` registry counters ScopedExecutePerf adds to.
/// `*scopes` receives the number of scopes that contributed a valid
/// reading; the reading is valid only when that is nonzero — zero means
/// counters were unavailable and the derived rates are meaningless
/// (exported as null).
PerfReading ExecutePerf(const MetricsWindow& window, int64_t* scopes);

/// \brief RAII hardware-counter scope for the execute stage: reads the
/// calling thread's counter group on entry and exit, and adds the delta to
/// the `execute_perf_*_total` registry counters. Inert (one atomic load)
/// when profiling is disabled, and silently contributes nothing when
/// counters are unavailable — degradation, never failure.
class ScopedExecutePerf {
 public:
  ScopedExecutePerf();
  ~ScopedExecutePerf();

  ScopedExecutePerf(const ScopedExecutePerf&) = delete;
  ScopedExecutePerf& operator=(const ScopedExecutePerf&) = delete;

 private:
  bool active_ = false;
  PerfReading begin_;
};

/// --- request stages ----------------------------------------------------------

/// \brief RAII scope of one request stage: opens the span named
/// RequestStageName(stage) and, when profiling is on, adds the thread-CPU
/// seconds spent inside it to `stages->cpu`. The execute stage also reads
/// the hardware counters (ScopedExecutePerf) and bridges the cell's phase
/// split under its span (EmitPhases). The stage's wall seconds stay with
/// the caller, since each stage defines its own (see RequestStage).
class StageScope {
 public:
  StageScope(RequestStage stage, StageSeconds* stages);
  ~StageScope();

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  bool active() const { return span_.active(); }
  void SetDetail(std::string_view d) { span_.SetDetail(d); }

  /// Bridges the served cell's PhaseClock sums (`dm_s` includes glue, as
  /// the cell reports it) under the span as three child spans —
  /// data_management (without glue), analytics, glue — laid end to end
  /// from the span's start. The clock records phase *sums*, not intervals,
  /// so the children are an attribution view (their order is synthetic),
  /// but their widths are the paper's Figure 2/4 split for exactly this op.
  /// A zero-width phase is still emitted, so every bridged span has the
  /// same three children. No-op when the trace is unsampled.
  void EmitPhases(double dm_s, double analytics_s, double glue_s);

 private:
  ScopedSpan span_;
  std::optional<ScopedExecutePerf> perf_;
  double* cpu_s_;
  double cpu_begin_ = -1.0;  ///< Negative when profiling is off.
};

}  // namespace genbase::obs

#endif  // GENBASE_OBS_PROFILER_H_
