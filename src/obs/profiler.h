#ifndef GENBASE_OBS_PROFILER_H_
#define GENBASE_OBS_PROFILER_H_

#include <cstdint>

#include "obs/perf_counters.h"

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

  /// Thread-CPU clock reading for stage attribution: seconds on
  /// CLOCK_THREAD_CPUTIME_ID, or a negative sentinel when profiling is
  /// disabled (CpuDelta then reports 0 — callers never branch themselves).
  static double CpuBegin();
  static double CpuDelta(double begin);
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

}  // namespace genbase::obs

#endif  // GENBASE_OBS_PROFILER_H_
