#ifndef GENBASE_PLAN_PLAN_STATS_H_
#define GENBASE_PLAN_PLAN_STATS_H_

#include <cstdint>

namespace genbase::obs {
class Counter;
class Gauge;
}  // namespace genbase::obs

namespace genbase::plan {

/// \brief Process-wide plan metrics, registered once in the global
/// MetricsRegistry so they ride along in METRICS_* snapshots and the
/// workload report's --json output.
struct PlanMetrics {
  obs::Counter* compiles;        ///< plan_compiles_total
  obs::Counter* cache_hits;      ///< plan_cache_hits_total
  obs::Counter* executes;        ///< plan_executes_total
  obs::Counter* compile_ns;      ///< plan_compile_ns_total
  obs::Counter* peak_mismatches; ///< plan_peak_mismatch_total (guard hits)
  obs::Gauge* peak_bytes;        ///< plan_peak_bytes (largest region laid out)

  static PlanMetrics& Get();
};

/// \brief Point-in-time copy of the plan metrics; the workload runner
/// snapshots at measure-start and reports the delta, same as the serving
/// counters.
struct PlanStatsSnapshot {
  int64_t compiles = 0;
  int64_t cache_hits = 0;
  int64_t executes = 0;
  int64_t compile_ns = 0;
  int64_t peak_mismatches = 0;
  double peak_bytes = 0.0;

  static PlanStatsSnapshot Capture();

  /// Counter fields subtract; gauges keep the left-hand (current) value —
  /// a high-water mark has no meaningful delta.
  PlanStatsSnapshot operator-(const PlanStatsSnapshot& rhs) const;
};

}  // namespace genbase::plan

#endif  // GENBASE_PLAN_PLAN_STATS_H_
