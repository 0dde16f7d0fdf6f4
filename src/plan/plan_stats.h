#ifndef GENBASE_PLAN_PLAN_STATS_H_
#define GENBASE_PLAN_PLAN_STATS_H_

namespace genbase::obs {
class Counter;
class Gauge;
}  // namespace genbase::obs

namespace genbase::plan {

/// \brief Process-wide plan metrics, registered once in the global
/// MetricsRegistry so they ride along in METRICS_* snapshots and the
/// workload report's --json output (which reads them by name through an
/// obs::MetricsWindow — call Get() before opening one so they exist).
struct PlanMetrics {
  obs::Counter* compiles;        ///< plan_compiles_total
  obs::Counter* cache_hits;      ///< plan_cache_hits_total
  obs::Counter* executes;        ///< plan_executes_total
  obs::Counter* compile_ns;      ///< plan_compile_ns_total
  obs::Counter* peak_mismatches; ///< plan_peak_mismatch_total (guard hits)
  obs::Gauge* peak_bytes;        ///< plan_peak_bytes (largest region laid out)

  static PlanMetrics& Get();
};

}  // namespace genbase::plan

#endif  // GENBASE_PLAN_PLAN_STATS_H_
