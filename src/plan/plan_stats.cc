#include "plan/plan_stats.h"

#include "obs/metrics.h"

namespace genbase::plan {

PlanMetrics& PlanMetrics::Get() {
  static PlanMetrics metrics = [] {
    auto& reg = obs::MetricsRegistry::Global();
    PlanMetrics m;
    m.compiles = reg.GetCounter("plan_compiles_total");
    m.cache_hits = reg.GetCounter("plan_cache_hits_total");
    m.executes = reg.GetCounter("plan_executes_total");
    m.compile_ns = reg.GetCounter("plan_compile_ns_total");
    m.peak_mismatches = reg.GetCounter("plan_peak_mismatch_total");
    m.peak_bytes = reg.GetGauge("plan_peak_bytes");
    // No plan value shares bytes with another (MemoryLayout), so nothing is
    // reused and this reads 0; it stays registered because perfbench reads
    // plan.reused_bytes by instrument name.
    reg.GetCounter("plan_reused_bytes_total");
    return m;
  }();
  return metrics;
}

PlanStatsSnapshot PlanStatsSnapshot::Capture() {
  const PlanMetrics& m = PlanMetrics::Get();
  PlanStatsSnapshot s;
  s.compiles = m.compiles->Value();
  s.cache_hits = m.cache_hits->Value();
  s.executes = m.executes->Value();
  s.compile_ns = m.compile_ns->Value();
  s.peak_mismatches = m.peak_mismatches->Value();
  s.peak_bytes = m.peak_bytes->Value();
  return s;
}

PlanStatsSnapshot PlanStatsSnapshot::operator-(
    const PlanStatsSnapshot& rhs) const {
  PlanStatsSnapshot d = *this;
  d.compiles -= rhs.compiles;
  d.cache_hits -= rhs.cache_hits;
  d.executes -= rhs.executes;
  d.compile_ns -= rhs.compile_ns;
  d.peak_mismatches -= rhs.peak_mismatches;
  return d;
}

}  // namespace genbase::plan
