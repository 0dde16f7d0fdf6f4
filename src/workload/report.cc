#include "workload/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/json.h"
#include "obs/profiler.h"
#include "serving/faults.h"
#include "serving/shard_router.h"

namespace genbase::workload {

namespace {

/// Injected faults (of `labels`' kind) in `counters`; 0 when the stack ran
/// without an injector, which leaves the instrument out of the window.
double Injected(const obs::MetricsWindow& counters, const obs::Labels& labels) {
  return counters.Has("serving_fault_injected_total")
             ? counters.Change("serving_fault_injected_total", labels)
             : 0.0;
}

/// --- counter blocks, shared by Print and ToJson ---------------------------

/// How a counter-block value reads its instrument: the change over the
/// measured phase (counters, and gauges that accumulate) or the level at
/// its end (gauges, high-water marks).
enum class Read { kChange, kEnd };

/// One value of a counter block: its JSON key and the registry instrument
/// it reads.
struct CounterRow {
  const char* key;
  const char* instrument;
  Read read;
};

constexpr CounterRow kCacheProbeRows[] = {
    {"hits", "serving_cache_hits_total", Read::kChange},
    {"misses", "serving_cache_misses_total", Read::kChange},
};
constexpr CounterRow kCacheRows[] = {
    {"insertions", "serving_cache_insertions_total", Read::kChange},
    {"evictions", "serving_cache_evictions_total", Read::kChange},
    {"invalidated", "serving_cache_invalidated_total", Read::kChange},
    {"rejected_oversize", "serving_cache_rejected_oversize_total",
     Read::kChange},
    {"entries", "serving_cache_entries", Read::kEnd},
    {"bytes", "serving_cache_bytes", Read::kEnd},
};
constexpr CounterRow kAdmissionRows[] = {
    {"admitted", "serving_admission_admitted_total", Read::kChange},
    {"shed_queue_full", "serving_admission_shed_queue_full_total",
     Read::kChange},
    {"shed_timeout", "serving_admission_shed_timeout_total", Read::kChange},
    {"shed_brownout", "serving_admission_shed_brownout_total", Read::kChange},
    {"peak_queue", "serving_admission_peak_queue", Read::kEnd},
    {"current_limit", "serving_admission_limit", Read::kEnd},
};
constexpr CounterRow kFlightRows[] = {
    {"leaders", "serving_flight_leaders_total", Read::kChange},
    {"coalesced", "serving_flight_coalesced_total", Read::kChange},
    {"coalesced_served", "serving_flight_coalesced_served_total",
     Read::kChange},
    {"follower_fallbacks", "serving_flight_follower_fallbacks_total",
     Read::kChange},
    {"shed_wait_timeout", "serving_flight_shed_wait_timeout_total",
     Read::kChange},
};
constexpr CounterRow kRetryRows[] = {
    {"retries", "serving_retries_total", Read::kChange},
    {"retry_successes", "serving_retry_successes_total", Read::kChange},
    {"retry_deadline_giveups", "serving_retry_deadline_giveups_total",
     Read::kChange},
};
constexpr CounterRow kStackRows[] = {
    {"stale_hits", "serving_stack_stale_hits_total", Read::kChange},
    {"reloads", "serving_stack_reloads_total", Read::kChange},
};
/// Read with a {"shard", N} label.
constexpr CounterRow kShardRows[] = {
    {"ops", "serving_shard_ops_total", Read::kChange},
    {"errors", "serving_shard_errors_total", Read::kChange},
    {"infs", "serving_shard_infs_total", Read::kChange},
    {"busy_s", "serving_shard_busy_seconds", Read::kChange},
    {"breaker_opens", "serving_shard_breaker_opens_total", Read::kChange},
};
constexpr CounterRow kPlanRows[] = {
    {"compiles", "plan_compiles_total", Read::kChange},
    {"cache_hits", "plan_cache_hits_total", Read::kChange},
    {"executes", "plan_executes_total", Read::kChange},
    {"compile_ns", "plan_compile_ns_total", Read::kChange},
    {"peak_mismatches", "plan_peak_mismatch_total", Read::kChange},
    {"peak_bytes", "plan_peak_bytes", Read::kEnd},
};
/// serving_fault_injected_total, by its `kind` label.
constexpr std::pair<const char*, serving::FaultKind> kFaultKeys[] = {
    {"crashes", serving::FaultKind::kCrash},
    {"recoveries", serving::FaultKind::kRecover},
    {"latency_spikes", serving::FaultKind::kLatencySpike},
    {"transient_errors", serving::FaultKind::kTransientError},
    {"reload_failures", serving::FaultKind::kReloadFailure},
};

/// serving_admission_shed_total, by its `class` label (a query id).
constexpr const char* kShedByClass = "serving_admission_shed_total";

/// The `shard` label values of the stack's shards.
std::vector<std::string> ShardLabels(const obs::MetricsWindow& counters) {
  return counters.LabelValues("serving_shard_ops_total", "shard");
}

/// serving_shard_health (a ShardHealth level) for one shard's labels.
serving::ShardHealth ShardHealthOf(const obs::MetricsWindow& counters,
                                   const obs::Labels& labels) {
  return static_cast<serving::ShardHealth>(
      static_cast<int>(counters.End("serving_shard_health", labels)));
}

double RowValue(const obs::MetricsWindow& counters, const CounterRow& row,
                const obs::Labels& labels = {}) {
  return row.read == Read::kChange ? counters.Change(row.instrument, labels)
                                   : counters.End(row.instrument, labels);
}

/// Prints " key=value": whole numbers as integers, the rest (seconds,
/// ratios) to three decimals.
void PrintKv(const char* key, double value) {
  std::printf(value == std::trunc(value) ? " %s=%.0f" : " %s=%.3f", key,
              value);
}

template <size_t N>
void PrintRows(const obs::MetricsWindow& counters, const CounterRow (&rows)[N],
               const obs::Labels& labels = {}) {
  for (const CounterRow& row : rows) {
    PrintKv(row.key, RowValue(counters, row, labels));
  }
}

/// Prints `label` and its rows as one line when any of them is nonzero: a
/// layer that saw no traffic prints nothing.
template <size_t N>
void PrintRowsIfAny(const char* label, const obs::MetricsWindow& counters,
                    const CounterRow (&rows)[N]) {
  for (const CounterRow& row : rows) {
    if (RowValue(counters, row) != 0) {
      std::printf("  %s:", label);
      PrintRows(counters, rows);
      std::printf("\n");
      return;
    }
  }
}

}  // namespace

std::string FormatSeconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", s);
  return buf;
}

std::string FormatMillis(double seconds) {
  const double ms = seconds * 1e3;
  char buf[32];
  if (ms < 10) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ms);
  } else if (ms < 100) {
    std::snprintf(buf, sizeof(buf), "%.1fms", ms);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fms", ms);
  }
  return buf;
}

std::string FormatQps(double qps) {
  char buf[32];
  if (qps < 10) {
    std::snprintf(buf, sizeof(buf), "%.2f", qps);
  } else if (qps < 100) {
    std::snprintf(buf, sizeof(buf), "%.1f", qps);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", qps);
  }
  return buf;
}

void PrintGrid(const std::string& title, const std::string& x_label,
               const std::vector<std::string>& x_values,
               const std::vector<std::string>& engines,
               const std::vector<std::vector<std::string>>& cells) {
  std::printf("\n=== %s ===\n", title.c_str());
  // Column widths fit the widest cell (floor 16 keeps the classic figures'
  // layout stable).
  std::vector<int> widths(engines.size(), 16);
  for (size_t e = 0; e < engines.size(); ++e) {
    widths[e] = std::max(widths[e], static_cast<int>(engines[e].size()));
    for (size_t x = 0; x < cells.size(); ++x) {
      widths[e] = std::max(widths[e], static_cast<int>(cells[x][e].size()));
    }
  }
  std::printf("%-28s", (x_label + " \\ system").c_str());
  for (size_t e = 0; e < engines.size(); ++e) {
    std::printf(" %*s", widths[e], engines[e].c_str());
  }
  std::printf("\n");
  for (size_t x = 0; x < x_values.size(); ++x) {
    std::printf("%-28s", x_values[x].c_str());
    for (size_t e = 0; e < engines.size(); ++e) {
      std::printf(" %*s", widths[e], cells[x][e].c_str());
    }
    std::printf("\n");
  }
}

void OpStats::MergeFrom(const OpStats& other) {
  ops += other.ops;
  errors += other.errors;
  infs += other.infs;
  verify_failures += other.verify_failures;
  shed_queue_full += other.shed_queue_full;
  shed_timeout += other.shed_timeout;
  latency.Merge(other.latency);
  queue_delay.Merge(other.queue_delay);
  for (int s = 0; s < obs::kNumRequestStages; ++s) {
    stage[s].Merge(other.stage[s]);
    stage_cpu_s[s] += other.stage_cpu_s[s];
  }
  e2e_latency.Merge(other.e2e_latency);
  dm_s += other.dm_s;
  analytics_s += other.analytics_s;
  glue_s += other.glue_s;
  modeled_s += other.modeled_s;
}

std::string WorkloadReport::Summary() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "%s %s x%d%s (%s): %s qps  p50=%s p95=%s p99=%s  "
      "ops=%lld err=%lld inf=%lld badverify=%lld shed=%lld",
      engine.c_str(), workload_name.c_str(), clients,
      shards > 1 ? ("/s" + std::to_string(shards)).c_str() : "",
      ClientModelName(model), FormatQps(achieved_qps()).c_str(),
      FormatMillis(total.latency.Percentile(50)).c_str(),
      FormatMillis(total.latency.Percentile(95)).c_str(),
      FormatMillis(total.latency.Percentile(99)).c_str(),
      static_cast<long long>(total.ops),
      static_cast<long long>(total.errors),
      static_cast<long long>(total.infs),
      static_cast<long long>(total.verify_failures),
      static_cast<long long>(total.shed()));
  return buf;
}

double WorkloadReport::cache_hit_ratio() const {
  if (!has_serving) return 0.0;
  const double hits = counters.Change("serving_cache_hits_total");
  const double probes = hits + counters.Change("serving_cache_misses_total");
  return probes == 0 ? 0.0 : hits / probes;
}

std::string WorkloadReport::GridCell() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%sqps %s/%s/%s",
                FormatQps(achieved_qps()).c_str(),
                FormatMillis(total.latency.Percentile(50)).c_str(),
                FormatMillis(total.latency.Percentile(95)).c_str(),
                FormatMillis(total.latency.Percentile(99)).c_str());
  return buf;
}

void WorkloadReport::Print() const {
  std::printf("\n--- workload report: %s ---\n", Summary().c_str());
  if (!kernel_backend.empty()) {
    std::printf("  kernel backend: %s\n", kernel_backend.c_str());
  }
  std::printf("  wall=%ss (modeled %ss)  mean=%s  p90=%s  p999=%s  max=%s\n",
              FormatSeconds(wall_seconds).c_str(),
              FormatSeconds(modeled_wall_seconds()).c_str(),
              FormatMillis(total.latency.mean()).c_str(),
              FormatMillis(total.latency.Percentile(90)).c_str(),
              FormatMillis(total.latency.Percentile(99.9)).c_str(),
              FormatMillis(total.latency.max()).c_str());
  if (offered_qps > 0) {
    std::printf("  offered=%s qps vs goodput=%s qps (real clock)  shed=%lld "
                "(queue-full %lld, timeout %lld)\n",
                FormatQps(offered_qps).c_str(),
                FormatQps(real_goodput_qps()).c_str(),
                static_cast<long long>(total.shed()),
                static_cast<long long>(total.shed_queue_full),
                static_cast<long long>(total.shed_timeout));
  }
  // Per-stage attribution (p50/p99 per request stage): where a served op's
  // time went. Stages that never saw time are printed as 0 — the row shape
  // stays greppable across configurations.
  if (total.e2e_latency.count() > 0) {
    std::printf("  stages p50/p99:");
    for (int s = 0; s < obs::kNumRequestStages; ++s) {
      std::printf(" %s=%s/%s",
                  obs::RequestStageName(static_cast<obs::RequestStage>(s)),
                  FormatMillis(total.stage[s].Quantile(0.5)).c_str(),
                  FormatMillis(total.stage[s].Quantile(0.99)).c_str());
    }
    std::printf("  e2e=%s/%s\n",
                FormatMillis(total.e2e_latency.Quantile(0.5)).c_str(),
                FormatMillis(total.e2e_latency.Quantile(0.99)).c_str());
  }
  // Resource attribution (profiled runs only): what fraction of each stage's
  // wall time was on-CPU. Blocking stages read near 0, compute stages near 1;
  // a compute stage drifting down means contention, not work.
  if (profiled && total.e2e_latency.count() > 0) {
    std::printf("  stages cpu/wall:");
    for (int s = 0; s < obs::kNumRequestStages; ++s) {
      if (total.stage[s].sum() > 0) {
        std::printf(" %s=%.2f",
                    obs::RequestStageName(static_cast<obs::RequestStage>(s)),
                    total.stage_cpu_s[s] / total.stage[s].sum());
      } else {
        std::printf(" %s=-",
                    obs::RequestStageName(static_cast<obs::RequestStage>(s)));
      }
    }
    std::printf("\n");
    int64_t scopes = 0;
    const obs::PerfReading perf = obs::ExecutePerf(counters, &scopes);
    if (perf.valid) {
      std::printf("  execute perf: ipc=%.2f cache-miss=%.1f%% "
                  "branch-miss/kinst=%.2f (%lld scopes)\n",
                  perf.ipc(), perf.cache_miss_rate() * 100.0,
                  perf.instructions > 0
                      ? 1e3 * perf.branch_misses /
                            static_cast<double>(perf.instructions)
                      : 0.0,
                  static_cast<long long>(scopes));
    } else if (profiled) {
      std::printf("  execute perf: counters unavailable "
                  "(perf_event_open denied or no PMU)\n");
    }
  }
  // Only worth a line when queueing was actually observed: closed-loop
  // direct-engine runs record all-zero delays by construction.
  if (total.queue_delay.max() > 0) {
    std::printf("  queue delay: mean=%s p50=%s p99=%s max=%s "
                "(part of latency; own clock for honest saturated tails)\n",
                FormatMillis(total.queue_delay.mean()).c_str(),
                FormatMillis(total.queue_delay.Percentile(50)).c_str(),
                FormatMillis(total.queue_delay.Percentile(99)).c_str(),
                FormatMillis(total.queue_delay.max()).c_str());
  }
  // Counter blocks, under their ToJson names. Cache, admission and shards
  // always print with a stack; the other layers only when they saw traffic,
  // so the classic closed-loop figures stay byte-stable.
  if (has_serving) {
    std::printf("  serving cache:");
    PrintRows(counters, kCacheProbeRows);
    PrintKv("hit_ratio", cache_hit_ratio());
    PrintRows(counters, kCacheRows);
    std::printf("\n  serving admission:");
    PrintRows(counters, kAdmissionRows);
    std::printf("\n");
    const std::vector<std::string> classes =
        counters.LabelValues(kShedByClass, "class");
    if (!classes.empty()) {
      std::printf("  serving shed_by_class:");
      for (const std::string& class_id : classes) {
        PrintKv(
            core::QueryName(static_cast<core::QueryId>(std::stoi(class_id))),
            counters.Change(kShedByClass, {{"class", class_id}}));
      }
      std::printf("\n");
    }
    PrintRowsIfAny("serving single_flight", counters, kFlightRows);
    PrintRowsIfAny("serving retry", counters, kRetryRows);
    if (Injected(counters, {}) > 0) {
      std::printf("  serving faults:");
      for (const auto& [key, kind] : kFaultKeys) {
        PrintKv(key,
                Injected(counters, {{"kind", serving::FaultKindName(kind)}}));
      }
      std::printf("\n");
    }
    PrintRowsIfAny("serving", counters, kStackRows);
    for (const std::string& shard : ShardLabels(counters)) {
      const obs::Labels labels{{"shard", shard}};
      std::printf("    shard %s:", shard.c_str());
      PrintRows(counters, kShardRows, labels);
      std::printf(" health=%s\n",
                  serving::ShardHealthName(ShardHealthOf(counters, labels)));
    }
  }
  if (has_plan) {
    std::printf("  plan:");
    PrintRows(counters, kPlanRows);
    std::printf("\n");
  }
  std::printf("  %-14s %7s %6s %5s %5s %5s %9s %9s %9s  %9s %9s %9s\n",
              "query", "ops", "err", "inf", "bad", "shed", "p50", "p95",
              "p99", "dm(s)", "analyt(s)", "glue(s)");
  for (const auto& [query, stats] : per_query) {
    std::printf(
        "  %-14s %7lld %6lld %5lld %5lld %5lld %9s %9s %9s  %9s %9s %9s\n",
                core::QueryName(query), static_cast<long long>(stats.ops),
                static_cast<long long>(stats.errors),
                static_cast<long long>(stats.infs),
                static_cast<long long>(stats.verify_failures),
                static_cast<long long>(stats.shed()),
                FormatMillis(stats.latency.Percentile(50)).c_str(),
                FormatMillis(stats.latency.Percentile(95)).c_str(),
                FormatMillis(stats.latency.Percentile(99)).c_str(),
                FormatSeconds(stats.dm_s).c_str(),
                FormatSeconds(stats.analytics_s).c_str(),
                FormatSeconds(stats.glue_s).c_str());
  }
}

/// --- JSON ---------------------------------------------------------------------
/// Hand-rolled emitter: every name is a known ASCII literal and the only
/// string values are engine/workload names, escaped by json::AppendEscaped.

namespace {

void AppendKv(std::string* out, const char* key, double value) {
  char buf[64];
  // %.17g round-trips doubles; JSON has no inf/nan, clamp to null.
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "\"%s\":%.17g", key, value);
  } else {
    std::snprintf(buf, sizeof(buf), "\"%s\":null", key);
  }
  out->append(buf);
}

void AppendKv(std::string* out, const char* key, int64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%lld", key,
                static_cast<long long>(value));
  out->append(buf);
}

void AppendHistogram(std::string* out, const char* key,
                     const LatencyHistogram& h) {
  out->append("\"").append(key).append("\":{");
  AppendKv(out, "count", h.count());
  out->push_back(',');
  AppendKv(out, "mean_s", h.mean());
  out->push_back(',');
  AppendKv(out, "min_s", h.min());
  out->push_back(',');
  AppendKv(out, "max_s", h.max());
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    char name[16];
    std::snprintf(name, sizeof(name), p == 99.9 ? "p999_s" : "p%.0f_s", p);
    out->push_back(',');
    AppendKv(out, name, h.Percentile(p));
  }
  out->push_back('}');
}

void AppendOpStats(std::string* out, const OpStats& stats) {
  out->push_back('{');
  AppendKv(out, "ops", stats.ops);
  out->push_back(',');
  AppendKv(out, "errors", stats.errors);
  out->push_back(',');
  AppendKv(out, "infs", stats.infs);
  out->push_back(',');
  AppendKv(out, "verify_failures", stats.verify_failures);
  out->push_back(',');
  AppendKv(out, "shed_queue_full", stats.shed_queue_full);
  out->push_back(',');
  AppendKv(out, "shed_timeout", stats.shed_timeout);
  out->push_back(',');
  AppendKv(out, "dm_s", stats.dm_s);
  out->push_back(',');
  AppendKv(out, "analytics_s", stats.analytics_s);
  out->push_back(',');
  AppendKv(out, "glue_s", stats.glue_s);
  out->push_back(',');
  AppendKv(out, "modeled_s", stats.modeled_s);
  out->push_back(',');
  AppendHistogram(out, "latency", stats.latency);
  out->push_back(',');
  AppendHistogram(out, "queue_delay", stats.queue_delay);
  out->append(",\"stages\":{");
  for (int s = 0; s < obs::kNumRequestStages; ++s) {
    if (s > 0) out->push_back(',');
    AppendHistogram(out,
                    obs::RequestStageName(static_cast<obs::RequestStage>(s)),
                    stats.stage[s]);
  }
  out->push_back('}');
  out->append(",\"stage_wall_s\":{");
  for (int s = 0; s < obs::kNumRequestStages; ++s) {
    if (s > 0) out->push_back(',');
    AppendKv(out, obs::RequestStageName(static_cast<obs::RequestStage>(s)),
             stats.stage[s].sum());
  }
  out->append("},\"stage_cpu_s\":{");
  for (int s = 0; s < obs::kNumRequestStages; ++s) {
    if (s > 0) out->push_back(',');
    AppendKv(out, obs::RequestStageName(static_cast<obs::RequestStage>(s)),
             stats.stage_cpu_s[s]);
  }
  out->push_back('}');
  out->push_back(',');
  AppendHistogram(out, "e2e_latency", stats.e2e_latency);
  out->push_back('}');
}

/// Appends `"key":value` for each row, comma-separated. Counts are
/// integral doubles, which %.17g prints exactly as an integer.
template <size_t N>
void AppendRows(std::string* out, const obs::MetricsWindow& counters,
                const CounterRow (&rows)[N], const obs::Labels& labels = {}) {
  for (size_t i = 0; i < N; ++i) {
    if (i > 0) out->push_back(',');
    AppendKv(out, rows[i].key, RowValue(counters, rows[i], labels));
  }
}

}  // namespace

std::string WorkloadReport::ToJson() const {
  std::string out;
  out.reserve(2048);
  out.append("{\"engine\":\"");
  json::AppendEscaped(&out, engine);
  out.append("\",\"workload\":\"");
  json::AppendEscaped(&out, workload_name);
  out.append("\",\"model\":\"");
  json::AppendEscaped(&out, ClientModelName(model));
  out.append("\",");
  AppendKv(&out, "clients", static_cast<int64_t>(clients));
  out.push_back(',');
  AppendKv(&out, "shards", static_cast<int64_t>(shards));
  out.push_back(',');
  AppendKv(&out, "param_variants", static_cast<int64_t>(param_variants));
  out.push_back(',');
  AppendKv(&out, "seed", static_cast<int64_t>(seed));
  out.append(",\"kernel_backend\":\"");
  json::AppendEscaped(&out, kernel_backend);
  out.append("\",");
  AppendKv(&out, "wall_seconds", wall_seconds);
  out.push_back(',');
  AppendKv(&out, "modeled_wall_seconds", modeled_wall_seconds());
  out.push_back(',');
  AppendKv(&out, "offered_qps", offered_qps);
  out.push_back(',');
  AppendKv(&out, "achieved_qps", achieved_qps());
  out.push_back(',');
  AppendKv(&out, "real_goodput_qps", real_goodput_qps());
  out.append(",\"profiled\":");
  out.append(profiled ? "true" : "false");
  out.append(",\"execute_perf\":");
  if (profiled) {
    // Counter JSON carries its own null fields when counters were
    // unavailable; the samples count distinguishes "no scopes ran" from
    // "scopes ran but the PMU was closed".
    int64_t scopes = 0;
    std::string perf = obs::ExecutePerf(counters, &scopes).ToJson();
    perf.insert(perf.size() - 1, ",\"samples\":" + std::to_string(scopes));
    out.append(perf);
  } else {
    out.append("null");
  }
  out.append(",\"total\":");
  AppendOpStats(&out, total);
  out.append(",\"per_query\":{");
  bool first = true;
  for (const auto& [query, stats] : per_query) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out.append(core::QueryName(query));
    out.append("\":");
    AppendOpStats(&out, stats);
  }
  out.push_back('}');
  if (has_serving) {
    out.append(",\"serving\":{\"cache\":{");
    AppendRows(&out, counters, kCacheProbeRows);
    out.push_back(',');
    AppendKv(&out, "hit_ratio", cache_hit_ratio());
    out.push_back(',');
    AppendRows(&out, counters, kCacheRows);
    out.append("},\"admission\":{");
    AppendRows(&out, counters, kAdmissionRows);
    out.append(",\"shed_by_class\":{");
    bool first_class = true;
    for (const std::string& class_id :
         counters.LabelValues(kShedByClass, "class")) {
      if (!first_class) out.push_back(',');
      first_class = false;
      AppendKv(&out,
               core::QueryName(static_cast<core::QueryId>(std::stoi(class_id))),
               counters.Change(kShedByClass, {{"class", class_id}}));
    }
    out.append("}},\"single_flight\":{");
    AppendRows(&out, counters, kFlightRows);
    out.append("},\"retry\":{");
    AppendRows(&out, counters, kRetryRows);
    out.append("},\"faults\":{");
    for (const auto& [key, kind] : kFaultKeys) {
      if (key != kFaultKeys[0].first) out.push_back(',');
      AppendKv(&out, key,
               Injected(counters, {{"kind", serving::FaultKindName(kind)}}));
    }
    out.append("},");
    AppendRows(&out, counters, kStackRows);
    out.append(",\"shards\":[");
    bool first_shard = true;
    for (const std::string& shard : ShardLabels(counters)) {
      if (!first_shard) out.push_back(',');
      first_shard = false;
      const obs::Labels labels{{"shard", shard}};
      out.push_back('{');
      AppendRows(&out, counters, kShardRows, labels);
      out.append(",\"health\":\"");
      out.append(serving::ShardHealthName(ShardHealthOf(counters, labels)));
      out.append("\"}");
    }
    out.append("]}");
  }
  if (has_plan) {
    out.append(",\"plan\":{");
    AppendRows(&out, counters, kPlanRows);
    out.push_back('}');
  }
  out.push_back('}');
  return out;
}

}  // namespace genbase::workload
