#include "workload/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace genbase::workload {

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
    stage_wall_s[s] += other.stage_wall_s[s];
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
      if (total.stage_wall_s[s] > 0) {
        std::printf(" %s=%.2f",
                    obs::RequestStageName(static_cast<obs::RequestStage>(s)),
                    total.stage_cpu_s[s] / total.stage_wall_s[s]);
      } else {
        std::printf(" %s=-",
                    obs::RequestStageName(static_cast<obs::RequestStage>(s)));
      }
    }
    std::printf("\n");
    if (execute_perf.reading.valid) {
      std::printf("  execute perf: ipc=%.2f cache-miss=%.1f%% "
                  "branch-miss/kinst=%.2f (%lld scopes)\n",
                  execute_perf.reading.ipc(),
                  execute_perf.reading.cache_miss_rate() * 100.0,
                  execute_perf.reading.instructions > 0
                      ? 1e3 * execute_perf.reading.branch_misses /
                            static_cast<double>(
                                execute_perf.reading.instructions)
                      : 0.0,
                  static_cast<long long>(execute_perf.samples));
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
  if (has_serving) {
    std::printf("  serving: cache hit=%lld miss=%lld (ratio %.2f, "
                "%lld entries, %lld evicted, %lld invalidated, "
                "%lld oversize)  admitted=%lld "
                "shed=%lld+%lld peakq=%lld limit=%lld\n",
                static_cast<long long>(serving.cache.hits),
                static_cast<long long>(serving.cache.misses),
                serving.cache.hit_ratio(),
                static_cast<long long>(serving.cache.entries),
                static_cast<long long>(serving.cache.evictions),
                static_cast<long long>(serving.cache.invalidated),
                static_cast<long long>(serving.cache.rejected_oversize),
                static_cast<long long>(serving.admission.admitted),
                static_cast<long long>(serving.admission.shed_queue_full),
                static_cast<long long>(serving.admission.shed_timeout),
                static_cast<long long>(serving.admission.peak_queue),
                static_cast<long long>(serving.admission.current_limit));
    // Churn/stampede lines only when those layers saw traffic: the classic
    // closed-loop figures stay byte-stable otherwise.
    if (serving.flight.leaders > 0 || serving.flight.coalesced > 0) {
      std::printf("  single-flight: leaders=%lld coalesced=%lld "
                  "(served=%lld, fallbacks=%lld, shed=%lld)\n",
                  static_cast<long long>(serving.flight.leaders),
                  static_cast<long long>(serving.flight.coalesced),
                  static_cast<long long>(serving.flight.coalesced_served),
                  static_cast<long long>(serving.flight.follower_fallbacks),
                  static_cast<long long>(serving.flight.shed_wait_timeout));
    }
    if (!serving.admission.shed_by_class.empty()) {
      std::printf("  shed by class:");
      for (const auto& [class_id, shed] : serving.admission.shed_by_class) {
        std::printf(" %s=%lld",
                    core::QueryName(static_cast<core::QueryId>(class_id)),
                    static_cast<long long>(shed));
      }
      std::printf("\n");
    }
    if (serving.reloads > 0 || serving.stale_hits > 0) {
      std::printf("  churn: reloads=%lld stale_hits=%lld (must be 0)\n",
                  static_cast<long long>(serving.reloads),
                  static_cast<long long>(serving.stale_hits));
    }
    // Fault-tolerance line only when that machinery actually engaged — the
    // no-injector, no-retry configurations stay byte-stable.
    if (serving.retry.retries > 0 || serving.retry.hedges > 0 ||
        serving.retry.retry_deadline_giveups > 0 ||
        serving.admission.shed_brownout > 0 || serving.faults.total() > 0) {
      std::printf("  fault tolerance: retries=%lld (recovered=%lld, "
                  "giveups=%lld) hedges=%lld (wins=%lld) "
                  "shed_brownout=%lld injected=%lld\n",
                  static_cast<long long>(serving.retry.retries),
                  static_cast<long long>(serving.retry.retry_successes),
                  static_cast<long long>(serving.retry.retry_deadline_giveups),
                  static_cast<long long>(serving.retry.hedges),
                  static_cast<long long>(serving.retry.hedge_wins),
                  static_cast<long long>(serving.admission.shed_brownout),
                  static_cast<long long>(serving.faults.total()));
    }
    for (size_t s = 0; s < serving.shards.size(); ++s) {
      const serving::ShardStats& st = serving.shards[s];
      std::printf("    shard %zu: ops=%lld busy=%ss err=%lld inf=%lld", s,
                  static_cast<long long>(st.ops),
                  FormatSeconds(st.busy_s).c_str(),
                  static_cast<long long>(st.errors),
                  static_cast<long long>(st.infs));
      if (st.breaker_opens > 0 ||
          st.health != serving::ShardHealth::kHealthy) {
        std::printf(" health=%s breaker_opens=%lld",
                    serving::ShardHealthName(st.health),
                    static_cast<long long>(st.breaker_opens));
      }
      std::printf("\n");
    }
  }
  if (has_plan) {
    std::printf("  plan: compiles=%lld hits=%lld executes=%lld "
                "compile=%s peak=%.0fB%s\n",
                static_cast<long long>(plan.compiles),
                static_cast<long long>(plan.cache_hits),
                static_cast<long long>(plan.executes),
                FormatMillis(plan.compile_ns * 1e-9).c_str(), plan.peak_bytes,
                plan.peak_mismatches > 0 ? "  GUARD OVERWRITTEN" : "");
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
/// string values are engine/workload names, so escaping is limited to the
/// characters that could actually break the document.

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

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
             stats.stage_wall_s[s]);
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

}  // namespace

std::string WorkloadReport::ToJson() const {
  std::string out;
  out.reserve(2048);
  out.push_back('{');
  out.append("\"engine\":");
  AppendEscaped(&out, engine);
  out.append(",\"workload\":");
  AppendEscaped(&out, workload_name);
  out.append(",\"model\":");
  AppendEscaped(&out, ClientModelName(model));
  out.push_back(',');
  AppendKv(&out, "clients", static_cast<int64_t>(clients));
  out.push_back(',');
  AppendKv(&out, "shards", static_cast<int64_t>(shards));
  out.push_back(',');
  AppendKv(&out, "param_variants", static_cast<int64_t>(param_variants));
  out.push_back(',');
  AppendKv(&out, "seed", static_cast<int64_t>(seed));
  out.append(",\"kernel_backend\":");
  AppendEscaped(&out, kernel_backend);
  out.push_back(',');
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
    std::string perf = execute_perf.reading.ToJson();
    perf.insert(perf.size() - 1,
                ",\"samples\":" + std::to_string(execute_perf.samples));
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
    AppendKv(&out, "hits", serving.cache.hits);
    out.push_back(',');
    AppendKv(&out, "misses", serving.cache.misses);
    out.push_back(',');
    AppendKv(&out, "hit_ratio", serving.cache.hit_ratio());
    out.push_back(',');
    AppendKv(&out, "insertions", serving.cache.insertions);
    out.push_back(',');
    AppendKv(&out, "evictions", serving.cache.evictions);
    out.push_back(',');
    AppendKv(&out, "invalidated", serving.cache.invalidated);
    out.push_back(',');
    AppendKv(&out, "rejected_oversize", serving.cache.rejected_oversize);
    out.push_back(',');
    AppendKv(&out, "entries", serving.cache.entries);
    out.push_back(',');
    AppendKv(&out, "bytes", serving.cache.bytes);
    out.append("},\"admission\":{");
    AppendKv(&out, "admitted", serving.admission.admitted);
    out.push_back(',');
    AppendKv(&out, "shed_queue_full", serving.admission.shed_queue_full);
    out.push_back(',');
    AppendKv(&out, "shed_timeout", serving.admission.shed_timeout);
    out.push_back(',');
    AppendKv(&out, "shed_brownout", serving.admission.shed_brownout);
    out.push_back(',');
    AppendKv(&out, "peak_queue", serving.admission.peak_queue);
    out.push_back(',');
    AppendKv(&out, "current_limit", serving.admission.current_limit);
    out.append(",\"shed_by_class\":{");
    bool first_class = true;
    for (const auto& [class_id, shed] : serving.admission.shed_by_class) {
      if (!first_class) out.push_back(',');
      first_class = false;
      out.push_back('"');
      out.append(core::QueryName(static_cast<core::QueryId>(class_id)));
      out.append("\":");
      out.append(std::to_string(shed));
    }
    out.append("}},\"single_flight\":{");
    AppendKv(&out, "leaders", serving.flight.leaders);
    out.push_back(',');
    AppendKv(&out, "coalesced", serving.flight.coalesced);
    out.push_back(',');
    AppendKv(&out, "coalesced_served", serving.flight.coalesced_served);
    out.push_back(',');
    AppendKv(&out, "follower_fallbacks", serving.flight.follower_fallbacks);
    out.push_back(',');
    AppendKv(&out, "shed_wait_timeout", serving.flight.shed_wait_timeout);
    out.append("},\"retry\":{");
    AppendKv(&out, "retries", serving.retry.retries);
    out.push_back(',');
    AppendKv(&out, "retry_successes", serving.retry.retry_successes);
    out.push_back(',');
    AppendKv(&out, "retry_deadline_giveups",
             serving.retry.retry_deadline_giveups);
    out.push_back(',');
    AppendKv(&out, "hedges", serving.retry.hedges);
    out.push_back(',');
    AppendKv(&out, "hedge_wins", serving.retry.hedge_wins);
    out.append("},\"faults\":{");
    AppendKv(&out, "crashes", serving.faults.crashes);
    out.push_back(',');
    AppendKv(&out, "recoveries", serving.faults.recoveries);
    out.push_back(',');
    AppendKv(&out, "latency_spikes", serving.faults.latency_spikes);
    out.push_back(',');
    AppendKv(&out, "transient_errors", serving.faults.transient_errors);
    out.push_back(',');
    AppendKv(&out, "reload_failures", serving.faults.reload_failures);
    out.append("},");
    AppendKv(&out, "stale_hits", serving.stale_hits);
    out.push_back(',');
    AppendKv(&out, "reloads", serving.reloads);
    out.append(",\"shards\":[");
    for (size_t s = 0; s < serving.shards.size(); ++s) {
      if (s > 0) out.push_back(',');
      out.push_back('{');
      AppendKv(&out, "ops", serving.shards[s].ops);
      out.push_back(',');
      AppendKv(&out, "errors", serving.shards[s].errors);
      out.push_back(',');
      AppendKv(&out, "infs", serving.shards[s].infs);
      out.push_back(',');
      AppendKv(&out, "busy_s", serving.shards[s].busy_s);
      out.push_back(',');
      AppendKv(&out, "breaker_opens", serving.shards[s].breaker_opens);
      out.append(",\"health\":\"");
      out.append(serving::ShardHealthName(serving.shards[s].health));
      out.push_back('"');
      out.push_back('}');
    }
    out.append("]}");
  }
  if (has_plan) {
    out.append(",\"plan\":{");
    AppendKv(&out, "compiles", plan.compiles);
    out.push_back(',');
    AppendKv(&out, "cache_hits", plan.cache_hits);
    out.push_back(',');
    AppendKv(&out, "executes", plan.executes);
    out.push_back(',');
    AppendKv(&out, "compile_ns", plan.compile_ns);
    out.push_back(',');
    AppendKv(&out, "peak_mismatches", plan.peak_mismatches);
    out.push_back(',');
    AppendKv(&out, "peak_bytes", plan.peak_bytes);
    out.push_back('}');
  }
  out.push_back('}');
  return out;
}

}  // namespace genbase::workload
