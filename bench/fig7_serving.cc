// Figure 7 (beyond the paper): the serving stack — result cache, admission
// control, shard routing — in front of the paper's engines. Three sweeps per
// engine over the small dataset:
//
//   (a) cache hit-ratio x shard count, closed loop: param_variants controls
//       the number of distinct (query, params) keys in the mix, so fewer
//       variants mean a hotter cache; shards {1,2,4} scale the engine tier.
//   (b) offered load vs goodput, open loop: Poisson arrivals at multiples of
//       the engine's measured closed-loop capacity, with a bounded admission
//       queue and deadline-based shedding — goodput, shed counts and the
//       (coordinated-omission-corrected) served-op tail are reported
//       separately, so overload behavior is honest.
//
// Deterministic by construction: schedules (count, mix, variants) are pure
// functions of the spec seed, and every served operation's result — cache
// hit or engine execution — is verified against core/reference ground
// truth. The exit code gates on zero errors/mismatches; shed ops are load
// shedding, not failures.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/sanitizers.h"
#include "core/reference.h"
#include "engine/engines.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "serving/serving_stack.h"
#include "workload/report.h"
#include "workload/runner.h"

namespace genbase::bench {
namespace {

constexpr int kShardCounts[] = {1, 2, 4};
constexpr int kVariantCounts[] = {1, 4, 16};
constexpr double kLoadMultipliers[] = {0.6, 2.0, 4.0};

workload::WorkloadSpec BaseSpec(int param_variants) {
  workload::WorkloadSpec spec;
  spec.name = "serving-mix";
  spec.mix = {
      {core::QueryId::kRegression, 30},
      {core::QueryId::kCovariance, 20},
      {core::QueryId::kBiclustering, 5},
      {core::QueryId::kSvd, 15},
      {core::QueryId::kStatistics, 30},
  };
  spec.size = core::DatasetSize::kSmall;
  spec.model = workload::ClientModel::kClosedLoop;
  spec.clients = 8;
  spec.warmup_ops = 5;
  spec.measured_ops = 40;
  spec.param_variants = param_variants;
  spec.seed = 42;
  spec.verify = true;
  return spec;
}

std::map<std::string, workload::WorkloadReport>& Reports() {
  static auto* reports = new std::map<std::string, workload::WorkloadReport>();
  return *reports;
}

std::string RunKey(const char* engine, int shards, int variants,
                   double load_mult) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s/s%d/v%d/x%.1f", engine, shards,
                variants, load_mult);
  return buf;
}

// Ground truth depends only on (query, variant params, data) — compute the
// union over every schedule this figure runs once, share across all cells.
// All specs reuse one (name, seed, op budget), so the (query, variant)
// sequence is identical across sweeps and the union stays small.
const std::map<workload::WorkloadRunner::TruthKey, core::QueryResult>&
SharedTruths() {
  static const auto* truths = [] {
    auto* map =
        new std::map<workload::WorkloadRunner::TruthKey, core::QueryResult>();
    const core::GenBaseData& data = CachedData(core::DatasetSize::kSmall);
    std::set<workload::WorkloadRunner::TruthKey> pairs;
    for (int variants : kVariantCounts) {
      const workload::WorkloadSpec spec = BaseSpec(variants);
      const auto schedule = workload::BuildSchedule(spec);
      for (size_t i = static_cast<size_t>(spec.warmup_ops);
           i < schedule.size(); ++i) {
        pairs.insert({schedule[i].query, schedule[i].variant});
      }
    }
    for (const auto& [query, variant] : pairs) {
      auto truth = core::RunReferenceQuery(
          query, data,
          workload::VariantParams(BaseSpec(1).params, variant));
      GENBASE_CHECK(truth.ok());
      map->emplace(std::make_pair(query, variant),
                   std::move(truth).ValueOrDie());
    }
    return map;
  }();
  return *truths;
}

genbase::Result<workload::WorkloadReport> RunOnce(
    const ServingEngineSpec& engine, const workload::WorkloadSpec& spec,
    const serving::ServingOptions& serving_options) {
  auto stack = serving::ServingStack::Create(
      serving_options, engine.factory,
      CachedData(core::DatasetSize::kSmall));
  GENBASE_RETURN_NOT_OK(stack.status());
  workload::WorkloadRunner runner(spec);
  runner.set_ground_truth_variants(SharedTruths());
  return runner.Run(stack.ValueOrDie().get(),
                    CachedData(core::DatasetSize::kSmall));
}

void RegisterCacheShardSweep() {
  for (const auto& engine : ServingEngines()) {
    for (int variants : kVariantCounts) {
      for (int shards : kShardCounts) {
        const std::string name = std::string("fig7a/") + engine.key +
                                 "/variants:" + std::to_string(variants) +
                                 "/shards:" + std::to_string(shards);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [engine, variants, shards](benchmark::State& state) {
              for (auto _ : state) {
                serving::ServingOptions options;
                options.shards = shards;
                options.cache_enabled = true;
                auto report = RunOnce(engine, BaseSpec(variants), options);
                if (!report.ok()) {
                  state.SkipWithError(report.status().ToString().c_str());
                  return;
                }
                state.counters["qps"] = report->achieved_qps();
                state.counters["hit_pct"] = report->cache_hit_ratio() * 100;
                Reports()[RunKey(engine.key, shards, variants, 0)] =
                    std::move(report).ValueOrDie();
              }
            })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

void RegisterOverloadSweep() {
  for (const auto& engine : ServingEngines()) {
    for (double mult : kLoadMultipliers) {
      const std::string name = std::string("fig7b/") + engine.key +
                               "/load:" + std::to_string(mult);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [engine, mult](benchmark::State& state) {
            for (auto _ : state) {
              // Capacity reference: the closed-loop 2-shard/4-variant cell
              // from sweep (a), which benchmark ordering guarantees already
              // ran. Offered load is a multiple of what this engine can
              // actually serve, so "2x" means the same stress for SciDB as
              // for the R config.
              auto it = Reports().find(RunKey(engine.key, 2, 4, 0));
              const bool have_reference =
                  it != Reports().end() && it->second.achieved_qps() > 0;
              if (!have_reference) {
                // Reachable when fig7a was filtered out or its cell failed:
                // the "Nx capacity" labels then reflect this placeholder,
                // not the engine's measured capacity — say so loudly.
                std::printf(
                    "# warning: fig7a reference cell %s missing; fig7b/%s "
                    "offered load uses fallback capacity 20 qps, not "
                    "measured capacity\n",
                    RunKey(engine.key, 2, 4, 0).c_str(), engine.key);
              }
              // Real-clock capacity: arrivals are real-time, so the offered
              // rate must be a multiple of what the server absorbs on the
              // same clock (modeled virtual seconds never occupy a slot).
              const double capacity =
                  have_reference ? it->second.real_goodput_qps() : 20.0;
              const double mean_service =
                  have_reference ? it->second.total.latency.mean() : 0.05;

              workload::WorkloadSpec spec = BaseSpec(4);
              spec.model = workload::ClientModel::kOpenLoopPoisson;
              spec.arrival_rate_qps = capacity * mult;
              spec.clients = 12;

              serving::ServingOptions options;
              options.shards = 2;
              options.cache_enabled = true;
              options.admission.max_inflight = 2;
              options.admission.max_queue = 4;
              // Start budget ~2x the engine's closed-loop mean latency:
              // above the queueing an underloaded Poisson stream produces,
              // well below the runaway backlog of sustained overload — so
              // deadline shedding engages at 2-4x for every engine instead
              // of hiding behind a fixed floor that dwarfs fast services.
              options.admission.max_queue_delay_s =
                  std::clamp(2 * mean_service, 0.001, 5.0);
              auto report = RunOnce(engine, spec, options);
              if (!report.ok()) {
                state.SkipWithError(report.status().ToString().c_str());
                return;
              }
              state.counters["goodput"] = report->real_goodput_qps();
              state.counters["shed"] =
                  static_cast<double>(report->total.shed());
              state.counters["p99_ms"] =
                  report->total.latency.Percentile(99) * 1e3;
              Reports()[RunKey(engine.key, 2, 4, mult)] =
                  std::move(report).ValueOrDie();
            }
          })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

std::string CacheCell(const workload::WorkloadReport& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%sqps %s hit=%.0f%%",
                workload::FormatQps(r.achieved_qps()).c_str(),
                workload::FormatMillis(r.total.latency.Percentile(99)).c_str(),
                r.cache_hit_ratio() * 100);
  return buf;
}

std::string OverloadCell(const workload::WorkloadReport& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s/%sqps shed=%lld p99=%s",
                workload::FormatQps(r.real_goodput_qps()).c_str(),
                workload::FormatQps(r.offered_qps).c_str(),
                static_cast<long long>(r.total.shed()),
                workload::FormatMillis(r.total.latency.Percentile(99)).c_str());
  return buf;
}

int64_t PrintFigure() {
  std::vector<std::string> engines;
  for (const auto& engine : ServingEngines()) engines.push_back(engine.display);

  for (int variants : kVariantCounts) {
    std::vector<std::string> x_values;
    std::vector<std::vector<std::string>> cells;
    for (int shards : kShardCounts) {
      x_values.push_back(std::to_string(shards) +
                         (shards == 1 ? " shard" : " shards"));
      std::vector<std::string> row;
      for (const auto& engine : ServingEngines()) {
        auto it = Reports().find(RunKey(engine.key, shards, variants, 0));
        row.push_back(it == Reports().end() ? "?" : CacheCell(it->second));
      }
      cells.push_back(std::move(row));
    }
    char title[160];
    std::snprintf(title, sizeof(title),
                  "Figure 7a: result cache + shard scaling, %d param "
                  "variant%s (goodput, served p99, hit ratio)",
                  variants, variants == 1 ? "" : "s");
    workload::PrintGrid(title, "shards", x_values, engines, cells);
  }

  {
    std::vector<std::string> x_values;
    std::vector<std::vector<std::string>> cells;
    for (double mult : kLoadMultipliers) {
      char label[48];
      std::snprintf(label, sizeof(label), "offered %.1fx capacity", mult);
      x_values.push_back(label);
      std::vector<std::string> row;
      for (const auto& engine : ServingEngines()) {
        auto it = Reports().find(RunKey(engine.key, 2, 4, mult));
        row.push_back(it == Reports().end() ? "?" : OverloadCell(it->second));
      }
      cells.push_back(std::move(row));
    }
    workload::PrintGrid(
        "Figure 7b: open-loop overload, 2 shards + admission control "
        "(goodput/offered, shed ops, served p99)",
        "offered load", x_values, engines, cells);
  }

  for (const auto& [key, report] : Reports()) report.Print();

  int64_t failures = 0;
  for (const auto& [key, report] : Reports()) {
    failures += report.total.errors + report.total.verify_failures;
  }
  std::printf(
      "\n# verification: %lld operation errors/mismatches across %zu runs "
      "(every served op checked against core/reference; shed ops are "
      "load shedding, not failures)\n",
      static_cast<long long>(failures), Reports().size());
  return failures;
}

// --- observability gates -----------------------------------------------------

/// The two overhead gates compare throughput with instrumentation on vs
/// off; a sanitizer multiplies the instrumented side's cost, so under one
/// the ratio measures the sanitizer, not the product. Correctness gates
/// (span drops, cpu<=wall, stale hits, verification) never skip.
/// GENBASE_SKIP_OVERHEAD_GATES covers the UBSan-only preset, which has no
/// detection macro.
bool SkipOverheadGates() {
  if (genbase::kUnderSanitizer) return true;
  const char* env = std::getenv("GENBASE_SKIP_OVERHEAD_GATES");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Overhead gate: with tracing compiled in, 1% head sampling must cost <2%
/// throughput against the same run with sampling off (rate 0 — the
/// per-request cost is then one hash and a branch). The cell is the
/// hit-heavy closed-loop corner (1 variant, 2 shards), whose achieved_qps
/// is dominated by deterministic modeled time, so the comparison is stable;
/// best-of-3 interleaved pairs cancels one-off scheduler noise, and the
/// whole gate retries once before failing. Also checks the span-drop gate:
/// the lock-free rings must not have dropped a single span at this scale.
/// Returns the number of gate failures.
int64_t RunObservabilityGates() {
  obs::Tracer& tracer = obs::Tracer::Global();
  const double saved_rate = tracer.sample_rate();

  const ServingEngineSpec& engine = ServingEngines().front();
  serving::ServingOptions options;
  options.shards = 2;
  options.cache_enabled = true;
  workload::WorkloadSpec spec = BaseSpec(1);  // 1 variant: hit-heavy.
  spec.warmup_ops = 10;
  spec.measured_ops = 240;
  spec.verify = false;  // The gate measures the serving path, not verify.

  const auto cell_qps = [&](double rate) {
    tracer.set_sample_rate(rate);
    const auto report = RunOnce(engine, spec, options);
    return report.ok() ? report->achieved_qps() : -1.0;
  };

  constexpr double kMaxOverhead = 0.02;
  int64_t failures = 0;
  if (SkipOverheadGates()) {
    std::printf(
        "# overhead gate SKIP: sanitizer build distorts the sampling "
        "on/off throughput ratio\n");
    tracer.set_sample_rate(saved_rate);
  } else {
    double overhead = 0.0;
    bool gate_ok = false;
    bool run_failed = false;
    for (int attempt = 0; attempt < 2 && !gate_ok && !run_failed;
         ++attempt) {
      double best_off = 0.0;
      double best_on = 0.0;
      for (int pair = 0; pair < 3 && !run_failed; ++pair) {
        const double qps_off = cell_qps(0.0);
        const double qps_on = cell_qps(0.01);
        run_failed = qps_off < 0 || qps_on < 0;
        best_off = std::max(best_off, qps_off);
        best_on = std::max(best_on, qps_on);
      }
      if (run_failed) break;
      overhead = best_off > 0 ? (best_off - best_on) / best_off : 0.0;
      gate_ok = overhead <= kMaxOverhead;
    }
    tracer.set_sample_rate(saved_rate);
    if (run_failed) {
      std::printf("# overhead gate FAIL: gate cell did not run\n");
      ++failures;
    } else {
      std::printf(
          "# overhead gate %s: 1%% sampling costs %.2f%% throughput "
          "(limit %.0f%%)\n",
          gate_ok ? "PASS" : "FAIL", overhead * 100, kMaxOverhead * 100);
      if (!gate_ok) ++failures;
    }
  }

  const int64_t dropped = tracer.spans_dropped();
  std::printf("# span-drop gate %s: %lld spans dropped (%lld recorded)\n",
              dropped == 0 ? "PASS" : "FAIL",
              static_cast<long long>(dropped),
              static_cast<long long>(tracer.spans_recorded()));
  if (dropped != 0) ++failures;
  return failures;
}

/// Profiler gates. (a) Overhead: enabling resource profiling (per-stage
/// thread-CPU reads, alloc deltas, RSS samples, perf-counter scopes) must
/// cost <3% throughput against the identical unprofiled run — same
/// best-of-3 interleaved-pair + one-retry structure as the tracing gate,
/// with sampling pinned to 0 so only the profiler cost is measured.
/// (b) Attribution sanity, on the figure's own recorded runs when they were
/// profiled: every stage's CPU sum must fit in its wall sum (the clamp
/// guarantees it — this catches the clamp breaking), and the queue stage —
/// a condvar wait — must be <10% on-CPU across the overload sweep, where
/// queue wall time is substantial. Returns the number of gate failures.
int64_t RunProfilerGates() {
  obs::Tracer& tracer = obs::Tracer::Global();
  const double saved_rate = tracer.sample_rate();
  const bool saved_profiling = obs::Profiler::Enabled();
  tracer.set_sample_rate(0.0);

  const ServingEngineSpec& engine = ServingEngines().front();
  serving::ServingOptions options;
  options.shards = 2;
  options.cache_enabled = true;
  workload::WorkloadSpec spec = BaseSpec(1);
  spec.warmup_ops = 10;
  spec.measured_ops = 240;
  spec.verify = false;

  const auto cell_qps = [&](bool profiled) {
    obs::Profiler::SetEnabled(profiled);
    const auto report = RunOnce(engine, spec, options);
    return report.ok() ? report->achieved_qps() : -1.0;
  };

  constexpr double kMaxOverhead = 0.03;
  int64_t failures = 0;
  if (SkipOverheadGates()) {
    std::printf(
        "# profiler overhead gate SKIP: sanitizer build distorts the "
        "profiled/unprofiled throughput ratio\n");
    tracer.set_sample_rate(saved_rate);
    obs::Profiler::SetEnabled(saved_profiling);
  } else {
    double overhead = 0.0;
    bool gate_ok = false;
    bool run_failed = false;
    for (int attempt = 0; attempt < 2 && !gate_ok && !run_failed;
         ++attempt) {
      double best_off = 0.0;
      double best_on = 0.0;
      for (int pair = 0; pair < 3 && !run_failed; ++pair) {
        const double qps_off = cell_qps(false);
        const double qps_on = cell_qps(true);
        run_failed = qps_off < 0 || qps_on < 0;
        best_off = std::max(best_off, qps_off);
        best_on = std::max(best_on, qps_on);
      }
      if (run_failed) break;
      overhead = best_off > 0 ? (best_off - best_on) / best_off : 0.0;
      gate_ok = overhead <= kMaxOverhead;
    }
    tracer.set_sample_rate(saved_rate);
    obs::Profiler::SetEnabled(saved_profiling);
    if (run_failed) {
      std::printf("# profiler overhead gate FAIL: gate cell did not run\n");
      ++failures;
    } else {
      std::printf(
          "# profiler overhead gate %s: profiling costs %.2f%% throughput "
          "(limit %.0f%%)\n",
          gate_ok ? "PASS" : "FAIL", overhead * 100, kMaxOverhead * 100);
      if (!gate_ok) ++failures;
    }
  }

  // (b) cpu/wall attribution sanity over the recorded (profiled) runs.
  bool any_profiled = false;
  int64_t ratio_failures = 0;
  double overload_queue_wall_s = 0.0;
  double overload_queue_cpu_s = 0.0;
  for (const auto& [key, report] : Reports()) {
    if (!report.profiled) continue;
    any_profiled = true;
    for (int s = 0; s < obs::kNumRequestStages; ++s) {
      if (report.total.stage_cpu_s[s] >
          report.total.stage_wall_s[s] * (1.0 + 1e-9) + 1e-9) {
        std::printf("# cpu/wall gate FAIL: %s stage %s cpu %.6fs > wall "
                    "%.6fs\n",
                    key.c_str(),
                    obs::RequestStageName(static_cast<obs::RequestStage>(s)),
                    report.total.stage_cpu_s[s],
                    report.total.stage_wall_s[s]);
        ++ratio_failures;
      }
    }
    if (report.offered_qps > 0) {
      overload_queue_wall_s +=
          report.total.stage_wall_s[static_cast<int>(
              obs::RequestStage::kQueue)];
      overload_queue_cpu_s +=
          report.total.stage_cpu_s[static_cast<int>(
              obs::RequestStage::kQueue)];
    }
  }
  if (any_profiled) {
    // Gate the queue ratio only when the overload sweep actually queued —
    // below the floor a ratio of two near-zeros is noise, not signal.
    if (overload_queue_wall_s > 0.05) {
      const double ratio = overload_queue_cpu_s / overload_queue_wall_s;
      const bool queue_ok = ratio < 0.1;
      std::printf("# queue cpu/wall gate %s: %.3f across overload runs "
                  "(%.3fs wall; limit 0.1)\n",
                  queue_ok ? "PASS" : "FAIL", ratio, overload_queue_wall_s);
      if (!queue_ok) ++ratio_failures;
    }
    std::printf("# cpu<=wall gate %s across profiled runs\n",
                ratio_failures == 0 ? "PASS" : "FAIL");
    failures += ratio_failures;
  }
  return failures;
}

}  // namespace
}  // namespace genbase::bench

int main(int argc, char** argv) {
  genbase::bench::PrintBanner(
      "Figure 7: serving stack — cache, admission control, shards");
  const std::string json_path = genbase::bench::ExtractJsonPath(&argc, argv);
  const genbase::bench::ObsDumpPaths obs_paths =
      genbase::bench::ExtractObsPaths(&argc, argv);
  genbase::bench::RegisterCacheShardSweep();
  genbase::bench::RegisterOverloadSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  const int64_t failures = genbase::bench::PrintFigure();
  const int64_t gate_failures = genbase::bench::RunObservabilityGates() +
                                genbase::bench::RunProfilerGates();
  std::vector<genbase::workload::WorkloadReport> reports;
  for (const auto& [key, report] : genbase::bench::Reports()) {
    reports.push_back(report);
  }
  const genbase::Status obs = genbase::bench::WriteObsDumps(obs_paths);
  if (!obs.ok()) {
    std::fprintf(stderr, "%s\n", obs.ToString().c_str());
    return 1;
  }
  return genbase::bench::FigureExitCode(json_path, "fig7", reports,
                                        failures + gate_failures);
}
