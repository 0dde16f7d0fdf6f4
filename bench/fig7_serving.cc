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

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "serving/serving_stack.h"
#include "workload/report.h"

namespace genbase::bench {
namespace {

constexpr int kShardCounts[] = {1, 2, 4};
constexpr int kVariantCounts[] = {1, 4, 16};
constexpr double kLoadMultipliers[] = {0.6, 2.0, 4.0};

/// All cells run one schedule; `cell` gives each its own trace ids.
workload::WorkloadSpec BaseSpec(int param_variants,
                                const std::string& cell) {
  workload::WorkloadSpec spec = ServingMixSpec("serving-mix", 42);
  spec.trace_scope = cell;
  spec.clients = 8;
  spec.warmup_ops = 5;
  spec.measured_ops = 40;
  spec.param_variants = param_variants;
  return spec;
}

std::string RunKey(const char* engine, int shards, int variants,
                   double load_mult) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s/s%d/v%d/x%.1f", engine, shards,
                variants, load_mult);
  return buf;
}

void RegisterCacheShardSweep() {
  for (const auto& engine : ServingEngines()) {
    for (int variants : kVariantCounts) {
      for (int shards : kShardCounts) {
        const std::string name = std::string("fig7a/") + engine.key +
                                 "/variants:" + std::to_string(variants) +
                                 "/shards:" + std::to_string(shards);
        RegisterCell(name, [engine, variants, shards,
                            name]() -> genbase::Status {
          serving::ServingOptions options;
          options.shards = shards;
          options.cache_enabled = true;
          GENBASE_ASSIGN_OR_RETURN(
              Reports()[RunKey(engine.key, shards, variants, 0)],
              RunStack(engine, BaseSpec(variants, name), options));
          return genbase::Status::OK();
        });
      }
    }
  }
}

void RegisterOverloadSweep() {
  for (const auto& engine : ServingEngines()) {
    for (double mult : kLoadMultipliers) {
      const std::string name = std::string("fig7b/") + engine.key +
                               "/load:" + std::to_string(mult);
      RegisterCell(name, [engine, mult, name]() -> genbase::Status {
        // Capacity reference: the closed-loop 2-shard/4-variant cell from
        // sweep (a), which benchmark ordering guarantees already ran.
        // Offered load is a multiple of what this engine can actually serve,
        // so "2x" means the same stress for SciDB as for the R config.
        const Capacity capacity = MeasuredCapacity(
            RunKey(engine.key, 2, 4, 0), std::string("fig7b/") + engine.key);

        workload::WorkloadSpec spec = BaseSpec(4, name);
        spec.model = workload::ClientModel::kOpenLoopPoisson;
        spec.arrival_rate_qps = capacity.goodput_qps * mult;
        spec.clients = 12;

        serving::ServingOptions options;
        options.shards = 2;
        options.cache_enabled = true;
        options.admission.max_inflight = 2;
        options.admission.max_queue = 4;
        // Start budget ~2x the engine's closed-loop mean latency: above the
        // queueing an underloaded Poisson stream produces, well below the
        // runaway backlog of sustained overload — so deadline shedding
        // engages at 2-4x for every engine instead of hiding behind a fixed
        // floor that dwarfs fast services.
        options.admission.max_queue_delay_s =
            std::clamp(2 * capacity.mean_latency_s, 0.001, 5.0);
        GENBASE_ASSIGN_OR_RETURN(Reports()[RunKey(engine.key, 2, 4, mult)],
                                 RunStack(engine, spec, options));
        return genbase::Status::OK();
      });
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

/// One overhead gate: turning the instrumentation under test on (`set_on`)
/// must cost at most `limit` of the throughput of the same run with it off.
/// The cell is the hit-heavy closed-loop corner (1 variant, 2 shards), whose
/// achieved_qps is dominated by deterministic modeled time, and best-of-3
/// interleaved pairs cancels one-off scheduler noise. The cell runs 2400
/// measured ops because at 240 about one reading in 20 of unchanged code
/// crossed a limit; at 2400 the readings' quartiles stay within 0.3% of
/// zero. Skipped under sanitizers, which multiply the instrumented side's
/// cost. Returns the number of gate failures.
int64_t OverheadGate(const char* gate, const char* what, double limit,
                     const std::function<void(bool)>& set_on) {
  if (SkipOverheadGates()) {
    std::printf("# %s SKIP: sanitizer build distorts the on/off throughput "
                "ratio\n",
                gate);
    return 0;
  }
  const engine::EngineSpec& engine = ServingEngines().front();
  serving::ServingOptions options;
  options.shards = 2;
  options.cache_enabled = true;
  workload::WorkloadSpec spec = BaseSpec(1, gate);  // 1 variant: hit-heavy.
  spec.warmup_ops = 10;
  spec.measured_ops = 2400;
  spec.verify = false;  // The gate measures the serving path, not verify.

  const auto cell_qps = [&](int pair, bool on) {
    set_on(on);
    spec.trace_scope = std::string(gate) + "/" + std::to_string(pair) +
                       (on ? "/on" : "/off");
    const auto report = RunStack(engine, spec, options);
    return report.ok() ? report->achieved_qps() : -1.0;
  };

  double best_off = 0.0;
  double best_on = 0.0;
  for (int pair = 0; pair < 3; ++pair) {
    const double qps_off = cell_qps(pair, false);
    const double qps_on = cell_qps(pair, true);
    if (qps_off < 0 || qps_on < 0) {
      std::printf("# %s FAIL: gate cell did not run\n", gate);
      return 1;
    }
    best_off = std::max(best_off, qps_off);
    best_on = std::max(best_on, qps_on);
  }
  const double overhead = best_off > 0 ? (best_off - best_on) / best_off : 0.0;
  const bool gate_ok = overhead <= limit;
  std::printf("# %s %s: %s costs %.2f%% throughput (limit %.0f%%)\n", gate,
              gate_ok ? "PASS" : "FAIL", what, overhead * 100, limit * 100);
  return gate_ok ? 0 : 1;
}

/// Tracing gates. Overhead: with tracing compiled in, 1% head sampling must
/// cost <2% throughput against the same run with sampling off (rate 0 — the
/// per-request cost is then one hash and a branch). Span drops: the
/// lock-free rings must not have dropped a single span at this scale.
/// Returns the number of gate failures.
int64_t RunObservabilityGates() {
  obs::Tracer& tracer = obs::Tracer::Global();
  const double saved_rate = tracer.sample_rate();
  int64_t failures =
      OverheadGate("overhead gate", "1% sampling", 0.02, [&](bool on) {
        tracer.set_sample_rate(on ? 0.01 : 0.0);
      });
  tracer.set_sample_rate(saved_rate);

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
/// cost <3% throughput against the identical unprofiled run, with sampling
/// pinned to 0 so only the profiler cost is measured.
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
  int64_t failures = OverheadGate("profiler overhead gate", "profiling", 0.03,
                                  obs::Profiler::SetEnabled);
  tracer.set_sample_rate(saved_rate);
  obs::Profiler::SetEnabled(saved_profiling);

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
          report.total.stage[s].sum() * (1.0 + 1e-9) + 1e-9) {
        std::printf("# cpu/wall gate FAIL: %s stage %s cpu %.6fs > wall "
                    "%.6fs\n",
                    key.c_str(),
                    obs::RequestStageName(static_cast<obs::RequestStage>(s)),
                    report.total.stage_cpu_s[s],
                    report.total.stage[s].sum());
        ++ratio_failures;
      }
    }
    if (report.offered_qps > 0) {
      overload_queue_wall_s +=
          report.total.stage[static_cast<int>(obs::RequestStage::kQueue)]
              .sum();
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
  return genbase::bench::RunWorkloadFigure(
      argc, argv, "Figure 7: serving stack — cache, admission control, shards",
      "fig7",
      [] {
        genbase::bench::RegisterCacheShardSweep();
        genbase::bench::RegisterOverloadSweep();
      },
      [] {
        int64_t failures = genbase::bench::PrintFigure();
        failures += genbase::bench::RunObservabilityGates();
        failures += genbase::bench::RunProfilerGates();
        return failures;
      });
}
