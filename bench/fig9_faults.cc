// Figure 9 (beyond the paper): the serving stack under deterministic fault
// injection — shard crashes, transient execute errors, slow-shard latency
// spikes, and mid-roll reload failures, replayed from seeded fault scripts
// (serving/faults) against the full Q1-Q5 mix. One engine (the first
// serving config) carries the sweep: the fault machinery is layered above
// the engines, so per-engine repetition would measure the same code paths.
//
//   (a) crash failover: 1 of 4 shards crashes at the first op and stays
//       down. Bounded retries move its traffic to the replicas; cheap-class
//       availability must stay >= 99% and goodput within the
//       lost-capacity band of the no-fault baseline.
//   (b) recovery: a three-phase script (pre-fault / crash / recover) runs
//       one measured workload per phase. Post-restore goodput must be
//       >= 40% of pre-fault, and the recovered shard must serve again.
//   (c) transient errors: every execute attempt fails w.p. 0.2; with 6
//       attempts per op the run must complete with zero op-level failures
//       while the retry counters show the recovery work.
//   (d) brown-out: latency spikes degrade 2 of 4 shards; adaptive admission
//       sheds heavy classes first (capacity-scaled heavy cap) while cheap
//       traffic keeps serving.
//   (e) reload healing: an armed mid-roll reload failure quarantines shard
//       0; serving continues on the replicas and the next successful reload
//       heals the fleet — with zero stale hits throughout.
//   (f) determinism: the same script + seed replayed twice (single client)
//       must produce byte-identical fault event logs.
//
// Exit gates: zero op errors/mismatches outside the designed-to-fail
// windows, zero stale hits anywhere, the availability/recovery bands above
// (skipped under sanitizers like fig7's overhead gates), and log equality
// for (f).

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "obs/trace.h"
#include "serving/faults.h"
#include "serving/serving_stack.h"
#include "workload/report.h"
#include "workload/runner.h"

namespace genbase::bench {
namespace {

workload::WorkloadSpec BaseSpec(const char* name) {
  workload::WorkloadSpec spec = ServingMixSpec(name, 47);
  spec.clients = 8;
  spec.warmup_ops = 10;
  spec.measured_ops = 48;
  return spec;
}

/// The cells whose goodput ratios the throughput bands gate (baseline and
/// crash_failover; the recovery phases): enough measured ops that one
/// scheduler stall cannot move a ratio across its limit. Not more: with
/// every request traced (~8 spans each) the tracer drains once per run, so
/// one client thread that serves a whole run must fit its 2048-span ring.
workload::WorkloadSpec BandSpec(const char* name) {
  workload::WorkloadSpec spec = BaseSpec(name);
  spec.measured_ops = 192;
  return spec;
}

/// The cheap (Q1-flavored) classes whose availability the failover gates
/// protect; biclustering and SVD are the heavy tail that may be shed.
bool IsCheapClass(core::QueryId query) {
  return query == core::QueryId::kStatistics ||
         query == core::QueryId::kRegression ||
         query == core::QueryId::kCovariance;
}

double CheapAvailability(const workload::WorkloadReport& r) {
  int64_t scheduled = 0;
  int64_t failed = 0;
  for (const auto& [query, stats] : r.per_query) {
    if (!IsCheapClass(query)) continue;
    scheduled += stats.ops;
    failed += stats.errors + stats.infs + stats.shed();
  }
  return scheduled > 0
             ? static_cast<double>(scheduled - failed) / scheduled
             : 1.0;
}

/// Availability of the one class that is cheap at *every* dataset scale.
/// The brown-out cell's adaptive classifier judges heaviness relative to
/// the cheapest observed class: at smoke scale regression compresses to
/// within a few x of statistics, but at full scale it runs ~40x longer
/// and legitimately classifies heavy — so the brown-out policy itself
/// sheds it, by design, and gating its availability would assert against
/// the mechanism under test. Statistics is the SLO class the policy
/// protects unconditionally.
double StrictCheapAvailability(const workload::WorkloadReport& r) {
  for (const auto& [query, stats] : r.per_query) {
    if (query != core::QueryId::kStatistics || stats.ops <= 0) continue;
    return static_cast<double>(stats.ops - stats.errors - stats.infs -
                               stats.shed()) /
           stats.ops;
  }
  return 1.0;
}

/// Cross-cell gate inputs the benchmark lambdas stash for PrintFigure.
/// Injection totals are read off the injector itself, not the report's
/// measured-phase counter delta: a fault applied during warm-up (a crash at
/// op 0, a window opening) is real but invisible to the delta.
struct GateState {
  bool reload_first_failed = false;
  bool reload_second_ok = false;
  int64_t reload_injected = 0;
  int64_t crash_injected = 0;
  int64_t transient_injected = 0;
  int64_t spikes_injected = 0;
  std::string determinism_log_a;
  std::string determinism_log_b;
};
GateState& Gates() {
  static auto* gates = new GateState();
  return *gates;
}

std::unique_ptr<serving::FaultInjector> MakeInjector(const char* script_text) {
  auto script = serving::FaultScript::Parse(script_text);
  GENBASE_CHECK(script.ok());
  auto injector = serving::FaultInjector::Create(script.ValueOrDie());
  GENBASE_CHECK(injector.ok());
  return std::move(injector).ValueOrDie();
}

/// Shared stack shape for the fault cells. The execute-path cells (crash,
/// transient, brown-out, recovery) run with the cache off: after one warm-up
/// pass the mix's working set fits the cache, and a cache hit never reaches
/// the shards — the fault machinery under test. The reload cells keep the
/// cache on because the epoch-keyed cache *is* their subject.
serving::ServingOptions FaultOptions(serving::FaultInjector* injector,
                                     bool cache_enabled) {
  serving::ServingOptions options;
  options.shards = 4;
  options.cache_enabled = cache_enabled;
  options.single_flight = cache_enabled;
  options.fault_injector = injector;
  options.retry.max_attempts = 6;
  options.retry.initial_backoff_s = 0.0002;
  options.retry.max_backoff_s = 0.002;
  return options;
}

/// Runs one workload through a freshly built stack of the first serving
/// engine and stores its report under `key`.
genbase::Status RunCell(const char* key, const workload::WorkloadSpec& spec,
                        const serving::ServingOptions& options) {
  GENBASE_ASSIGN_OR_RETURN(Reports()[key],
                           RunStack(ServingEngines().front(), spec, options));
  return genbase::Status::OK();
}

// --- cells -------------------------------------------------------------------

void RegisterCells() {
  RegisterCell("fig9/baseline", [] {
    return RunCell("baseline", BandSpec("faults-baseline"),
                   FaultOptions(nullptr, /*cache_enabled=*/false));
  });

  RegisterCell("fig9/crash_failover", []() -> genbase::Status {
    auto injector = MakeInjector("seed 901\n@0 crash 1\n");
    GENBASE_RETURN_NOT_OK(
        RunCell("crash_failover", BandSpec("faults-crash"),
                FaultOptions(injector.get(), /*cache_enabled=*/false)));
    Gates().crash_injected = injector->injected(serving::FaultKind::kCrash);
    return genbase::Status::OK();
  });

  RegisterCell("fig9/recovery", []() -> genbase::Status {
    // One injector, one stack, three measured runs; AdvancePhase moves the
    // script between them so each phase's op indices start at that run's
    // first Serve.
    auto injector = MakeInjector(
        "seed 902\n"
        "phase pre\n"
        "phase fault\n@0 crash 1\n"
        "phase healed\n@0 recover 1\n");
    const core::GenBaseData& data = CachedData(core::DatasetSize::kSmall);
    GENBASE_ASSIGN_OR_RETURN(
        auto stack,
        serving::ServingStack::Create(
            FaultOptions(injector.get(), /*cache_enabled=*/false),
            ServingEngines().front().factory, data));
    const char* phases[] = {"recovery_pre", "recovery_fault",
                            "recovery_healed"};
    const char* specs[] = {"faults-recovery-pre", "faults-recovery-fault",
                           "faults-recovery-healed"};
    for (int phase = 0; phase < 3; ++phase) {
      workload::WorkloadRunner runner(BandSpec(specs[phase]));
      runner.set_truths(&SmallDataTruths());
      GENBASE_ASSIGN_OR_RETURN(Reports()[phases[phase]],
                               runner.Run(stack.get(), data));
      if (phase < 2) injector->AdvancePhase();
    }
    return genbase::Status::OK();
  });

  RegisterCell("fig9/transient_retry", []() -> genbase::Status {
    auto injector = MakeInjector("seed 903\n@0..100000 error * 0.2\n");
    GENBASE_RETURN_NOT_OK(
        RunCell("transient_retry", BaseSpec("faults-transient"),
                FaultOptions(injector.get(), /*cache_enabled=*/false)));
    Gates().transient_injected =
        injector->injected(serving::FaultKind::kTransientError);
    return genbase::Status::OK();
  });

  RegisterCell("fig9/brownout", []() -> genbase::Status {
    auto injector = MakeInjector(
        "seed 904\n"
        "@0..100000 latency 1 0.02\n"
        "@0..100000 latency 2 0.02\n");
    serving::ServingOptions options =
        FaultOptions(injector.get(), /*cache_enabled=*/false);
    // Adaptive admission is the brown-out actor: the capacity fraction
    // (2 healthy + 2 degraded of 4 = 0.75) shrinks the heavy-class cap, so
    // biclustering/SVD shed first while the cheap mix keeps its slots.
    options.admission.adaptive = true;
    options.admission.min_inflight = 2;
    options.admission.max_inflight_cap = 16;
    options.admission.adjust_interval = 8;
    // Fixed queue bound deeper than the client count: the default 2x-limit
    // bound can collapse below the closed-loop population when a scheduler
    // stall shrinks the adaptive limit, queue-full-shedding a *cheap*
    // arrival and flaking the >=99% availability gate. With room for every
    // client, the only shed path left is the brown-out heavy cap — the
    // mechanism under test.
    options.admission.max_queue = 16;
    GENBASE_RETURN_NOT_OK(
        RunCell("brownout", BaseSpec("faults-brownout"), options));
    Gates().spikes_injected =
        injector->injected(serving::FaultKind::kLatencySpike);
    return genbase::Status::OK();
  });

  RegisterCell("fig9/reload_heal", []() -> genbase::Status {
    auto injector = MakeInjector("seed 905\n@0 reload-fail 0\n");
    const core::GenBaseData& data = CachedData(core::DatasetSize::kSmall);
    GENBASE_ASSIGN_OR_RETURN(
        auto stack,
        serving::ServingStack::Create(
            FaultOptions(injector.get(), /*cache_enabled=*/true),
            ServingEngines().front().factory, data));
    serving::ServingStack* s = stack.get();
    // Quarantine window: the reload fails on shard 0 at measure start, the
    // whole measured run serves from the surviving replicas.
    workload::WorkloadRunner runner(BaseSpec("faults-reload-window"));
    runner.set_truths(&SmallDataTruths());
    runner.set_on_measure_start([s, &data] {
      Gates().reload_first_failed = !s->ReloadDataset(data).ok();
    });
    GENBASE_ASSIGN_OR_RETURN(Reports()["reload_window"], runner.Run(s, data));
    // Heal: the next roll succeeds everywhere (the armed failure was
    // consumed), shard 0 rejoins, and a full run verifies clean serving.
    Gates().reload_second_ok = s->ReloadDataset(data).ok();
    workload::WorkloadRunner healed_runner(BaseSpec("faults-reload-healed"));
    healed_runner.set_truths(&SmallDataTruths());
    GENBASE_ASSIGN_OR_RETURN(Reports()["reload_healed"],
                             healed_runner.Run(s, data));
    Gates().reload_injected =
        injector->injected(serving::FaultKind::kReloadFailure);
    return genbase::Status::OK();
  });

  RegisterCell("fig9/determinism", []() -> genbase::Status {
    // Single client, cache off: every op executes, the shard sequence is a
    // pure function of the schedule, so the two replays must emit
    // byte-identical event logs.
    constexpr const char* kScript =
        "seed 906\n"
        "@3 crash 1\n"
        "@20 recover 1\n"
        "@0..40 error * 0.4\n";
    std::string logs[2];
    for (int run = 0; run < 2; ++run) {
      auto injector = MakeInjector(kScript);
      workload::WorkloadSpec spec = BaseSpec("faults-determinism");
      spec.trace_scope = run == 0 ? "a" : "b";  // One schedule, two traces.
      spec.clients = 1;
      spec.warmup_ops = 0;
      spec.measured_ops = 32;
      spec.verify = false;
      serving::ServingOptions options =
          FaultOptions(injector.get(), /*cache_enabled=*/false);
      options.shards = 2;
      GENBASE_RETURN_NOT_OK(RunCell(run == 0 ? "determinism_a"
                                             : "determinism_b",
                                    spec, options));
      logs[run] = injector->EventLog();
    }
    Gates().determinism_log_a = logs[0];
    Gates().determinism_log_b = logs[1];
    return genbase::Status::OK();
  });
}

// --- figure output + gates ---------------------------------------------------

std::string FaultCell(const workload::WorkloadReport& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "%sqps avail=%.3f rt=%lld stale=%lld",
                workload::FormatQps(r.achieved_qps()).c_str(),
                CheapAvailability(r),
                static_cast<long long>(
                    r.counters.Change("serving_retries_total")),
                static_cast<long long>(
                    r.counters.Change("serving_stack_stale_hits_total")));
  return buf;
}

int64_t PrintFigure() {
  {
    const std::vector<std::string> scenarios = {
        "baseline",       "crash_failover",  "recovery_healed",
        "transient_retry", "brownout",       "reload_healed"};
    std::vector<std::vector<std::string>> cells;
    for (const auto& scenario : scenarios) {
      auto it = Reports().find(scenario);
      cells.push_back(
          {it == Reports().end() ? "?" : FaultCell(it->second)});
    }
    workload::PrintGrid(
        "Figure 9: fault injection + failover (goodput, cheap availability, "
        "retries, stale hits)",
        "scenario", scenarios, {ServingEngines().front().display}, cells);
  }
  for (const auto& [key, report] : Reports()) report.Print();

  int64_t failures = 0;
  int64_t stale = 0;
  int64_t gate_misses = 0;
  for (const auto& [key, report] : Reports()) {
    // The determinism replays run a deliberately harsh script (40% error
    // probability over 2 shards, one of them crashed for half the window)
    // whose ops are *expected* to exhaust their retry budget sometimes;
    // their gate is log equality, not op success.
    if (key.rfind("determinism", 0) != 0) {
      failures += report.total.errors + report.total.verify_failures;
    }
    stale += static_cast<int64_t>(
        report.counters.Change("serving_stack_stale_hits_total"));
  }

  const auto find = [](const char* key) -> const workload::WorkloadReport* {
    auto it = Reports().find(key);
    return it == Reports().end() ? nullptr : &it->second;
  };
  const auto* baseline = find("baseline");
  const auto* crash = find("crash_failover");
  const auto* pre = find("recovery_pre");
  const auto* healed = find("recovery_healed");
  const auto* transient = find("transient_retry");
  const auto* brownout = find("brownout");

  // Availability: with 1 of 4 shards down, retries must keep cheap-class
  // availability >= 99% (the crashed shard's ops fail fast and move to a
  // replica — no op-level error survives).
  if (crash != nullptr && CheapAvailability(*crash) < 0.99) {
    std::printf("# GATE: crash_failover cheap availability %.4f < 0.99\n",
                CheapAvailability(*crash));
    ++gate_misses;
  }
  if (crash != nullptr && Gates().crash_injected < 1) {
    std::printf("# GATE: crash_failover injected no crash\n");
    ++gate_misses;
  }
  // Throughput bands on modeled-clock goodput, skipped under sanitizers,
  // which distort the real-seconds share.
  if (!SkipOverheadGates()) {
    // Crash band, at ctest's flags over 200 runs alone and 200 inside a
    // full `ctest -j4`: at 48 measured ops per cell (~10 ms of wall) the
    // ratio read 0.80-1.83 alone and 0.33-3.84 in ctest (quartiles
    // 1.00-1.79), under 0.5 in 3 of 200; at BandSpec's 192 it reads
    // 0.82-3.25 alone (quartiles 1.03-1.12) and 0.72-1.66 in ctest
    // (quartiles 0.93-1.16), never under 0.5.
    if (baseline != nullptr && crash != nullptr) {
      std::printf("# crash_failover band: goodput %.2f / baseline %.2f = "
                  "%.3f (limit 0.5)\n",
                  crash->achieved_qps(), baseline->achieved_qps(),
                  crash->achieved_qps() / baseline->achieved_qps());
      if (crash->achieved_qps() < 0.5 * baseline->achieved_qps()) {
        std::printf(
            "# GATE: crash_failover goodput %.2f < 0.5x baseline %.2f — "
            "losing 1 of 4 replicas must not cost more than the "
            "capacity\n",
            crash->achieved_qps(), baseline->achieved_qps());
        ++gate_misses;
      }
    }
    // Collapse band only: at smoke scale one scheduler stall moves the
    // ratio by tens of percent, and at full scale a handful of ~0.7s SVD
    // ops dominate the window and completion-order luck moves it almost as
    // much. At 48 ops per phase (the crash cells at 480) it fell under 0.4
    // in 2 of 37 `ctest -j4` runs; at BandSpec's 192 it reads 0.82-1.83
    // alone (quartiles 0.98-1.06) and 0.65-1.99 in `ctest -j4` (quartiles
    // 0.88-1.14) over 200 runs each. A recovery that silently failed is
    // caught structurally below (the recovered shard must carry traffic
    // again); this band catches only a wedged stack, so it is deliberately
    // wide — even a still-missing shard would cost ~25%, well inside it.
    if (pre != nullptr && healed != nullptr) {
      std::printf("# post-recovery band: goodput %.2f / pre-fault %.2f = "
                  "%.3f (limit 0.4)\n",
                  healed->achieved_qps(), pre->achieved_qps(),
                  healed->achieved_qps() / pre->achieved_qps());
      if (healed->achieved_qps() < 0.4 * pre->achieved_qps()) {
        std::printf(
            "# GATE: post-recovery goodput %.2f < 40%% of pre-fault %.2f\n",
            healed->achieved_qps(), pre->achieved_qps());
        ++gate_misses;
      }
    }
  }
  // Recovery is structural, not just a throughput band: after `recover`,
  // the crashed shard (index 1 in the script) must carry traffic again —
  // if it were stuck down it would show zero ops in the healed window,
  // deterministically. (Idle high-index shards are fine: JSQ breaks ties
  // low, so a lightly loaded smoke run may never spill onto them.)
  if (healed != nullptr && healed->shards > 1 &&
      healed->counters.Change("serving_shard_ops_total", {{"shard", "1"}}) <
          1) {
    std::printf(
        "# GATE: recovery_healed: recovered shard 1 served no ops\n");
    ++gate_misses;
  }
  // Transient errors: every injected failure must be absorbed by the retry
  // layer (zero op-level errors counted in `failures` above) and the retry
  // counters must show the work actually happened.
  if (transient != nullptr) {
    const double retries =
        transient->counters.Change("serving_retries_total");
    if (retries < 1 || Gates().transient_injected < 1) {
      std::printf("# GATE: transient_retry injected/retried nothing "
                  "(retries=%lld injected=%lld)\n",
                  static_cast<long long>(retries),
                  static_cast<long long>(Gates().transient_injected));
      ++gate_misses;
    }
  }
  // Brown-out: the spike windows must have engaged, and the cheap mix must
  // have kept its availability while degraded.
  if (brownout != nullptr) {
    if (Gates().spikes_injected < 1) {
      std::printf("# GATE: brownout cell saw no latency spike\n");
      ++gate_misses;
    }
    if (StrictCheapAvailability(*brownout) < 0.99) {
      std::printf("# GATE: brownout cheap availability %.4f < 0.99\n",
                  StrictCheapAvailability(*brownout));
      ++gate_misses;
    }
  }
  // Reload healing: exactly one injected mid-roll failure, observed as a
  // failed ReloadDataset, healed by the next successful one.
  if (Reports().count("reload_window") != 0) {
    if (!Gates().reload_first_failed || !Gates().reload_second_ok ||
        Gates().reload_injected != 1) {
      std::printf("# GATE: reload healing sequence wrong "
                  "(first_failed=%d second_ok=%d injected=%lld)\n",
                  Gates().reload_first_failed ? 1 : 0,
                  Gates().reload_second_ok ? 1 : 0,
                  static_cast<long long>(Gates().reload_injected));
      ++gate_misses;
    }
  }
  // Determinism: identical script + seed => identical fault event log.
  if (Reports().count("determinism_a") != 0) {
    if (Gates().determinism_log_a.empty() ||
        Gates().determinism_log_a != Gates().determinism_log_b) {
      std::printf("# GATE: fault event logs differ across identical replays\n"
                  "--- run A ---\n%s\n--- run B ---\n%s\n",
                  Gates().determinism_log_a.c_str(),
                  Gates().determinism_log_b.c_str());
      ++gate_misses;
    }
  }
  // Span-drop gate, as in fig7/fig8: the fault path exercises every span
  // site; the lock-free rings must never overflow at this scale.
  const int64_t dropped = obs::Tracer::Global().spans_dropped();
  if (dropped != 0) {
    std::printf("# GATE: tracer dropped %lld spans (ring overflow)\n",
                static_cast<long long>(dropped));
    ++gate_misses;
  }

  std::printf(
      "\n# verification: %lld op errors/mismatches, %lld stale hits, "
      "%lld gate misses across %zu runs (injected faults are absorbed by "
      "retries/failover — any surviving op failure is a real one)\n",
      static_cast<long long>(failures), static_cast<long long>(stale),
      static_cast<long long>(gate_misses), Reports().size());
  return failures + stale + gate_misses;
}

}  // namespace
}  // namespace genbase::bench

int main(int argc, char** argv) {
  return genbase::bench::RunWorkloadFigure(
      argc, argv,
      "Figure 9: deterministic fault injection — failover, retries, "
      "brown-out degradation",
      "fig9", genbase::bench::RegisterCells, genbase::bench::PrintFigure);
}
