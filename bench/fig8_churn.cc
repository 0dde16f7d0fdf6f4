// Figure 8 (beyond the paper): the serving stack under dataset churn and
// stampede load — the two failure modes a result cache invites. Two sweeps
// per serving engine over the small dataset:
//
//   (a) reload under load, closed loop: a churn thread reloads every shard's
//       dataset (rolling drain-and-reload) repeatedly while the full query
//       mix is being served through the cache. Correctness is the point:
//       every served op — cached, coalesced or executed — is verified
//       against core/reference, and the stack's epoch-keyed cache must show
//       zero stale hits while reporting the reloads and the entries each
//       one invalidated.
//
//   (b) stampede, open loop at 4x measured capacity: every client wants the
//       same handful of keys the instant the run starts (cold cache, one
//       parameter variant), which without stampede control multiplies one
//       computation by the client count. Swept with single-flight off and
//       on; the adaptive target-delay admission controller (per-query-class
//       service model) guards the execution tier in both cells.
//
// Exit gates, beyond fig6/fig7's zero errors/mismatches: zero stale hits
// (epoch-mismatched serves) across all runs, at least one dataset reload
// observed inside a measured window, and at least one coalesced miss in the
// single-flight stampede cells that ran at measured capacity.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "obs/trace.h"
#include "serving/serving_stack.h"
#include "workload/report.h"
#include "workload/runner.h"

namespace genbase::bench {
namespace {

constexpr double kStampedeLoadMultiplier = 4.0;

/// All cells run one schedule; `cell` gives each its own trace ids.
workload::WorkloadSpec BaseSpec(int param_variants,
                                const std::string& cell) {
  workload::WorkloadSpec spec = ServingMixSpec("churn-mix", 43);
  spec.trace_scope = cell;
  spec.clients = 8;
  spec.warmup_ops = 10;
  spec.measured_ops = 48;
  spec.param_variants = param_variants;
  return spec;
}

std::string RunKey(const char* engine, const char* scenario) {
  return std::string(engine) + "/" + scenario;
}

// --- (a) reload under load ---------------------------------------------------

void RegisterChurnSweep() {
  for (const auto& engine : ServingEngines()) {
    const std::string name = std::string("fig8a/") + engine.key + "/churn";
    RegisterCell(name, [engine, name]() -> genbase::Status {
      const core::GenBaseData& data = CachedData(core::DatasetSize::kSmall);
      serving::ServingOptions options;
      options.shards = 2;
      options.cache_enabled = true;
      options.single_flight = true;
      GENBASE_ASSIGN_OR_RETURN(
          auto stack,
          serving::ServingStack::Create(options, engine.factory, data));
      serving::ServingStack* s = stack.get();

      // Churn: one synchronous reload at measure start (after the counter
      // baseline snapshot, so it is inside the measured delta by
      // construction — the warm cache is invalidated under the
      // measurement's nose), then a background thread — spawned from the
      // same hook, so it neither runs nor spins during warm-up — keeps
      // rolling reloads while ops are in flight. Reloads carry the same
      // data — epochs still advance, entries still invalidate — so
      // reference truths stay valid for every op.
      std::atomic<bool> stop{false};
      std::thread churn;

      workload::WorkloadRunner runner(BaseSpec(2, name));
      runner.set_truths(&SmallDataTruths());
      runner.set_on_measure_start([&churn, &stop, s, &data] {
        GENBASE_CHECK(s->ReloadDataset(data).ok());
        churn = std::thread([&stop, s, &data] {
          while (!stop.load(std::memory_order_acquire)) {
            GENBASE_CHECK(s->ReloadDataset(data).ok());
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
        });
      });
      auto report = runner.Run(s, data);
      stop.store(true, std::memory_order_release);
      if (churn.joinable()) churn.join();
      GENBASE_ASSIGN_OR_RETURN(Reports()[RunKey(engine.key, "churn")],
                               std::move(report));
      return genbase::Status::OK();
    });
  }
}

// --- (b) stampede at 4x capacity --------------------------------------------

void RegisterStampedeSweep() {
  for (const auto& engine : ServingEngines()) {
    for (bool coalesce : {false, true}) {
      const std::string name = std::string("fig8b/") + engine.key +
                               "/single_flight:" + (coalesce ? "on" : "off");
      RegisterCell(name, [engine, coalesce, name]() -> genbase::Status {
        // Capacity reference: the churn cell's closed-loop goodput
        // (benchmark ordering guarantees fig8a already ran). Offered load is
        // a multiple of what this engine actually serves, so 4x means the
        // same stress for every engine.
        const Capacity capacity = MeasuredCapacity(
            RunKey(engine.key, "churn"), std::string("fig8b/") + engine.key);

        // Cold cache + one parameter variant: the whole fleet wants the same
        // five keys at once. No warm-up — the stampede IS the measurement.
        workload::WorkloadSpec spec = BaseSpec(1, name);
        spec.model = workload::ClientModel::kOpenLoopPoisson;
        spec.arrival_rate_qps = capacity.goodput_qps * kStampedeLoadMultiplier;
        spec.clients = 12;
        spec.warmup_ops = 0;

        serving::ServingOptions options;
        options.shards = 2;
        options.cache_enabled = true;
        options.single_flight = coalesce;
        // Adaptive admission: the controller learns per-query-class service
        // times and derives the inflight limit from the observed queue delay
        // against a target of ~2x the measured closed-loop mean — no
        // hand-tuned max_inflight anywhere.
        options.admission.adaptive = true;
        options.admission.target_queue_delay_s =
            std::clamp(2 * capacity.mean_latency_s, 0.001, 5.0);
        options.admission.min_inflight = 1;
        options.admission.max_inflight_cap = 16;
        options.admission.adjust_interval = 8;
        options.admission.max_queue_delay_s =
            std::clamp(4 * capacity.mean_latency_s, 0.002, 5.0);
        GENBASE_ASSIGN_OR_RETURN(
            Reports()[RunKey(engine.key,
                             coalesce ? "stampede_sf" : "stampede_raw")],
            RunStack(engine, spec, options));
        return genbase::Status::OK();
      });
    }
  }
}

// --- figure output + gates ---------------------------------------------------

std::string ChurnCell(const workload::WorkloadReport& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%sqps rl=%lld inv=%lld stale=%lld",
                workload::FormatQps(r.achieved_qps()).c_str(),
                static_cast<long long>(
                    r.counters.Change("serving_stack_reloads_total")),
                static_cast<long long>(
                    r.counters.Change("serving_cache_invalidated_total")),
                static_cast<long long>(
                    r.counters.Change("serving_stack_stale_hits_total")));
  return buf;
}

std::string StampedeCell(const workload::WorkloadReport& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s/%sqps coal=%lld exec=%lld lim=%lld",
                workload::FormatQps(r.real_goodput_qps()).c_str(),
                workload::FormatQps(r.offered_qps).c_str(),
                static_cast<long long>(
                    r.counters.Change("serving_flight_coalesced_total")),
                static_cast<long long>(
                    r.counters.Change("serving_shard_ops_total")),
                static_cast<long long>(
                    r.counters.End("serving_admission_limit")));
  return buf;
}

int64_t PrintFigure() {
  std::vector<std::string> engines;
  for (const auto& engine : ServingEngines()) engines.push_back(engine.display);

  {
    std::vector<std::vector<std::string>> cells;
    std::vector<std::string> row;
    for (const auto& engine : ServingEngines()) {
      auto it = Reports().find(RunKey(engine.key, "churn"));
      row.push_back(it == Reports().end() ? "?" : ChurnCell(it->second));
    }
    cells.push_back(std::move(row));
    workload::PrintGrid(
        "Figure 8a: reload-under-load, 2 shards + epoch-keyed cache "
        "(goodput, reloads, invalidated entries, stale hits)",
        "scenario", {"rolling reloads"}, engines, cells);
  }
  {
    std::vector<std::string> x_values;
    std::vector<std::vector<std::string>> cells;
    for (const char* scenario : {"stampede_raw", "stampede_sf"}) {
      x_values.push_back(scenario == std::string("stampede_raw")
                             ? "4x load, no coalescing"
                             : "4x load, single-flight");
      std::vector<std::string> row;
      for (const auto& engine : ServingEngines()) {
        auto it = Reports().find(RunKey(engine.key, scenario));
        row.push_back(it == Reports().end() ? "?" : StampedeCell(it->second));
      }
      cells.push_back(std::move(row));
    }
    workload::PrintGrid(
        "Figure 8b: cold-cache stampede at 4x capacity, adaptive admission "
        "(goodput/offered, coalesced misses, engine executions, limit)",
        "offered load", x_values, engines, cells);
  }

  for (const auto& [key, report] : Reports()) report.Print();

  // Gates. Correctness: zero op errors/mismatches and zero stale hits
  // anywhere. Machinery: every churn cell observed >= 1 mid-measurement
  // reload (deterministic — the first reload runs synchronously at measure
  // start), and the single-flight stampede cells coalesced >= 1 miss in
  // aggregate (per-cell would be flaky: at smoke scale a fast engine can
  // compute all five hot keys before a second miss lands on any of them).
  // Only a stampede cell whose engine's churn cell ran offered 4x measured
  // capacity; one run at the fallback capacity forms no stampede.
  int64_t failures = 0;
  int64_t stale = 0;
  int64_t coalesced_sf = 0;
  int64_t stampede_cells = 0;
  int64_t gate_misses = 0;
  for (const auto& engine : ServingEngines()) {
    const auto sf = Reports().find(RunKey(engine.key, "stampede_sf"));
    if (sf == Reports().end() ||
        Reports().count(RunKey(engine.key, "churn")) == 0) {
      continue;
    }
    ++stampede_cells;
    coalesced_sf += static_cast<int64_t>(
        sf->second.counters.Change("serving_flight_coalesced_total"));
  }
  for (const auto& [key, report] : Reports()) {
    failures += report.total.errors + report.total.verify_failures;
    stale += static_cast<int64_t>(
        report.counters.Change("serving_stack_stale_hits_total"));
    if (key.find("/churn") != std::string::npos &&
        report.counters.Change("serving_stack_reloads_total") < 1) {
      std::printf("# GATE: %s saw no reload inside the measured window\n",
                  key.c_str());
      ++gate_misses;
    }
  }
  if (stampede_cells == 0) {
    std::printf(
        "# coalescing gate SKIP: no single-flight stampede cell ran at "
        "measured capacity\n");
  } else if (coalesced_sf < 1) {
    std::printf(
        "# GATE: no single-flight cell coalesced a concurrent miss\n");
    ++gate_misses;
  }
  // Span-drop gate: churn + stampede exercise every span site under
  // contention; at this scale the lock-free rings must never overflow.
  const int64_t dropped = obs::Tracer::Global().spans_dropped();
  if (dropped != 0) {
    std::printf("# GATE: tracer dropped %lld spans (ring overflow)\n",
                static_cast<long long>(dropped));
    ++gate_misses;
  }
  std::printf(
      "\n# verification: %lld operation errors/mismatches, %lld stale hits "
      "(epoch-mismatched serves), %lld coalesced misses in single-flight "
      "cells, %lld gate misses across %zu runs\n",
      static_cast<long long>(failures), static_cast<long long>(stale),
      static_cast<long long>(coalesced_sf),
      static_cast<long long>(gate_misses), Reports().size());
  return failures + stale + gate_misses;
}

}  // namespace
}  // namespace genbase::bench

int main(int argc, char** argv) {
  return genbase::bench::RunWorkloadFigure(
      argc, argv,
      "Figure 8: serving under churn — epoch invalidation, single-flight, "
      "adaptive admission",
      "fig8",
      [] {
        genbase::bench::RegisterChurnSweep();
        genbase::bench::RegisterStampedeSweep();
      },
      genbase::bench::PrintFigure);
}
