// Figure 6 (beyond the paper): concurrent mixed-workload serving. The
// paper's figures time one cold query per cell; this figure drives a mixed
// Q1-Q5 stream from N concurrent clients against each engine and reports
// achieved throughput plus tail latency (p50/p95/p99) — the serving-oriented
// view of the same systems (cf. SequenceLab / Khushi's genomic-store
// benchmarking, which both stress repeated query load over one-shot runs).
//
// Deterministic by construction: the operation schedule (count and query
// mix) is a pure function of the spec seed, and every completed operation's
// result is verified against core/reference ground truth.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "core/reference.h"
#include "engine/engines.h"
#include "workload/report.h"
#include "workload/runner.h"

namespace genbase::bench {
namespace {

constexpr int kClientCounts[] = {4, 8};

workload::WorkloadSpec MixSpec(int clients) {
  workload::WorkloadSpec spec;
  spec.name = "mixed-q1q5";
  // Interactive-skewed mix: cheap lookups dominate, heavy analytics
  // (biclustering, SVD) arrive as a background trickle.
  spec.mix = {
      {core::QueryId::kRegression, 30},
      {core::QueryId::kCovariance, 20},
      {core::QueryId::kBiclustering, 5},
      {core::QueryId::kSvd, 15},
      {core::QueryId::kStatistics, 30},
  };
  spec.size = core::DatasetSize::kSmall;
  spec.model = workload::ClientModel::kClosedLoop;
  spec.clients = clients;
  spec.warmup_ops = 2 * clients;
  spec.measured_ops = 60;
  spec.seed = 42;
  spec.verify = true;
  return spec;
}

std::map<std::pair<std::string, int>, workload::WorkloadReport>& Reports() {
  static auto* reports =
      new std::map<std::pair<std::string, int>, workload::WorkloadReport>();
  return *reports;
}

// Ground truth depends only on (query, data, params) — compute the five
// reference results once and share them across all grid cells.
const std::map<core::QueryId, core::QueryResult>& SharedTruths() {
  static const auto* truths = [] {
    auto* map = new std::map<core::QueryId, core::QueryResult>();
    const core::QueryParams params = MixSpec(1).params;
    for (core::QueryId q : core::kAllQueries) {
      auto truth = core::RunReferenceQuery(
          q, CachedData(core::DatasetSize::kSmall), params);
      GENBASE_CHECK(truth.ok());
      map->emplace(q, std::move(truth).ValueOrDie());
    }
    return map;
  }();
  return *truths;
}

void RegisterRuns() {
  for (const auto& spec : ServingEngines()) {
    for (int clients : kClientCounts) {
      const std::string name = std::string("fig6/") + spec.key + "/clients:" +
                               std::to_string(clients);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [spec, clients](benchmark::State& state) {
            for (auto _ : state) {
              auto engine = spec.factory();
              workload::WorkloadRunner runner(MixSpec(clients));
              runner.set_ground_truth(SharedTruths());
              auto report =
                  runner.Run(engine.get(),
                             CachedData(core::DatasetSize::kSmall));
              if (!report.ok()) {
                state.SkipWithError(report.status().ToString().c_str());
                return;
              }
              state.counters["qps"] = report->achieved_qps();
              state.counters["p99_ms"] =
                  report->total.latency.Percentile(99) * 1e3;
              Reports()[{spec.key, clients}] = std::move(report).ValueOrDie();
            }
          })
          ->Iterations(1)->Unit(benchmark::kMillisecond);
    }
  }
}

int64_t PrintFigure() {
  std::vector<std::string> engines;
  for (const auto& spec : ServingEngines()) engines.push_back(spec.display);

  std::vector<std::string> x_values;
  std::vector<std::vector<std::string>> cells;
  for (int clients : kClientCounts) {
    x_values.push_back(std::to_string(clients) + " clients");
    std::vector<std::string> row;
    for (const auto& spec : ServingEngines()) {
      auto it = Reports().find({spec.key, clients});
      row.push_back(it == Reports().end() ? "?" : it->second.GridCell());
    }
    cells.push_back(std::move(row));
  }
  workload::PrintGrid(
      "Figure 6: mixed Q1-Q5 workload, throughput + p50/p95/p99 latency",
      "clients", x_values, engines, cells);

  for (const auto& [key, report] : Reports()) report.Print();

  int64_t failures = 0;
  for (const auto& [key, report] : Reports()) {
    failures += report.total.errors + report.total.verify_failures;
  }
  std::printf("\n# verification: %lld operation errors/mismatches across %zu "
              "runs (every completed op checked against core/reference)\n",
              static_cast<long long>(failures), Reports().size());
  return failures;
}

}  // namespace
}  // namespace genbase::bench

int main(int argc, char** argv) {
  genbase::bench::PrintBanner(
      "Figure 6: concurrent mixed workload (serving view)");
  const std::string json_path = genbase::bench::ExtractJsonPath(&argc, argv);
  const genbase::bench::ObsDumpPaths obs_paths =
      genbase::bench::ExtractObsPaths(&argc, argv);
  genbase::bench::RegisterRuns();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  const int64_t failures = genbase::bench::PrintFigure();
  std::vector<genbase::workload::WorkloadReport> reports;
  for (const auto& [key, report] : genbase::bench::Reports()) {
    reports.push_back(report);
  }
  const genbase::Status obs = genbase::bench::WriteObsDumps(obs_paths);
  if (!obs.ok()) {
    std::fprintf(stderr, "%s\n", obs.ToString().c_str());
    return 1;
  }
  return genbase::bench::FigureExitCode(json_path, "fig6", reports, failures);
}
