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

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "workload/report.h"
#include "workload/runner.h"

namespace genbase::bench {
namespace {

constexpr int kClientCounts[] = {4, 8};

/// All cells run one schedule; `cell` gives each its own trace ids.
workload::WorkloadSpec MixSpec(int clients, const std::string& cell) {
  workload::WorkloadSpec spec = ServingMixSpec("mixed-q1q5", 42);
  spec.trace_scope = cell;
  spec.clients = clients;
  spec.warmup_ops = 2 * clients;
  spec.measured_ops = 60;
  return spec;
}

std::string RunKey(const char* engine, int clients) {
  return std::string(engine) + "/c" + std::to_string(clients);
}

void RegisterRuns() {
  for (const auto& spec : ServingEngines()) {
    for (int clients : kClientCounts) {
      const std::string name = std::string("fig6/") + spec.key + "/clients:" +
                               std::to_string(clients);
      RegisterCell(name, [spec, clients, name]() -> genbase::Status {
        auto engine = spec.factory();
        workload::WorkloadRunner runner(MixSpec(clients, name));
        runner.set_truths(&SmallDataTruths());
        GENBASE_ASSIGN_OR_RETURN(
            Reports()[RunKey(spec.key, clients)],
            runner.Run(engine.get(), CachedData(core::DatasetSize::kSmall)));
        return genbase::Status::OK();
      });
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
      auto it = Reports().find(RunKey(spec.key, clients));
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
  return genbase::bench::RunWorkloadFigure(
      argc, argv, "Figure 6: concurrent mixed workload (serving view)", "fig6",
      genbase::bench::RegisterRuns, genbase::bench::PrintFigure);
}
