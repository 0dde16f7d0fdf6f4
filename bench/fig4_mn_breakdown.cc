// Figure 4 (a-b): multi-node regression broken into data management and
// analytics, large dataset, 1/2/4 nodes. The paper: "even when we break out
// data management separately from analytics ... we see suboptimal scaling."

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/cluster_engine.h"
#include "core/driver.h"
#include "workload/report.h"

namespace genbase::bench {
namespace {

constexpr int kNodeCounts[] = {1, 2, 4};

using OptionsFactory = cluster::ClusterEngineOptions (*)(int);
const std::pair<const char*, OptionsFactory> kSystems[] = {
    {"Column store + pbdR", cluster::ColumnStorePbdrOptions},
    {"Column store + UDFs", cluster::ColumnStoreUdfMnOptions},
    {"Hadoop", cluster::HadoopMnOptions},
    {"pbdR", cluster::PbdrOptions},
    {"SciDB", cluster::SciDbMnOptions},
};

void RegisterCells() {
  for (const auto& [display, factory] : kSystems) {
    for (int nodes : kNodeCounts) {
      const cluster::ClusterEngineOptions options = factory(nodes);
      const std::string name =
          std::string("fig4/") + display + "/n" + std::to_string(nodes);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [options](benchmark::State& state) {
            for (auto _ : state) {
              const core::CellResult cell =
                  RunClusterCell(options, core::QueryId::kRegression,
                                 core::DatasetSize::kLarge);
              state.SetIterationTime(std::max(cell.total_s, 1e-9));
              state.SetLabel("dm=" + workload::FormatSeconds(cell.dm_s) +
                             " analytics=" +
                             workload::FormatSeconds(cell.analytics_s));
            }
          })
          ->UseManualTime()
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void PrintFigure() {
  std::vector<std::string> engines;
  for (const auto& [display, factory] : kSystems) {
    (void)factory;
    engines.push_back(display);
  }
  const std::vector<std::string> x_values = {"1 node", "2 nodes", "4 nodes"};
  const struct {
    const char* title;
    double core::CellResult::*field;
  } panels[] = {
      {"Figure 4a: Linear Regression Data Management, large dataset",
       &core::CellResult::dm_s},
      {"Figure 4b: Linear Regression Analytics, large dataset",
       &core::CellResult::analytics_s},
  };
  for (const auto& panel : panels) {
    std::vector<std::vector<std::string>> cells;
    for (int nodes : kNodeCounts) {
      std::vector<std::string> row;
      for (const auto& [display, factory] : kSystems) {
        (void)factory;
        row.push_back(CellFieldDisplay(
            FindCell(display, core::QueryId::kRegression,
                     core::DatasetSize::kLarge, nodes),
            panel.field));
      }
      cells.push_back(std::move(row));
    }
    workload::PrintGrid(panel.title, "nodes", x_values, engines, cells);
  }
}

}  // namespace
}  // namespace genbase::bench

int main(int argc, char** argv) {
  return genbase::bench::RunPaperFigure(
      argc, argv,
      "Figure 4: multi-node regression DM vs analytics, large dataset",
      genbase::bench::RegisterCells, genbase::bench::PrintFigure);
}
