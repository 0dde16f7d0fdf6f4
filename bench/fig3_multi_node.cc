// Figure 3 (a-e): overall multi-node performance on the large dataset as the
// cluster grows from 1 to 4 nodes, for the paper's five multi-node systems.
// Reproduces the headline scaling findings: sub-linear speedups everywhere,
// SciDB's covariance hurt by the Gram all-reduce when going 1 -> 2 nodes,
// and pbdR scaling best thanks to ScaLAPACK-style distributed analytics.

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

const std::pair<core::QueryId, const char*> kPanels[] = {
    {core::QueryId::kRegression,
     "Figure 3a: Linear Regression Query, large dataset"},
    {core::QueryId::kBiclustering,
     "Figure 3b: Biclustering Query, large dataset"},
    {core::QueryId::kSvd, "Figure 3c: SVD Query, large dataset"},
    {core::QueryId::kCovariance,
     "Figure 3d: Covariance Query, large dataset"},
    {core::QueryId::kStatistics,
     "Figure 3e: Statistics Query, large dataset"},
};

void RegisterCells() {
  for (const auto& [display, factory] : kSystems) {
    for (int nodes : kNodeCounts) {
      const cluster::ClusterEngineOptions options = factory(nodes);
      for (const auto& [query, title] : kPanels) {
        (void)title;
        const std::string name = std::string("fig3/") + display + "/n" +
                                 std::to_string(nodes) + "/" +
                                 core::QueryName(query);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [options, query](benchmark::State& state) {
              for (auto _ : state) {
                const core::CellResult cell = RunClusterCell(
                    options, query, core::DatasetSize::kLarge);
                state.SetIterationTime(std::max(cell.total_s, 1e-9));
                state.SetLabel(cell.Display());
              }
            })
            ->UseManualTime()
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

void PrintFigure() {
  std::vector<std::string> engines;
  for (const auto& [display, factory] : kSystems) {
    (void)factory;
    engines.push_back(display);
  }
  std::vector<std::string> x_values = {"1 node", "2 nodes", "4 nodes"};
  for (const auto& [query, title] : kPanels) {
    std::vector<std::vector<std::string>> cells;
    for (int nodes : kNodeCounts) {
      std::vector<std::string> row;
      for (const auto& [display, factory] : kSystems) {
        (void)factory;
        row.push_back(
            CellDisplay(display, query, core::DatasetSize::kLarge, nodes));
      }
      cells.push_back(std::move(row));
    }
    workload::PrintGrid(title, "nodes", x_values, engines, cells);
  }

  std::printf("\n=== Speedup 1 -> 4 nodes (overall; paper: 'no systems "
              "offered linear speedup') ===\n");
  for (const auto& [display, factory] : kSystems) {
    (void)factory;
    for (const auto& [query, title] : kPanels) {
      (void)title;
      const auto* one =
          FindCell(display, query, core::DatasetSize::kLarge, 1);
      const auto* four =
          FindCell(display, query, core::DatasetSize::kLarge, 4);
      if (one == nullptr || four == nullptr || !one->status.ok() ||
          !four->status.ok() || four->total_s <= 0) {
        continue;
      }
      std::printf("%-24s %-14s %5.2fx\n", display, core::QueryName(query),
                  one->total_s / four->total_s);
    }
  }
}

}  // namespace
}  // namespace genbase::bench

int main(int argc, char** argv) {
  return genbase::bench::RunPaperFigure(
      argc, argv, "Figure 3: multi-node overall performance, large dataset",
      genbase::bench::RegisterCells, genbase::bench::PrintFigure);
}
