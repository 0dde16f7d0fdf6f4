// Table 1: analytics speedup of the Xeon Phi coprocessor-based system versus
// the Xeon-based system on SciDB + ScaLAPACK-style distributed kernels, large
// dataset, 1/2/4 nodes. Reproduces the paper's regime: biggest gains at 1
// node (max data per node), shrinking with node count as communication —
// which the coprocessor cannot accelerate — takes a larger share; and
// biclustering barely accelerating at all.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "cluster/cluster_engine.h"
#include "core/driver.h"

namespace genbase::bench {
namespace {

constexpr int kNodeCounts[] = {1, 2, 4};

const std::pair<core::QueryId, const char*> kRows[] = {
    {core::QueryId::kCovariance, "Covariance"},
    {core::QueryId::kSvd, "SVD"},
    {core::QueryId::kStatistics, "Statistics"},
    {core::QueryId::kBiclustering, "Biclustering"},
};

cluster::ClusterEngineOptions HostOptions(int nodes) {
  return cluster::SciDbMnOptions(nodes);
}

cluster::ClusterEngineOptions PhiOptions(int nodes) {
  cluster::ClusterEngineOptions o = cluster::SciDbMnOptions(nodes);
  o.phi_offload = true;
  o.name = "SciDB + Xeon Phi";
  return o;
}

void RegisterCells() {
  for (int nodes : kNodeCounts) {
    for (bool phi : {false, true}) {
      const cluster::ClusterEngineOptions options =
          phi ? PhiOptions(nodes) : HostOptions(nodes);
      for (const auto& [query, label] : kRows) {
        (void)label;
        const std::string name = std::string("table1/") +
                                 (phi ? "phi" : "xeon") + "/n" +
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

void PrintTable() {
  std::printf("\n=== Table 1: analytics speedup, Xeon Phi vs Xeon "
              "(SciDB + ScaLAPACK, large dataset) ===\n");
  std::printf("%-14s %10s %10s %10s    (paper: cov 2.60/1.55/1.54, svd "
              "2.93/2.30/1.37,\n", "Benchmarks", "1 node", "2 nodes",
              "4 nodes");
  std::printf("%-14s %10s %10s %10s     stats 1.40/1.43/1.21, bicluster "
              "1.18/1.05/1.02)\n", "", "", "", "");
  for (const auto& [query, label] : kRows) {
    std::printf("%-14s", label);
    for (int nodes : kNodeCounts) {
      const auto* host =
          FindCell("SciDB", query, core::DatasetSize::kLarge, nodes);
      const auto* phi = FindCell("SciDB + Xeon Phi", query,
                                 core::DatasetSize::kLarge, nodes);
      if (host == nullptr || phi == nullptr || !host->status.ok() ||
          !phi->status.ok() || phi->analytics_s <= 0) {
        std::printf(" %10s", "n/a");
      } else {
        std::printf(" %9.2fx", host->analytics_s / phi->analytics_s);
      }
    }
    std::printf("\n");
  }

  std::printf("\n=== Overall-time speedup (paper: 'up to 1.5X with an "
              "average of around 1.3X' at 1 node) ===\n");
  for (const auto& [query, label] : kRows) {
    std::printf("%-14s", label);
    for (int nodes : kNodeCounts) {
      const auto* host =
          FindCell("SciDB", query, core::DatasetSize::kLarge, nodes);
      const auto* phi = FindCell("SciDB + Xeon Phi", query,
                                 core::DatasetSize::kLarge, nodes);
      if (host == nullptr || phi == nullptr || !host->status.ok() ||
          !phi->status.ok() || phi->total_s <= 0) {
        std::printf(" %10s", "n/a");
      } else {
        std::printf(" %9.2fx", host->total_s / phi->total_s);
      }
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace genbase::bench

int main(int argc, char** argv) {
  return genbase::bench::RunPaperFigure(
      argc, argv, "Table 1: Phi analytics speedup, multi-node",
      genbase::bench::RegisterCells, genbase::bench::PrintTable);
}
