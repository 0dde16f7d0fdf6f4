// Table 1: analytics speedup of the Xeon Phi coprocessor-based system versus
// the Xeon-based system on SciDB + ScaLAPACK-style distributed kernels, large
// dataset, 1/2/4 nodes. Reproduces the paper's regime: biggest gains at 1
// node (max data per node), shrinking with node count as communication —
// which the coprocessor cannot accelerate — takes a larger share; and
// biclustering barely accelerating at all.

#include <cstdio>

#include "bench/bench_util.h"
#include "cluster/cluster_engine.h"

namespace genbase::bench {
namespace {

using core::CellResult;
using core::QueryId;

PaperFigure Figure() {
  return {"table1",
          Axis::kNodes,
          {MultiNodeSystem(cluster::ClusterConfig("scidb"), "xeon"),
           MultiNodeSystem(cluster::ClusterConfig("scidb_phi"), "phi")},
          {{QueryId::kCovariance, "Covariance"},
           {QueryId::kSvd, "SVD"},
           {QueryId::kStatistics, "Statistics"},
           {QueryId::kBiclustering, "Biclustering"}}};
}

/// One row per panel: the host/Phi ratio of `field` at 1, 2 and 4 nodes.
void PrintSpeedups(const PaperFigure& figure, double CellResult::*field) {
  for (const Panel& panel : figure.panels) {
    std::printf("%-14s", panel.title);
    PrintRatioRow(figure, figure.systems[0], figure.systems[1], panel.query,
                  field);
    std::printf("\n");
  }
}

void PrintTable(const PaperFigure& figure) {
  std::printf("\n=== Table 1: analytics speedup, Xeon Phi vs Xeon "
              "(SciDB + ScaLAPACK, large dataset) ===\n");
  std::printf("%-14s %10s %10s %10s    (paper: cov 2.60/1.55/1.54, svd "
              "2.93/2.30/1.37,\n", "Benchmarks", "1 node", "2 nodes",
              "4 nodes");
  std::printf("%-14s %10s %10s %10s     stats 1.40/1.43/1.21, bicluster "
              "1.18/1.05/1.02)\n", "", "", "", "");
  PrintSpeedups(figure, &CellResult::analytics_s);

  std::printf("\n=== Overall-time speedup (paper: 'up to 1.5X with an "
              "average of around 1.3X' at 1 node) ===\n");
  PrintSpeedups(figure, &CellResult::total_s);
}

}  // namespace
}  // namespace genbase::bench

int main(int argc, char** argv) {
  return genbase::bench::RunPaperFigure(
      argc, argv, "Table 1: Phi analytics speedup, multi-node",
      genbase::bench::Figure(), genbase::bench::PrintTable);
}
