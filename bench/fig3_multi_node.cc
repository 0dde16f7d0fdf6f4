// Figure 3 (a-e): overall multi-node performance on the large dataset as the
// cluster grows from 1 to 4 nodes, for the paper's five multi-node systems.
// Reproduces the headline scaling findings: sub-linear speedups everywhere,
// SciDB's covariance hurt by the Gram all-reduce when going 1 -> 2 nodes,
// and pbdR scaling best thanks to ScaLAPACK-style distributed analytics.

#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "cluster/cluster_engine.h"

namespace genbase::bench {
namespace {

using core::CellResult;
using core::DatasetSize;
using core::QueryId;

PaperFigure Figure() {
  PaperFigure figure{
      "fig3",
      Axis::kNodes,
      {},
      {{QueryId::kRegression,
        "Figure 3a: Linear Regression Query, large dataset"},
       {QueryId::kBiclustering, "Figure 3b: Biclustering Query, large dataset"},
       {QueryId::kSvd, "Figure 3c: SVD Query, large dataset"},
       {QueryId::kCovariance, "Figure 3d: Covariance Query, large dataset"},
       {QueryId::kStatistics, "Figure 3e: Statistics Query, large dataset"}}};
  for (const cluster::ClusterSpec& spec : cluster::MultiNodeSystems()) {
    figure.systems.push_back(MultiNodeSystem(spec, spec.options.name));
  }
  return figure;
}

void PrintFigure(const PaperFigure& figure) {
  for (const Panel& panel : figure.panels) PrintPanel(figure, panel);

  std::printf("\n=== Speedup 1 -> 4 nodes (overall; paper: 'no systems "
              "offered linear speedup') ===\n");
  for (const FigureSystem& system : figure.systems) {
    for (const Panel& panel : figure.panels) {
      const std::optional<double> speedup =
          CellRatio(FindCell(system, panel.query, {DatasetSize::kLarge, 1}),
                    FindCell(system, panel.query, {DatasetSize::kLarge, 4}),
                    &CellResult::total_s);
      if (!speedup) continue;
      std::printf("%-24s %-14s %5.2fx\n", system.display.c_str(),
                  core::QueryName(panel.query), *speedup);
    }
  }
}

}  // namespace
}  // namespace genbase::bench

int main(int argc, char** argv) {
  return genbase::bench::RunPaperFigure(
      argc, argv, "Figure 3: multi-node overall performance, large dataset",
      genbase::bench::Figure(), genbase::bench::PrintFigure);
}
