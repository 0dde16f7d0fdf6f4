// Figure 4 (a-b): multi-node regression broken into data management and
// analytics, large dataset, 1/2/4 nodes. The paper: "even when we break out
// data management separately from analytics ... we see suboptimal scaling."

#include "bench/bench_util.h"
#include "cluster/cluster_engine.h"

namespace genbase::bench {
namespace {

using core::CellResult;
using core::QueryId;

PaperFigure Figure() {
  PaperFigure figure{
      "fig4",
      Axis::kNodes,
      {},
      {{QueryId::kRegression,
        "Figure 4a: Linear Regression Data Management, large dataset",
        &CellResult::dm_s},
       {QueryId::kRegression,
        "Figure 4b: Linear Regression Analytics, large dataset",
        &CellResult::analytics_s}}};
  for (const cluster::ClusterSpec& spec : cluster::MultiNodeSystems()) {
    figure.systems.push_back(MultiNodeSystem(spec, spec.options.name));
  }
  return figure;
}

void PrintFigure(const PaperFigure& figure) {
  for (const Panel& panel : figure.panels) PrintPanel(figure, panel);
}

}  // namespace
}  // namespace genbase::bench

int main(int argc, char** argv) {
  return genbase::bench::RunPaperFigure(
      argc, argv,
      "Figure 4: multi-node regression DM vs analytics, large dataset",
      genbase::bench::Figure(), genbase::bench::PrintFigure);
}
