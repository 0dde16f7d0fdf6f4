// Figure 5 (a-d): SciDB vs SciDB + Xeon Phi coprocessor, single node, across
// dataset sizes, for the four offloadable tasks. Reproduces the paper's
// pattern: meaningful gains on covariance/SVD at larger sizes (compute
// dominates transfer), modest gains on statistics, and essentially none on
// biclustering.

#include <cstdio>

#include "accel/phi_engine.h"
#include "bench/bench_util.h"
#include "engine/engines.h"

namespace genbase::bench {
namespace {

using core::QueryId;

PaperFigure Figure() {
  return {"fig5",
          Axis::kDatasetSize,
          {SingleNodeSystem(engine::SingleNodeEngine("scidb")),
           SingleNodeSystem(
               {"scidb_phi", "SciDB + Xeon Phi", accel::CreatePhiSciDb})},
          {{QueryId::kBiclustering, "Figure 5a: Biclustering Query"},
           {QueryId::kSvd, "Figure 5b: SVD Query"},
           {QueryId::kCovariance, "Figure 5c: Covariance Query"},
           {QueryId::kStatistics, "Figure 5d: Statistics Query"}}};
}

void PrintFigure(const PaperFigure& figure) {
  for (const Panel& panel : figure.panels) PrintPanel(figure, panel);

  std::printf("\n=== Analytics-phase speedup (paper: '1.4-2.6X better ... in "
              "three of the four operations ... for the medium and large "
              "data sets') ===\n");
  for (const Panel& panel : figure.panels) {
    std::printf("%-14s", core::QueryName(panel.query));
    PrintRatioRow(figure, figure.systems[0], figure.systems[1], panel.query,
                  &core::CellResult::analytics_s);
    std::printf("   (small/medium/large)\n");
  }
}

}  // namespace
}  // namespace genbase::bench

int main(int argc, char** argv) {
  return genbase::bench::RunPaperFigure(
      argc, argv,
      "Figure 5: SciDB vs SciDB + Xeon Phi coprocessor (single node)",
      genbase::bench::Figure(), genbase::bench::PrintFigure);
}
