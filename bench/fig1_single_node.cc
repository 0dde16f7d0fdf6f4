// Figure 1 (a-e): overall single-node performance of the seven system
// configurations on the five benchmark queries across three dataset sizes.
// Reproduces the paper's headline chart: SciDB fastest, external-R configs
// paying glue, Madlib's interpreted SVD/statistics blowing up, Hadoop one to
// two orders slower, and Vanilla R failing on the large dataset.

#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "engine/engines.h"

namespace genbase::bench {
namespace {

using core::CellResult;
using core::DatasetSize;
using core::QueryId;

PaperFigure Figure() {
  // Paper panel order: (a) regression (b) biclustering (c) SVD (d)
  // covariance (e) statistics.
  PaperFigure figure{
      "fig1",
      Axis::kDatasetSize,
      {},
      {{QueryId::kRegression, "Figure 1a: Linear Regression Query"},
       {QueryId::kBiclustering, "Figure 1b: Biclustering Query"},
       {QueryId::kSvd, "Figure 1c: SVD Query"},
       {QueryId::kCovariance, "Figure 1d: Covariance Query"},
       {QueryId::kStatistics, "Figure 1e: Statistics Query"}}};
  for (const auto& spec : engine::kSingleNodeEngines) {
    figure.systems.push_back(SingleNodeSystem(spec));
  }
  return figure;
}

void PrintFigure(const PaperFigure& figure) {
  for (const Panel& panel : figure.panels) PrintPanel(figure, panel);

  // Section 4.3's scaling claims: growth factors medium -> large per engine
  // for the regression task (the paper: "plots for all other systems rise
  // sharply ... SciDB appears to be approximately linear"; dataset cells
  // grow 4x from medium to large).
  std::printf("\n=== Section 4.3: medium->large growth factor, regression "
              "(cells grow 4.0x) ===\n");
  for (const FigureSystem& system : figure.systems) {
    const CellResult* medium =
        FindCell(system, QueryId::kRegression, {DatasetSize::kMedium});
    const CellResult* large =
        FindCell(system, QueryId::kRegression, {DatasetSize::kLarge});
    const std::optional<double> growth =
        CellRatio(large, medium, &CellResult::total_s);
    if (!growth) {
      std::printf("%-24s growth: n/a\n", system.display.c_str());
      continue;
    }
    std::printf(
        "%-24s growth: %5.2fx  (dm %5.2fx, analytics %5.2fx)\n",
        system.display.c_str(), *growth,
        CellRatio(large, medium, &CellResult::dm_s).value_or(0.0),
        CellRatio(large, medium, &CellResult::analytics_s).value_or(0.0));
  }
}

}  // namespace
}  // namespace genbase::bench

int main(int argc, char** argv) {
  return genbase::bench::RunPaperFigure(
      argc, argv, "Figure 1: single-node overall performance",
      genbase::bench::Figure(), genbase::bench::PrintFigure);
}
