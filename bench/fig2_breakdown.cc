// Figure 2 (a-b): data management vs analytics breakdown of the regression
// task, single node. The paper omits Postgres from this chart ("this
// breakdown is not available for Postgres"), which we mirror.

#include <cstdio>

#include "bench/bench_util.h"
#include "engine/engines.h"

namespace genbase::bench {
namespace {

using core::CellResult;
using core::QueryId;

PaperFigure Figure() {
  PaperFigure figure{"fig2",
                     Axis::kDatasetSize,
                     {},
                     {{QueryId::kRegression,
                       "Figure 2a: Linear Regression Data Management",
                       &CellResult::dm_s},
                      {QueryId::kRegression,
                       "Figure 2b: Linear Regression Analytics",
                       &CellResult::analytics_s}}};
  for (const char* key : {"col_r", "col_udf", "hadoop", "scidb", "r"}) {
    figure.systems.push_back(SingleNodeSystem(engine::SingleNodeEngine(key)));
  }
  return figure;
}

void PrintFigure(const PaperFigure& figure) {
  for (const Panel& panel : figure.panels) PrintPanel(figure, panel);
  // Glue share (the copy/reformat cost the paper highlights).
  std::printf("\n=== Glue (copy/reformat) share of data management, "
              "large dataset ===\n");
  for (const FigureSystem& system : figure.systems) {
    const CellResult* cell =
        FindCell(system, QueryId::kRegression, {core::DatasetSize::kLarge});
    if (cell == nullptr || !cell->status.ok() || cell->dm_s <= 0) continue;
    std::printf("%-24s glue %6.3fs of dm %6.3fs (%4.1f%%)\n",
                system.display.c_str(), cell->glue_s, cell->dm_s,
                100.0 * cell->glue_s / cell->dm_s);
  }
}

}  // namespace
}  // namespace genbase::bench

int main(int argc, char** argv) {
  return genbase::bench::RunPaperFigure(
      argc, argv,
      "Figure 2: regression DM vs analytics breakdown (single node)",
      genbase::bench::Figure(), genbase::bench::PrintFigure);
}
