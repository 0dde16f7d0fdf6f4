// Figure 2 (a-b): data management vs analytics breakdown of the regression
// task, single node. The paper omits Postgres from this chart ("this
// breakdown is not available for Postgres"), which we mirror.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/driver.h"
#include "workload/report.h"
#include "engine/engines.h"

namespace genbase::bench {
namespace {

struct EngineSpec {
  const char* key;
  const char* display;
  std::unique_ptr<core::Engine> (*factory)();
};

const EngineSpec kEngines[] = {
    {"col_r", "Column store + R", engine::CreateColumnStoreR},
    {"col_udf", "Column store + UDFs", engine::CreateColumnStoreUdf},
    {"hadoop", "Hadoop", engine::CreateHadoop},
    {"scidb", "SciDB", engine::CreateSciDb},
    {"r", "Vanilla R", engine::CreateVanillaR},
};

void RegisterCells() {
  for (const auto& spec : kEngines) {
    for (core::DatasetSize size : kBenchSizes) {
      const std::string name = std::string("fig2/") + spec.key + "/" +
                               core::DatasetSizeName(size);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [spec, size](benchmark::State& state) {
            for (auto _ : state) {
              const core::CellResult cell = RunSingleNodeCell(
                  spec.key, spec.factory, core::QueryId::kRegression, size);
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
  for (const auto& spec : kEngines) engines.push_back(spec.display);
  std::vector<std::string> x_values;
  for (core::DatasetSize s : kBenchSizes) {
    x_values.push_back(core::DatasetSizeName(s));
  }
  const struct {
    const char* title;
    double core::CellResult::*field;
  } panels[] = {
      {"Figure 2a: Linear Regression Data Management",
       &core::CellResult::dm_s},
      {"Figure 2b: Linear Regression Analytics",
       &core::CellResult::analytics_s},
  };
  for (const auto& panel : panels) {
    std::vector<std::vector<std::string>> cells;
    for (core::DatasetSize s : kBenchSizes) {
      std::vector<std::string> row;
      for (const auto& spec : kEngines) {
        row.push_back(CellFieldDisplay(
            FindCell(spec.display, core::QueryId::kRegression, s),
            panel.field));
      }
      cells.push_back(std::move(row));
    }
    workload::PrintGrid(panel.title, "dataset", x_values, engines, cells);
  }
  // Glue share (the copy/reformat cost the paper highlights).
  std::printf("\n=== Glue (copy/reformat) share of data management, "
              "large dataset ===\n");
  for (const auto& spec : kEngines) {
    const auto* cell = FindCell(spec.display, core::QueryId::kRegression,
                                core::DatasetSize::kLarge);
    if (cell == nullptr || !cell->status.ok() || cell->dm_s <= 0) continue;
    std::printf("%-24s glue %6.3fs of dm %6.3fs (%4.1f%%)\n", spec.display,
                cell->glue_s, cell->dm_s,
                100.0 * cell->glue_s / cell->dm_s);
  }
}

}  // namespace
}  // namespace genbase::bench

int main(int argc, char** argv) {
  return genbase::bench::RunPaperFigure(
      argc, argv,
      "Figure 2: regression DM vs analytics breakdown (single node)",
      genbase::bench::RegisterCells, genbase::bench::PrintFigure);
}
