// Figure 1 (a-e): overall single-node performance of the seven system
// configurations on the five benchmark queries across three dataset sizes.
// Reproduces the paper's headline chart: SciDB fastest, external-R configs
// paying glue, Madlib's interpreted SVD/statistics blowing up, Hadoop one to
// two orders slower, and Vanilla R failing on the large dataset.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
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

// Paper figure-legend order.
const EngineSpec kEngines[] = {
    {"col_r", "Column store + R", engine::CreateColumnStoreR},
    {"col_udf", "Column store + UDFs", engine::CreateColumnStoreUdf},
    {"hadoop", "Hadoop", engine::CreateHadoop},
    {"pg_madlib", "Postgres + Madlib", engine::CreatePostgresMadlib},
    {"pg_r", "Postgres + R", engine::CreatePostgresR},
    {"scidb", "SciDB", engine::CreateSciDb},
    {"r", "Vanilla R", engine::CreateVanillaR},
};

// Paper panel order: (a) regression (b) biclustering (c) SVD (d) covariance
// (e) statistics.
const std::pair<core::QueryId, const char*> kPanels[] = {
    {core::QueryId::kRegression, "Figure 1a: Linear Regression Query"},
    {core::QueryId::kBiclustering, "Figure 1b: Biclustering Query"},
    {core::QueryId::kSvd, "Figure 1c: SVD Query"},
    {core::QueryId::kCovariance, "Figure 1d: Covariance Query"},
    {core::QueryId::kStatistics, "Figure 1e: Statistics Query"},
};

void RegisterCells() {
  for (const auto& spec : kEngines) {
    for (core::DatasetSize size : kBenchSizes) {
      for (const auto& [query, title] : kPanels) {
        (void)title;
        const std::string name = std::string("fig1/") + spec.key + "/" +
                                 core::DatasetSizeName(size) + "/" +
                                 core::QueryName(query);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [spec, size, query](benchmark::State& state) {
              for (auto _ : state) {
                const core::CellResult cell = RunSingleNodeCell(
                    spec.key, spec.factory, query, size);
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
  for (const auto& spec : kEngines) engines.push_back(spec.display);
  std::vector<std::string> x_values;
  for (core::DatasetSize s : kBenchSizes) {
    x_values.push_back(core::DatasetSizeName(s));
  }
  for (const auto& [query, title] : kPanels) {
    std::vector<std::vector<std::string>> cells;
    for (core::DatasetSize s : kBenchSizes) {
      std::vector<std::string> row;
      for (const auto& spec : kEngines) {
        row.push_back(CellDisplay(spec.display, query, s));
      }
      cells.push_back(std::move(row));
    }
    workload::PrintGrid(title, "dataset", x_values, engines, cells);
  }

  // Section 4.3's scaling claims: growth factors medium -> large per engine
  // for the regression task (the paper: "plots for all other systems rise
  // sharply ... SciDB appears to be approximately linear"; dataset cells
  // grow 4x from medium to large).
  std::printf("\n=== Section 4.3: medium->large growth factor, regression "
              "(cells grow 4.0x) ===\n");
  for (const auto& spec : kEngines) {
    const auto* medium =
        FindCell(spec.display, core::QueryId::kRegression,
                 core::DatasetSize::kMedium);
    const auto* large = FindCell(spec.display, core::QueryId::kRegression,
                                 core::DatasetSize::kLarge);
    if (medium == nullptr || large == nullptr || !medium->status.ok() ||
        !large->status.ok() || medium->total_s <= 0) {
      std::printf("%-24s growth: n/a\n", spec.display);
      continue;
    }
    std::printf("%-24s growth: %5.2fx  (dm %5.2fx, analytics %5.2fx)\n",
                spec.display, large->total_s / medium->total_s,
                medium->dm_s > 0 ? large->dm_s / medium->dm_s : 0.0,
                medium->analytics_s > 0
                    ? large->analytics_s / medium->analytics_s
                    : 0.0);
  }
}

}  // namespace
}  // namespace genbase::bench

int main(int argc, char** argv) {
  return genbase::bench::RunPaperFigure(
      argc, argv, "Figure 1: single-node overall performance",
      genbase::bench::RegisterCells, genbase::bench::PrintFigure);
}
