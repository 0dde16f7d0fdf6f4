// Figure 5 (a-d): SciDB vs SciDB + Xeon Phi coprocessor, single node, across
// dataset sizes, for the four offloadable tasks. Reproduces the paper's
// pattern: meaningful gains on covariance/SVD at larger sizes (compute
// dominates transfer), modest gains on statistics, and essentially none on
// biclustering.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "accel/phi_engine.h"
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
    {"scidb", "SciDB", engine::CreateSciDb},
    {"scidb_phi", "SciDB + Xeon Phi", accel::CreatePhiSciDb},
};

const std::pair<core::QueryId, const char*> kPanels[] = {
    {core::QueryId::kBiclustering, "Figure 5a: Biclustering Query"},
    {core::QueryId::kSvd, "Figure 5b: SVD Query"},
    {core::QueryId::kCovariance, "Figure 5c: Covariance Query"},
    {core::QueryId::kStatistics, "Figure 5d: Statistics Query"},
};

void RegisterCells() {
  for (const auto& spec : kEngines) {
    for (core::DatasetSize size : kBenchSizes) {
      for (const auto& [query, title] : kPanels) {
        (void)title;
        const std::string name = std::string("fig5/") + spec.key + "/" +
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
  std::vector<std::string> engines = {"SciDB", "SciDB + Xeon Phi"};
  std::vector<std::string> x_values;
  for (core::DatasetSize s : kBenchSizes) {
    x_values.push_back(core::DatasetSizeName(s));
  }
  for (const auto& [query, title] : kPanels) {
    std::vector<std::vector<std::string>> cells;
    for (core::DatasetSize s : kBenchSizes) {
      std::vector<std::string> row;
      for (const auto& e : engines) row.push_back(CellDisplay(e, query, s));
      cells.push_back(std::move(row));
    }
    workload::PrintGrid(title, "dataset", x_values, engines, cells);
  }

  std::printf("\n=== Analytics-phase speedup (paper: '1.4-2.6X better ... in "
              "three of the four operations ... for the medium and large "
              "data sets') ===\n");
  for (const auto& [query, title] : kPanels) {
    (void)title;
    std::printf("%-14s", core::QueryName(query));
    for (core::DatasetSize s : kBenchSizes) {
      const auto* host = FindCell("SciDB", query, s);
      const auto* phi = FindCell("SciDB + Xeon Phi", query, s);
      if (host == nullptr || phi == nullptr || !host->status.ok() ||
          !phi->status.ok() || phi->analytics_s <= 0) {
        std::printf(" %10s", "n/a");
      } else {
        std::printf(" %9.2fx", host->analytics_s / phi->analytics_s);
      }
    }
    std::printf("   (small/medium/large)\n");
  }
}

}  // namespace
}  // namespace genbase::bench

int main(int argc, char** argv) {
  return genbase::bench::RunPaperFigure(
      argc, argv,
      "Figure 5: SciDB vs SciDB + Xeon Phi coprocessor (single node)",
      genbase::bench::RegisterCells, genbase::bench::PrintFigure);
}
