// Cluster scaling: runs Query 2 (covariance) on the virtual-time cluster at
// 1/2/4/8 nodes and prints the scaling curve, separating compute from the
// modeled interconnect. Demonstrates the paper's Section 4.4 finding — the
// n x n Gram all-reduce caps covariance scalability — and how to use the
// multi-node API.

#include <cstdio>

#include "cluster/cluster_engine.h"
#include "core/driver.h"
#include "core/generator.h"

int main() {
  using namespace genbase;

  auto data = core::GenerateDataset(core::DatasetSize::kMedium, 0.05);
  GENBASE_CHECK(data.ok());
  std::printf("Covariance query scaling, %lld genes x %lld patients\n\n",
              static_cast<long long>(data->dims.genes),
              static_cast<long long>(data->dims.patients));
  std::printf("%6s %12s %12s %12s %10s\n", "nodes", "total(s)", "dm(s)",
              "analytics(s)", "speedup");

  core::DriverOptions options;
  options.timeout_seconds = 120.0;
  double base = 0.0;
  for (int nodes : {1, 2, 4, 8}) {
    cluster::ClusterEngine engine(
        cluster::ClusterConfig("scidb").At(nodes));
    GENBASE_CHECK_OK(engine.LoadDataset(*data));
    const core::CellResult cell =
        core::RunCell(&engine, core::QueryId::kCovariance,
                      core::DatasetSize::kMedium, options);
    GENBASE_CHECK_OK(cell.status);
    if (nodes == 1) base = cell.total_s;
    std::printf("%6d %12.3f %12.3f %12.3f %9.2fx\n", nodes, cell.total_s,
                cell.dm_s, cell.analytics_s,
                cell.total_s > 0 ? base / cell.total_s : 0.0);
  }

  std::printf(
      "\nSub-linear (sometimes negative) scaling is the expected result:\n"
      "the gene x gene Gram matrix must be all-reduced over the modeled\n"
      "GbE interconnect regardless of node count, while per-node compute\n"
      "shrinks — exactly the paper's observation that SciDB 'often has\n"
      "worse performance on two nodes than on one'.\n");
  return 0;
}
