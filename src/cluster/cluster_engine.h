#ifndef GENBASE_CLUSTER_CLUSTER_ENGINE_H_
#define GENBASE_CLUSTER_CLUSTER_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/dist_kernels.h"
#include "cluster/sim_cluster.h"
#include "core/engine.h"
#include "engine/engine_util.h"
#include "storage/array_store.h"

namespace genbase::cluster {

/// \brief Architectural knobs distinguishing the paper's five multi-node
/// systems (Section 4.2 / Figure 3). All five share the virtual-time
/// cluster substrate and the distributed kernels; they differ in local
/// storage, glue, kernel quality and job model — the same axes that
/// distinguish the single-node configurations.
struct ClusterEngineOptions {
  std::string name;
  int nodes = 1;
  /// SciDB: array-native local storage, no relational restructure.
  bool array_native = false;
  /// Column store + pbdR: per-node CSV export into the R runtime.
  bool csv_glue = false;
  /// Column store + UDFs: per-invocation interpreter overhead.
  bool udf_glue = false;
  /// Hadoop: per-job startup latency, shuffle charges, per-iteration SVD
  /// jobs, and the Mahout-quality (naive) kernels.
  bool mapreduce = false;
  linalg::KernelQuality quality = linalg::KernelQuality::kTuned;

  /// Per-node coprocessor offload (Table 1 / Section 5): analytics compute
  /// is accelerated by the device ratio; communication and transfers are
  /// not.
  bool phi_offload = false;
};

/// \brief One of the paper's multi-node configurations: the key tests and
/// figures select it by, and its options at one node.
struct ClusterSpec {
  const char* key;
  ClusterEngineOptions options;

  /// The options at `nodes` nodes.
  ClusterEngineOptions At(int nodes) const {
    ClusterEngineOptions o = options;
    o.nodes = nodes;
    return o;
  }
};

/// \brief The paper's multi-node configurations, one table: Figure 3's five
/// systems (Section 4.2) in its legend order, then Table 1's "scidb_phi".
const std::vector<ClusterSpec>& ClusterConfigs();

/// Figure 3's lineup: every ClusterConfigs() entry without coprocessor
/// offload.
std::vector<ClusterSpec> MultiNodeSystems();

/// The ClusterConfigs() entry with `key`; an unknown key is a programming
/// error (GENBASE_CHECK).
const ClusterSpec& ClusterConfig(std::string_view key);

/// \brief One multi-node system configuration over the virtual-time
/// cluster: data row-partitioned by patient across nodes, metadata
/// replicated, ScaLAPACK-style distributed analytics (TSQR, Gram
/// all-reduce, distributed Lanczos), gather-to-root for the algorithms the
/// paper's systems did not distribute (biclustering).
class ClusterEngine : public core::Engine {
 public:
  explicit ClusterEngine(ClusterEngineOptions options);

  std::string name() const override { return options_.name; }

  bool SupportsQuery(core::QueryId query) const override {
    if (options_.mapreduce) {
      return query == core::QueryId::kRegression ||
             query == core::QueryId::kCovariance ||
             query == core::QueryId::kSvd;
    }
    return true;
  }

 protected:
  genbase::Status DoLoadDataset(const core::GenBaseData& data) override;
  void DoUnloadDataset() override;

 public:
  void PrepareContext(ExecContext* ctx) override;

  genbase::Result<core::QueryResult> RunQuery(core::QueryId query,
                                              const core::QueryParams& params,
                                              ExecContext* ctx) override;

 private:
  struct NodeData {
    engine::ColumnarTables tables;           ///< Relational local storage.
    storage::ChunkedArray2D expression;      ///< Array-native local storage.
    RowRange patients;
  };

  /// Per-node data management: local filter + join/restructure (or array
  /// gather) producing this node's block of the analysis matrix.
  genbase::Result<std::vector<linalg::Matrix>> LocalBlocks(
      core::QueryId query, const core::QueryParams& params, SimCluster* sim,
      std::vector<std::vector<double>>* y_blocks,
      std::vector<int64_t>* col_ids, ExecContext* ctx);

  /// Applies the per-node glue (CSV round trip / UDF transfer) in place.
  genbase::Status ApplyGlue(std::vector<linalg::Matrix>* blocks,
                            SimCluster* sim, ExecContext* ctx);

  ClusterEngineOptions options_;
  MemoryTracker tracker_;
  std::vector<std::unique_ptr<NodeData>> node_data_;
  core::DatasetDims dims_;
  bool loaded_ = false;
};

}  // namespace genbase::cluster

#endif  // GENBASE_CLUSTER_CLUSTER_ENGINE_H_
