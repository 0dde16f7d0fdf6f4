#ifndef GENBASE_ENGINE_HADOOP_ENGINE_H_
#define GENBASE_ENGINE_HADOOP_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/spill.h"
#include "core/engine.h"
#include "engine/engine_util.h"

namespace genbase::engine {

/// \brief Configuration 7: Hadoop (Hive for data management, Mahout for
/// analytics).
///
/// Tables live as binary files on real disk ("HDFS"); every logical
/// MapReduce job pays a modeled startup latency (JVM spinup, scheduling) and
/// materializes its output back to disk — both stage boundaries and the
/// Hive -> Mahout handoff are genuine file writes followed by re-reads.
/// Analytics kernels are deliberately naive (no blocking, no
/// parallelism, no reorthogonalization shortcuts): "matrix operations are
/// not done through a high performance linear algebra package." Mahout's
/// Lanczos ran one MapReduce job per iteration, which the SVD cost model
/// charges. Only the Mahout-feasible subset runs: regression, covariance,
/// SVD ("with this configuration we can only run the portion of the
/// benchmark that is possible in Mahout").
class HadoopEngine : public core::Engine {
 public:
  HadoopEngine();

  std::string name() const override { return "Hadoop"; }

  bool SupportsQuery(core::QueryId query) const override {
    return query == core::QueryId::kRegression ||
           query == core::QueryId::kCovariance ||
           query == core::QueryId::kSvd;
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
  /// A dimension table on "HDFS": fixed-width records of one 8-byte word
  /// per field (the int64, or the double's bits).
  struct HdfsTable {
    SpillFile file;
    storage::Schema schema;
    int64_t rows = 0;

    genbase::Status Write(const storage::ColumnTable& table);
    /// Decodes every record in file order and hands it to `fn`.
    genbase::Status Scan(
        const std::function<void(const std::vector<storage::Value>&)>& fn);
  };

  struct Hdfs {
    SpillFile microarray;  ///< (patient_id, gene_id, expr) binary triples.
    int64_t microarray_rows = 0;
    HdfsTable patients;
    HdfsTable genes;
    core::DatasetDims dims;
  };

  /// Hive stage: filter + map-side join producing matched triples on disk.
  genbase::Result<SpillFile> HiveFilterJoin(
      core::QueryId query, const core::QueryParams& params,
      std::vector<int64_t>* row_ids, std::vector<int64_t>* col_ids,
      std::vector<double>* y, int64_t* matched_rows, ExecContext* ctx);

  MemoryTracker tracker_;
  std::unique_ptr<Hdfs> hdfs_;
};

}  // namespace genbase::engine

#endif  // GENBASE_ENGINE_HADOOP_ENGINE_H_
