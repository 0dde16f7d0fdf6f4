#ifndef GENBASE_ENGINE_ENGINE_UTIL_H_
#define GENBASE_ENGINE_ENGINE_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "core/datasets.h"
#include "core/queries.h"
#include "linalg/matrix.h"
#include "relational/col_ops.h"
#include "relational/restructure.h"
#include "storage/array_store.h"
#include "storage/column_store.h"

namespace genbase::engine {

/// \brief The outputs of a query's data-management phase, in the neutral
/// shape the shared analytics blocks consume. Every engine produces this
/// through its own storage and operators; what differs across engines is how
/// (and how fast) these inputs get built, never what they contain.
struct QueryInputs {
  linalg::Matrix x;                ///< Dense matrix (Q1..Q4; no intercept).
  std::vector<int64_t> row_ids;    ///< Patient ids backing x's rows.
  std::vector<int64_t> col_ids;    ///< Gene ids backing x's columns.
  std::vector<double> y;           ///< Q1 target (drug response).
  std::vector<double> scores;      ///< Q5 per-gene scores.
  std::vector<std::vector<int64_t>> memberships;  ///< Q5: score positions.
  core::GeneMetaLookup meta;       ///< Q2 metadata join access path.
  int64_t sample_count = 0;        ///< Q5 sampled patients.
};

/// \brief Runs the analytics phase of `query` on prepared inputs with the
/// given kernel quality, timing it into Phase::kAnalytics.
genbase::Result<core::QueryResult> RunStandardAnalytics(
    core::QueryId query, QueryInputs inputs, const core::QueryParams& params,
    linalg::KernelQuality quality, ExecContext* ctx,
    std::function<genbase::Status()> bicluster_pass_hook = nullptr);

/// \brief The "export to external R" glue: serializes a matrix to CSV text
/// and parses it back, exactly the copy/reformat round trip the paper's
/// Postgres+R and ColumnStore+R configurations pay. Returns the re-imported
/// matrix; the caller times the call inside Phase::kGlue.
genbase::Result<linalg::Matrix> CsvRoundTripMatrix(
    const linalg::MatrixView& m, ExecContext* ctx);

/// CSV round trip for a vector (Q1's response column, Q5's scores).
genbase::Result<std::vector<double>> CsvRoundTripVector(
    const std::vector<double>& v, ExecContext* ctx);

/// Rows one in-database UDF invocation transfers.
inline constexpr int64_t kUdfChunkRows = 512;

/// UDF invocations that transfer `rows` rows: one per started chunk, none
/// for no rows. The one count behind the single-node UDF transfer and the
/// multi-node column store's per-node charge.
int64_t UdfInvocations(int64_t rows);

/// \brief The in-database UDF transfer: chunk-wise in-process copy plus a
/// modeled per-invocation interpreter-entry overhead (SimConfig
/// udf_invocation_overhead_s), charged as virtual glue time.
genbase::Result<linalg::Matrix> UdfTransferMatrix(const linalg::MatrixView& m,
                                                  ExecContext* ctx);

/// \brief Builds GO memberships (term -> sorted unique gene ids) from a
/// columnar ontology table by a vectorized pass. Q5's rank tests read
/// members as score positions, so only an engine whose gene ids are its
/// score positions (the array engines) passes these ids on unmapped.
std::vector<std::vector<int64_t>> BuildMembershipsColumnar(
    const storage::ColumnTable& ontology, int64_t num_terms);

/// \brief Gene-metadata lookup backed by a hash index over a columnar gene
/// table (built once per query; the Q2 join goes through it).
core::GeneMetaLookup MakeColumnarMetaLookup(
    const storage::ColumnTable& genes);

/// Gene id -> (function, length): the Q2 metadata index a tuple scan builds.
using GeneMetaIndex =
    std::unordered_map<int64_t, std::pair<int64_t, int64_t>>;

/// The Q2 lookup over an index a scan built (the row store and Hadoop).
core::GeneMetaLookup MakeMetaLookup(std::shared_ptr<const GeneMetaIndex> index);

/// \brief A loaded dataset in columnar native storage (used by the R,
/// column-store and — for its 1-D metadata arrays — SciDB engines).
struct ColumnarTables {
  storage::ColumnTable microarray{core::MicroarraySchema()};
  storage::ColumnTable patients{core::PatientMetaSchema()};
  storage::ColumnTable genes{core::GeneMetaSchema()};
  storage::ColumnTable ontology{core::GeneOntologySchema()};
  core::DatasetDims dims;
};

/// Deep-copies the neutral data into `out`, charging `tracker`.
genbase::Status LoadColumnarTables(const core::GenBaseData& data,
                                   MemoryTracker* tracker,
                                   ColumnarTables* out);

/// \brief One query's row selection: the conjunction that filters one
/// dimension table before its survivors join the microarray.
struct Selection {
  bool on_genes = false;  ///< Filters the gene table, else the patient table.
  std::vector<relational::ColumnPredicate> predicates;
};

/// The one copy of the five selections:
///
///   Q1, Q4  genes     function < function_threshold
///   Q2      patients  disease_id == disease_id
///   Q3      patients  gender == gender, age < max_age
///   Q5      patients  patient_id < SampleCount(dims.patients,
///                                              sample_fraction)
///
/// Reads only the shape params (plan::ShapeFingerprint).
Selection SelectionFor(core::QueryId query, const core::QueryParams& params,
                       const core::DatasetDims& dims);

/// \brief A query's columnar access paths: what its selection and hash join
/// matched, and how entity ids map to dense positions. Built from the shape
/// params only, so a plan builds it once per compile and the column store
/// once per run, and both restructure from the same access.
struct JoinedAccess {
  /// Microarray rows the join matched, in microarray order.
  std::vector<int64_t> matched_rows;
  /// Patient id -> matrix row (Q1-Q4): every patient for Q1/Q4, the
  /// selected ones for Q2/Q3.
  relational::DenseMapping row_map;
  /// Gene id -> matrix column (Q1-Q4) or score position (Q5): the selected
  /// genes for Q1/Q4, every gene otherwise.
  relational::DenseMapping col_map;
  std::vector<double> y;    ///< Q1: drug response by matrix row.
  int64_t sample_count = 0;  ///< Q5: patients in the sample.
};

/// Selection -> hash join -> dense mappings (plus Q1's aligned response).
/// The join's hash table is charged to `tracker`.
genbase::Result<JoinedAccess> BuildJoinedAccess(
    const ColumnarTables& tables, core::QueryId query,
    const core::QueryParams& params, ExecContext* ctx,
    MemoryTracker* tracker);

/// Q5's GO memberships as score positions: term -> sorted `access.col_map`
/// positions of its member genes (members with no gene row are dropped).
/// Built only where Q5's rank tests read them: a plan's compile,
/// PrepareInputsColumnar, and node 0 of the cluster's relational nodes.
std::vector<std::vector<int64_t>> MemberPositions(const ColumnarTables& tables,
                                                  const JoinedAccess& access);

/// Scatters the matched triples into a row-major buffer of `num_cols`
/// columns: the expression of (patient, gene) lands at row
/// row_map(patient), column col_offset + col_map(gene) (Q1 shifts by one
/// for its intercept). Cells no triple names keep their value, so `data`
/// starts zeroed.
genbase::Status ScatterJoined(const ColumnarTables& tables,
                              const JoinedAccess& access, double* data,
                              int64_t num_cols, int64_t col_offset,
                              ExecContext* ctx);

/// Q5's per-gene sums: adds each matched row's expression, in microarray
/// order, to `sums` at its gene's col_map position (`sums` holds at least
/// col_map.size() values; the cluster's nodes add into one vector).
genbase::Status AccumulateScores(const ColumnarTables& tables,
                                 const JoinedAccess& access, double* sums,
                                 ExecContext* ctx);

/// Q5's scores: AccumulateScores from zero, then one multiply by
/// 1/sample_count (`scores` holds col_map.size() values; overwritten).
genbase::Status AggregateScores(const ColumnarTables& tables,
                                const JoinedAccess& access, double* scores,
                                ExecContext* ctx);

/// \brief The full vectorized data-management pipeline for one query:
/// BuildJoinedAccess, then the matrix scatter (Q1-Q4) or the score aggregate
/// (Q5), plus Q2's metadata lookup. Used by the R and column-store engines,
/// which time it into Phase::kDataManagement, and the cluster engine's
/// relational nodes, whose time the simulated cluster charges. The row store
/// and Hadoop run SelectionFor's predicates through their tuple-at-a-time
/// operators instead, and the array engines through SelectArray.
genbase::Result<QueryInputs> PrepareInputsColumnar(
    const ColumnarTables& tables, core::QueryId query,
    const core::QueryParams& params, ExecContext* ctx);

/// \brief The array engines' microarray: a dense [patient, gene] array
/// whose row r holds patient `first_patient` + r (0 on one node; a node's
/// first patient id on the cluster). Loads microarray rows [row_begin,
/// row_end); ids are the array's coordinates, so a triple outside the
/// `patients` x `genes` array fails the load with InvalidArgument naming
/// `engine`. Charged to `tracker`.
genbase::Result<storage::ChunkedArray2D> LoadExpressionArray(
    const storage::ColumnTable& microarray, int64_t row_begin,
    int64_t row_end, int64_t first_patient, int64_t patients, int64_t genes,
    const std::string& engine, MemoryTracker* tracker);

/// \brief The array engines' data management over such an array and its
/// metadata: the query's Selection filters `meta`'s genes (Q1, Q4) or
/// patients (Q2, Q3, Q5), and the survivors' ids index the array directly,
/// with no join and no restructure. Returns x, its patient (row) and gene
/// (column) ids, and Q1's response by row; x's rows are every array row or
/// the selected patients in id order, its columns the selected genes or
/// every gene. Q2's metadata lookup and Q5's means are left to the caller.
genbase::Result<QueryInputs> SelectArray(
    const storage::ChunkedArray2D& expression, int64_t first_patient,
    const ColumnarTables& meta, core::QueryId query,
    const core::QueryParams& params, ExecContext* ctx);

}  // namespace genbase::engine

#endif  // GENBASE_ENGINE_ENGINE_UTIL_H_
