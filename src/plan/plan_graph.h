#ifndef GENBASE_PLAN_PLAN_GRAPH_H_
#define GENBASE_PLAN_PLAN_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"

namespace genbase::plan {

/// \brief Operator vocabulary of the query plans. The first eight kinds are
/// the query-level operators Q1-Q5 decompose into; the last three are small
/// auxiliary kernels (mean vector, quantile reduction, thresholded count)
/// that Q2's covariance pipeline and Q5's significance step need as
/// separate ops, so the fold split can run the parameter-free part at
/// compile.
enum class OpKind {
  kScan = 0,         ///< Tables -> dense arena matrix/vector (zero + scatter).
  kSelect,           ///< Element selection (upper-triangle extraction).
  kJoin,             ///< Threshold pass + metadata join (Q2 summary).
  kGemm,             ///< Dense least-squares solve (Q1, QR-backed).
  kSyrkCentered,     ///< C = centered(A)^T centered(A) / (m-1) (Q2).
  kSvdHelper,        ///< Truncated Lanczos SVD (Q4 summary).
  kWilcoxonRank,     ///< Rank-sum tests over GO terms (Q5 summary).
  kChengChurchStep,  ///< Cheng-Church biclustering (Q3 summary).
  kColumnMeans,      ///< Column mean vector (Q2).
  kQuantile,         ///< Quantile reduction to a scalar buffer (Q2).
  kCount,            ///< Count of entries below a bound (Q5 significance).
};
inline constexpr int kNumOpKinds = 11;

const char* OpKindName(OpKind kind);

/// Static-storage span name for the per-op execute trace spans
/// (obs::Span::name must outlive the tracer rings).
const char* OpSpanName(OpKind kind);

/// Which benchmark phase an operator's run time is charged to, at compile
/// (folded ops) or at execute. Scans are the relational->array restructure
/// (data management); everything else is analytics. (The rest of plan
/// compilation is charged to data management by the engine, since it
/// subsumes the filter/join/mapping work.)
Phase OpPhase(OpKind kind);

/// \brief Dense row-major shape of one plan value. Vectors are rows x 1,
/// scalars 1 x 1 — everything in the arena is a double buffer.
struct TensorSpec {
  int64_t rows = 0;
  int64_t cols = 1;

  int64_t elements() const { return rows * cols; }
  int64_t bytes() const {
    return elements() * static_cast<int64_t>(sizeof(double));
  }
};

/// \brief One named intermediate buffer in the plan (a "tensor" in
/// inference-engine terms). Values are arena-resident; compile-time
/// constants (join matches, id mappings, the Q1 response vector) live in
/// the compile-time statics instead and never appear here.
struct ValueDef {
  std::string name;
  TensorSpec spec;
};

/// \brief One operator instance: kind, the value ids it reads and writes,
/// and whether it reads the params bound at execute (ExecFrame::params()).
///
/// Fold rule: an op that reads no param and whose inputs are all folded is
/// folded — it runs once, at compile, and its outputs are constants of the
/// plan. Every other op runs at each execute.
struct OpDef {
  OpKind kind = OpKind::kScan;
  std::string name;
  std::vector<int> inputs;
  std::vector<int> outputs;
  bool reads_params = false;
};

/// \brief The operator DAG for one compiled query: values (buffers) plus
/// ops wired by value ids. Ops run in the order they are added, so a
/// builder adds each op after the ops that write its inputs (Validate
/// checks it). Deliberately dumb storage — the fold split and the layout
/// do the thinking.
class PlanGraph {
 public:
  /// Adds a value and returns its id.
  int AddValue(std::string name, TensorSpec spec);

  /// Adds an op and returns its id. Input/output value ids must already
  /// exist (checked by Validate, not here).
  int AddOp(OpDef op);

  const std::vector<ValueDef>& values() const { return values_; }
  const std::vector<OpDef>& ops() const { return ops_; }

  /// Structural checks: value ids in range, every value written by exactly
  /// one op, and every op reads only values an earlier op wrote (so op
  /// order is a dependency order and the graph has no cycle).
  genbase::Status Validate() const;

 private:
  std::vector<ValueDef> values_;
  std::vector<OpDef> ops_;
};

}  // namespace genbase::plan

#endif  // GENBASE_PLAN_PLAN_GRAPH_H_
