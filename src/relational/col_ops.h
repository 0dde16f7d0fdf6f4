#ifndef GENBASE_RELATIONAL_COL_OPS_H_
#define GENBASE_RELATIONAL_COL_OPS_H_

#include <cstdint>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "storage/column_store.h"

namespace genbase::relational {

/// \brief Comparison predicate against a single column: the two ops the
/// five selections use (engine::SelectionFor). FilterColumns evaluates a
/// conjunction vectorized, one predicate at a time over a shrinking
/// selection vector; RowSatisfies (row_ops.h) evaluates it a tuple at a
/// time. Both compare through Holds.
struct ColumnPredicate {
  enum class Op { kLt, kEq };
  int column = 0;
  Op op = Op::kLt;
  storage::Value operand;

  static ColumnPredicate Lt(int col, storage::Value v) {
    return {col, Op::kLt, v};
  }
  static ColumnPredicate Eq(int col, storage::Value v) {
    return {col, Op::kEq, v};
  }

  /// Whether `value op operand` holds.
  template <typename T>
  static bool Holds(Op op, T value, T operand) {
    return op == Op::kLt ? value < operand : value == operand;
  }
};

/// Row indices of `table` satisfying all predicates (ANDed), vectorized one
/// predicate at a time.
genbase::Result<std::vector<int64_t>> FilterColumns(
    const storage::ColumnTable& table,
    const std::vector<ColumnPredicate>& predicates, ExecContext* ctx);

/// \brief Join match pair lists (parallel arrays of row indices).
struct JoinIndex {
  std::vector<int64_t> left;
  std::vector<int64_t> right;
};

/// Hash join on int64 key columns over the `left_selection` rows of `left`,
/// producing the match index; the caller gathers what it reads by index,
/// which is how a late-materializing column store executes joins.
genbase::Result<JoinIndex> HashJoinIndicesFiltered(
    const storage::ColumnTable& left, int left_key,
    const std::vector<int64_t>& left_selection,
    const storage::ColumnTable& right, int right_key, ExecContext* ctx,
    MemoryTracker* tracker);

}  // namespace genbase::relational

#endif  // GENBASE_RELATIONAL_COL_OPS_H_
