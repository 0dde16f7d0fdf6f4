#include "relational/col_ops.h"

#include <unordered_map>

namespace genbase::relational {

namespace {

template <typename T>
void FilterTyped(const std::vector<T>& col, const std::vector<int64_t>& in,
                 bool use_all, int64_t n, ColumnPredicate::Op op, T operand,
                 std::vector<int64_t>* out) {
  out->clear();
  if (use_all) {
    for (int64_t i = 0; i < n; ++i) {
      if (ColumnPredicate::Holds(op, col[static_cast<size_t>(i)], operand)) {
        out->push_back(i);
      }
    }
  } else {
    for (int64_t i : in) {
      if (ColumnPredicate::Holds(op, col[static_cast<size_t>(i)], operand)) {
        out->push_back(i);
      }
    }
  }
}

}  // namespace

genbase::Result<std::vector<int64_t>> FilterColumns(
    const storage::ColumnTable& table,
    const std::vector<ColumnPredicate>& predicates, ExecContext* ctx) {
  std::vector<int64_t> current;
  bool use_all = true;
  std::vector<int64_t> next;
  for (const auto& pred : predicates) {
    if (ctx != nullptr) GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    const auto& field = table.schema().field(pred.column);
    if (field.type == storage::DataType::kInt64) {
      FilterTyped(table.IntColumn(pred.column), current, use_all,
                  table.num_rows(), pred.op, pred.operand.AsInt(), &next);
    } else {
      FilterTyped(table.DoubleColumn(pred.column), current, use_all,
                  table.num_rows(), pred.op, pred.operand.AsDouble(),
                  &next);
    }
    current.swap(next);
    use_all = false;
  }
  if (use_all) {
    current.resize(static_cast<size_t>(table.num_rows()));
    for (int64_t i = 0; i < table.num_rows(); ++i) current[i] = i;
  }
  return current;
}

genbase::Result<JoinIndex> HashJoinIndicesFiltered(
    const storage::ColumnTable& left, int left_key,
    const std::vector<int64_t>& left_selection,
    const storage::ColumnTable& right, int right_key, ExecContext* ctx,
    MemoryTracker* tracker) {
  // Reserve a rough working-set estimate for the hash table.
  const int64_t build_n = static_cast<int64_t>(left_selection.size());
  const int64_t hash_bytes = build_n * 32;
  GENBASE_ASSIGN_OR_RETURN(auto reservation,
                           ScopedReservation::Acquire(tracker, hash_bytes));

  std::unordered_map<int64_t, std::vector<int64_t>> hash;
  hash.reserve(static_cast<size_t>(build_n));
  const auto& lkeys = left.IntColumn(left_key);
  for (int64_t i : left_selection) {
    hash[lkeys[static_cast<size_t>(i)]].push_back(i);
  }
  if (ctx != nullptr) GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());

  JoinIndex out;
  const auto& rkeys = right.IntColumn(right_key);
  const int64_t n = right.num_rows();
  for (int64_t i = 0; i < n; ++i) {
    if (ctx != nullptr && (i & 65535) == 0) {
      GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    }
    const auto it = hash.find(rkeys[static_cast<size_t>(i)]);
    if (it == hash.end()) continue;
    for (int64_t l : it->second) {
      out.left.push_back(l);
      out.right.push_back(i);
    }
  }
  return out;
}

}  // namespace genbase::relational
