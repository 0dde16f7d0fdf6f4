#include "relational/row_ops.h"

namespace genbase::relational {

namespace {
constexpr int64_t kDeadlineCheckInterval = 8192;
}  // namespace

genbase::Status RowScan::Open(ExecContext* ctx) {
  ctx_ = ctx;
  pos_ = 0;
  return genbase::Status::OK();
}

genbase::Result<bool> RowScan::Next(std::vector<storage::Value>* out) {
  if (pos_ >= table_->num_rows()) return false;
  if (ctx_ != nullptr && (pos_ % kDeadlineCheckInterval) == 0) {
    GENBASE_RETURN_NOT_OK(ctx_->CheckBudgets());
  }
  const int n = table_->schema().num_fields();
  out->resize(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) (*out)[static_cast<size_t>(c)] =
      table_->Get(pos_, c);
  ++pos_;
  return true;
}

bool RowSatisfies(const std::vector<ColumnPredicate>& predicates,
                  const std::vector<storage::Value>& row) {
  for (const ColumnPredicate& p : predicates) {
    const storage::Value& v = row[static_cast<size_t>(p.column)];
    const bool holds =
        v.type == storage::DataType::kInt64
            ? ColumnPredicate::Holds(p.op, v.AsInt(), p.operand.AsInt())
            : ColumnPredicate::Holds(p.op, v.AsDouble(),
                                     p.operand.AsDouble());
    if (!holds) return false;
  }
  return true;
}

genbase::Result<bool> RowFilter::Next(std::vector<storage::Value>* out) {
  for (;;) {
    GENBASE_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    if (pred_(*out)) return true;
  }
}

RowProject::RowProject(std::unique_ptr<RowOperator> child,
                       std::vector<int> columns)
    : child_(std::move(child)), columns_(std::move(columns)) {
  std::vector<storage::Field> fields;
  fields.reserve(columns_.size());
  for (int c : columns_) fields.push_back(child_->schema().field(c));
  schema_ = storage::Schema(std::move(fields));
}

genbase::Result<bool> RowProject::Next(std::vector<storage::Value>* out) {
  GENBASE_ASSIGN_OR_RETURN(bool more, child_->Next(&buffer_));
  if (!more) return false;
  out->resize(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    (*out)[i] = buffer_[static_cast<size_t>(columns_[i])];
  }
  return true;
}

RowHashJoin::RowHashJoin(std::unique_ptr<RowOperator> build,
                         std::unique_ptr<RowOperator> probe, int build_key,
                         int probe_key)
    : build_(std::move(build)),
      probe_(std::move(probe)),
      build_key_(build_key),
      probe_key_(probe_key) {
  std::vector<storage::Field> fields = build_->schema().fields();
  for (const auto& f : probe_->schema().fields()) fields.push_back(f);
  schema_ = storage::Schema(std::move(fields));
}

genbase::Status RowHashJoin::Open(ExecContext* ctx) {
  ctx_ = ctx;
  GENBASE_RETURN_NOT_OK(build_->Open(ctx));
  GENBASE_RETURN_NOT_OK(probe_->Open(ctx));
  std::vector<storage::Value> row;
  int64_t i = 0;
  for (;;) {
    auto more = build_->Next(&row);
    if (!more.ok()) return more.status();
    if (!*more) break;
    if (ctx != nullptr && (i % kDeadlineCheckInterval) == 0) {
      GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    }
    const int64_t key = row[static_cast<size_t>(build_key_)].AsInt();
    hash_[key].push_back(static_cast<int64_t>(build_rows_.size()));
    build_rows_.push_back(row);
    ++i;
  }
  matches_ = nullptr;
  match_pos_ = 0;
  return genbase::Status::OK();
}

genbase::Result<bool> RowHashJoin::Next(std::vector<storage::Value>* out) {
  for (;;) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      const auto& brow =
          build_rows_[static_cast<size_t>((*matches_)[match_pos_])];
      ++match_pos_;
      out->clear();
      out->reserve(brow.size() + probe_row_.size());
      out->insert(out->end(), brow.begin(), brow.end());
      out->insert(out->end(), probe_row_.begin(), probe_row_.end());
      return true;
    }
    GENBASE_ASSIGN_OR_RETURN(bool more, probe_->Next(&probe_row_));
    if (!more) return false;
    if (ctx_ != nullptr && (++tuples_seen_ % kDeadlineCheckInterval) == 0) {
      GENBASE_RETURN_NOT_OK(ctx_->CheckBudgets());
    }
    const auto it =
        hash_.find(probe_row_[static_cast<size_t>(probe_key_)].AsInt());
    if (it == hash_.end()) {
      matches_ = nullptr;
      continue;
    }
    matches_ = &it->second;
    match_pos_ = 0;
  }
}

}  // namespace genbase::relational
