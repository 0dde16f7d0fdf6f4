#ifndef GENBASE_RELATIONAL_ROW_OPS_H_
#define GENBASE_RELATIONAL_ROW_OPS_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "relational/col_ops.h"
#include "storage/row_store.h"
#include "storage/types.h"

namespace genbase::relational {

/// \brief Volcano-style tuple-at-a-time operator tree: the Postgres-like
/// execution model. Every tuple passes through virtual Next() calls and
/// std::function predicates — per-tuple interpretation overhead is the point
/// (it is what the paper's row-store configurations pay).
class RowOperator {
 public:
  virtual ~RowOperator() = default;

  virtual const storage::Schema& schema() const = 0;

  /// Prepares the operator tree (builds hash tables etc.).
  virtual genbase::Status Open(ExecContext* ctx) = 0;

  /// Produces the next tuple into *out. Returns false at end of stream.
  virtual genbase::Result<bool> Next(std::vector<storage::Value>* out) = 0;
};

/// Sequential scan over a RowStore.
class RowScan : public RowOperator {
 public:
  explicit RowScan(const storage::RowStore* table) : table_(table) {}

  const storage::Schema& schema() const override { return table_->schema(); }
  genbase::Status Open(ExecContext* ctx) override;
  genbase::Result<bool> Next(std::vector<storage::Value>* out) override;

 private:
  const storage::RowStore* table_;
  ExecContext* ctx_ = nullptr;
  int64_t pos_ = 0;
};

using RowPredicate =
    std::function<bool(const std::vector<storage::Value>&)>;

/// Whether `row` (one value per schema field) satisfies every predicate:
/// the tuple-at-a-time evaluator of a Selection's conjunction, which the
/// row store's filters and Hadoop's dimension scans run.
bool RowSatisfies(const std::vector<ColumnPredicate>& predicates,
                  const std::vector<storage::Value>& row);

/// Tuple filter with an interpreted predicate.
class RowFilter : public RowOperator {
 public:
  RowFilter(std::unique_ptr<RowOperator> child, RowPredicate pred)
      : child_(std::move(child)), pred_(std::move(pred)) {}

  const storage::Schema& schema() const override { return child_->schema(); }
  genbase::Status Open(ExecContext* ctx) override {
    return child_->Open(ctx);
  }
  genbase::Result<bool> Next(std::vector<storage::Value>* out) override;

 private:
  std::unique_ptr<RowOperator> child_;
  RowPredicate pred_;
};

/// Column projection by index list.
class RowProject : public RowOperator {
 public:
  RowProject(std::unique_ptr<RowOperator> child, std::vector<int> columns);

  const storage::Schema& schema() const override { return schema_; }
  genbase::Status Open(ExecContext* ctx) override {
    return child_->Open(ctx);
  }
  genbase::Result<bool> Next(std::vector<storage::Value>* out) override;

 private:
  std::unique_ptr<RowOperator> child_;
  std::vector<int> columns_;
  storage::Schema schema_;
  std::vector<storage::Value> buffer_;
};

/// Classic hash join on int64 key columns: Open() drains and hashes the
/// build side, Next() streams the probe side. Output schema is build fields
/// followed by probe fields.
class RowHashJoin : public RowOperator {
 public:
  RowHashJoin(std::unique_ptr<RowOperator> build,
              std::unique_ptr<RowOperator> probe, int build_key,
              int probe_key);

  const storage::Schema& schema() const override { return schema_; }
  genbase::Status Open(ExecContext* ctx) override;
  genbase::Result<bool> Next(std::vector<storage::Value>* out) override;

 private:
  std::unique_ptr<RowOperator> build_;
  std::unique_ptr<RowOperator> probe_;
  int build_key_;
  int probe_key_;
  storage::Schema schema_;
  ExecContext* ctx_ = nullptr;

  // Build rows stored densely; hash maps key -> row indices.
  std::vector<std::vector<storage::Value>> build_rows_;
  std::unordered_map<int64_t, std::vector<int64_t>> hash_;
  std::vector<storage::Value> probe_row_;
  const std::vector<int64_t>* matches_ = nullptr;
  size_t match_pos_ = 0;
  int64_t tuples_seen_ = 0;
};

}  // namespace genbase::relational

#endif  // GENBASE_RELATIONAL_ROW_OPS_H_
