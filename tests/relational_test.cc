#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "relational/col_ops.h"
#include "relational/restructure.h"
#include "relational/row_ops.h"
#include "storage/column_store.h"
#include "storage/row_store.h"

namespace genbase::relational {
namespace {

using storage::ColumnTable;
using storage::DataType;
using storage::RowStore;
using storage::Schema;
using storage::Value;

Schema PairSchema() {
  return Schema({{"key", DataType::kInt64}, {"val", DataType::kDouble}});
}

RowStore MakeRowTable(const std::vector<std::pair<int64_t, double>>& rows) {
  RowStore t(PairSchema());
  for (const auto& [k, v] : rows) {
    GENBASE_CHECK_OK(t.AppendRow({Value::Int(k), Value::Double(v)}));
  }
  return t;
}

ColumnTable MakeColTable(const std::vector<std::pair<int64_t, double>>& rows) {
  ColumnTable t(PairSchema());
  for (const auto& [k, v] : rows) {
    GENBASE_CHECK_OK(t.AppendRow({Value::Int(k), Value::Double(v)}));
  }
  return t;
}

/// Drains `op`, returning how many tuples it produced.
Result<int64_t> Drain(RowOperator* op, ExecContext* ctx) {
  GENBASE_RETURN_NOT_OK(op->Open(ctx));
  std::vector<Value> row;
  int64_t n = 0;
  for (;;) {
    GENBASE_ASSIGN_OR_RETURN(bool more, op->Next(&row));
    if (!more) return n;
    ++n;
  }
}

// --- Volcano row operators ----------------------------------------------------------

TEST(RowOpsTest, ScanProducesAllRows) {
  RowStore t = MakeRowTable({{1, 0.1}, {2, 0.2}, {3, 0.3}});
  RowScan scan(&t);
  auto count = Drain(&scan, nullptr);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3);
}

TEST(RowOpsTest, FilterDropsNonMatching) {
  RowStore t = MakeRowTable({{1, 0.1}, {2, 0.2}, {3, 0.3}, {4, 0.4}});
  RowFilter filter(std::make_unique<RowScan>(&t),
                   [](const std::vector<Value>& r) {
                     return r[0].AsInt() % 2 == 0;
                   });
  ASSERT_TRUE(filter.Open(nullptr).ok());
  std::vector<Value> row;
  std::vector<int64_t> keys;
  for (;;) {
    auto more = filter.Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    keys.push_back(row[0].AsInt());
  }
  EXPECT_EQ(keys, (std::vector<int64_t>{2, 4}));
}

TEST(RowOpsTest, ProjectReordersColumns) {
  RowStore t = MakeRowTable({{7, 1.5}});
  RowProject proj(std::make_unique<RowScan>(&t), {1, 0});
  ASSERT_TRUE(proj.Open(nullptr).ok());
  std::vector<Value> row;
  auto more = proj.Next(&row);
  ASSERT_TRUE(more.ok() && *more);
  EXPECT_DOUBLE_EQ(row[0].AsDouble(), 1.5);
  EXPECT_EQ(row[1].AsInt(), 7);
  EXPECT_EQ(proj.schema().field(0).name, "val");
}

/// Join oracle: nested loops.
std::multiset<std::pair<int64_t, int64_t>> NestedLoopJoinKeys(
    const std::vector<std::pair<int64_t, double>>& left,
    const std::vector<std::pair<int64_t, double>>& right) {
  std::multiset<std::pair<int64_t, int64_t>> out;
  for (size_t i = 0; i < left.size(); ++i) {
    for (size_t j = 0; j < right.size(); ++j) {
      if (left[i].first == right[j].first) {
        out.insert({static_cast<int64_t>(i), static_cast<int64_t>(j)});
      }
    }
  }
  return out;
}

TEST(RowOpsTest, HashJoinMatchesNestedLoopOracle) {
  Rng rng(5);
  std::vector<std::pair<int64_t, double>> left, right;
  for (int i = 0; i < 60; ++i) {
    left.push_back({rng.UniformInt(0, 15), i * 1.0});
  }
  for (int i = 0; i < 80; ++i) {
    right.push_back({rng.UniformInt(0, 15), i * 2.0});
  }
  RowStore lt = MakeRowTable(left);
  RowStore rt = MakeRowTable(right);
  RowHashJoin join(std::make_unique<RowScan>(&lt),
                   std::make_unique<RowScan>(&rt), 0, 0);
  ASSERT_TRUE(join.Open(nullptr).ok());
  int64_t matches = 0;
  std::vector<Value> row;
  for (;;) {
    auto more = join.Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_EQ(row[0].AsInt(), row[2].AsInt());  // Keys agree.
    ++matches;
  }
  EXPECT_EQ(matches,
            static_cast<int64_t>(NestedLoopJoinKeys(left, right).size()));
}

TEST(RowOpsTest, HashJoinEmptyBuildSide) {
  RowStore lt = MakeRowTable({});
  RowStore rt = MakeRowTable({{1, 1.0}});
  RowHashJoin join(std::make_unique<RowScan>(&lt),
                   std::make_unique<RowScan>(&rt), 0, 0);
  ASSERT_TRUE(join.Open(nullptr).ok());
  std::vector<Value> row;
  auto more = join.Next(&row);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(RowOpsTest, DeadlineAbortsScan) {
  std::vector<std::pair<int64_t, double>> rows(100000, {1, 1.0});
  RowStore t = MakeRowTable(rows);
  ExecContext ctx;
  ctx.SetDeadlineAfter(-1.0);
  RowScan scan(&t);
  auto count = Drain(&scan, &ctx);
  EXPECT_FALSE(count.ok());
  EXPECT_TRUE(count.status().IsDeadlineExceeded());
}

// --- vectorized column operators ------------------------------------------------------

TEST(ColOpsTest, FilterSinglePredicate) {
  ColumnTable t = MakeColTable({{5, 0.1}, {2, 0.2}, {9, 0.3}, {2, 0.4}});
  auto sel = FilterColumns(t, {ColumnPredicate::Eq(0, Value::Int(2))},
                           nullptr);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (std::vector<int64_t>{1, 3}));
}

TEST(ColOpsTest, FilterConjunction) {
  ColumnTable t = MakeColTable(
      {{1, 0.1}, {2, 0.9}, {3, 0.95}, {4, 0.2}, {5, 0.99}});
  auto sel = FilterColumns(t,
                           {ColumnPredicate::Lt(1, Value::Double(0.96)),
                            ColumnPredicate::Lt(0, Value::Int(3))},
                           nullptr);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (std::vector<int64_t>{0, 1}));
}

TEST(ColOpsTest, EmptyPredicateListSelectsAll) {
  ColumnTable t = MakeColTable({{1, 0.1}, {2, 0.2}});
  auto sel = FilterColumns(t, {}, nullptr);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->size(), 2u);
}

/// Both evaluators of a predicate conjunction, FilterColumns (vectorized)
/// and RowSatisfies (a tuple at a time, in a RowFilter), select what a
/// scalar oracle does, on int and double columns.
TEST(ColOpsTest, BothEvaluatorsMatchScalarOracle) {
  Rng rng(17);
  ColumnTable t(PairSchema());
  RowStore rows(PairSchema());
  std::vector<std::pair<int64_t, double>> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back({rng.UniformInt(-20, 20), rng.UniformInt(0, 4) * 0.25});
    const std::vector<Value> row = {Value::Int(values.back().first),
                                    Value::Double(values.back().second)};
    GENBASE_CHECK_OK(t.AppendRow(row));
    GENBASE_CHECK_OK(rows.AppendRow(row));
  }
  struct Case {
    std::vector<ColumnPredicate> predicates;
    std::function<bool(int64_t, double)> oracle;
  };
  const std::vector<Case> cases = {
      {{ColumnPredicate::Lt(0, Value::Int(3))},
       [](int64_t k, double) { return k < 3; }},
      {{ColumnPredicate::Eq(0, Value::Int(3))},
       [](int64_t k, double) { return k == 3; }},
      {{ColumnPredicate::Lt(1, Value::Double(0.5))},
       [](int64_t, double v) { return v < 0.5; }},
      {{ColumnPredicate::Eq(1, Value::Double(0.5))},
       [](int64_t, double v) { return v == 0.5; }},
      {{ColumnPredicate::Eq(1, Value::Double(0.25)),
        ColumnPredicate::Lt(0, Value::Int(0))},
       [](int64_t k, double v) { return v == 0.25 && k < 0; }},
  };
  for (const auto& c : cases) {
    auto sel = FilterColumns(t, c.predicates, nullptr);
    ASSERT_TRUE(sel.ok());
    RowFilter filter(std::make_unique<RowScan>(&rows),
                     [&c](const std::vector<Value>& r) {
                       return RowSatisfies(c.predicates, r);
                     });
    ASSERT_TRUE(filter.Open(nullptr).ok());
    std::vector<int64_t> expected;
    std::vector<Value> row;
    for (size_t i = 0; i < values.size(); ++i) {
      if (!c.oracle(values[i].first, values[i].second)) continue;
      expected.push_back(static_cast<int64_t>(i));
      auto more = filter.Next(&row);
      ASSERT_TRUE(more.ok() && *more);
      EXPECT_EQ(row[0].AsInt(), values[i].first);
      EXPECT_EQ(row[1].AsDouble(), values[i].second);
    }
    auto more = filter.Next(&row);
    ASSERT_TRUE(more.ok());
    EXPECT_FALSE(*more);
    EXPECT_EQ(*sel, expected);
  }
}

TEST(ColOpsTest, HashJoinMatchesRowJoinCount) {
  Rng rng(23);
  std::vector<std::pair<int64_t, double>> left, right;
  for (int i = 0; i < 40; ++i) left.push_back({rng.UniformInt(0, 9), 0.0});
  for (int i = 0; i < 70; ++i) right.push_back({rng.UniformInt(0, 9), 0.0});
  ColumnTable lt = MakeColTable(left);
  ColumnTable rt = MakeColTable(right);
  std::vector<int64_t> all(left.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int64_t>(i);
  auto join = HashJoinIndicesFiltered(lt, 0, all, rt, 0, nullptr, nullptr);
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->left.size(),
            NestedLoopJoinKeys(left, right).size());
  // Every match pair must actually agree on the key.
  for (size_t i = 0; i < join->left.size(); ++i) {
    EXPECT_EQ(left[static_cast<size_t>(join->left[i])].first,
              right[static_cast<size_t>(join->right[i])].first);
  }
}

TEST(ColOpsTest, JoinRespectsLeftSelection) {
  ColumnTable lt = MakeColTable({{1, 0}, {2, 0}, {3, 0}});
  ColumnTable rt = MakeColTable({{1, 0}, {2, 0}, {3, 0}, {2, 0}});
  auto join = HashJoinIndicesFiltered(lt, 0, {1}, rt, 0, nullptr, nullptr);
  ASSERT_TRUE(join.ok());
  ASSERT_EQ(join->left.size(), 2u);  // Key 2 appears twice on the right.
  EXPECT_EQ(join->left[0], 1);
  EXPECT_EQ(join->left[1], 1);
}

// --- restructure -------------------------------------------------------------------

TEST(RestructureTest, MappingSortsAndDedupes) {
  DenseMapping m = MakeDenseMapping({5, 1, 5, 3});
  EXPECT_EQ(m.ids, (std::vector<int64_t>{1, 3, 5}));
  EXPECT_EQ(m.index.at(3), 1);
}

TEST(RestructureTest, TriplesScatterIntoMatrix) {
  const std::vector<int64_t> rows = {10, 10, 20};
  const std::vector<int64_t> cols = {100, 200, 200};
  const std::vector<double> vals = {1.0, 2.0, 3.0};
  DenseMapping rm = MakeDenseMapping({10, 20});
  DenseMapping cm = MakeDenseMapping({100, 200});
  auto m = TriplesToMatrix(rows.data(), cols.data(), vals.data(), 3, rm, cm,
                           nullptr, nullptr);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ((*m)(0, 0), 1.0);
  EXPECT_DOUBLE_EQ((*m)(0, 1), 2.0);
  EXPECT_DOUBLE_EQ((*m)(1, 1), 3.0);
  EXPECT_DOUBLE_EQ((*m)(1, 0), 0.0);
}

TEST(RestructureTest, UnmappedIdsAreSkipped) {
  const std::vector<int64_t> rows = {1, 99};
  const std::vector<int64_t> cols = {1, 1};
  const std::vector<double> vals = {5.0, 7.0};
  DenseMapping rm = MakeDenseMapping({1});
  DenseMapping cm = MakeDenseMapping({1});
  auto m = TriplesToMatrix(rows.data(), cols.data(), vals.data(), 2, rm, cm,
                           nullptr, nullptr);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ((*m)(0, 0), 5.0);
}

}  // namespace
}  // namespace genbase::relational
