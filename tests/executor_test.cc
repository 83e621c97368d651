#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "ordb/database.h"
#include "ordb/executor.h"

namespace xorator::ordb {
namespace {

/// Operator-level tests: each physical operator exercised directly against
/// a materialized input, independent of the SQL front end.

/// Feeds a fixed row set (for composing operator trees in tests).
class ValuesOp : public Operator {
 public:
  ValuesOp(std::vector<ColumnMeta> columns, std::vector<Tuple> rows)
      : rows_(std::move(rows)) {
    columns_ = std::move(columns);
  }

  Status DoOpen() override {
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> Next(Tuple* out) override {
    if (pos_ >= rows_.size()) return false;
    *out = rows_[pos_++];
    return true;
  }
  std::string Label() const override { return "Values"; }

 private:
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

OperatorPtr MakeValues(std::vector<Tuple> rows, size_t width) {
  std::vector<ColumnMeta> cols;
  for (size_t i = 0; i < width; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    cols.push_back({name, TypeId::kInteger});
  }
  return std::make_unique<ValuesOp>(std::move(cols), std::move(rows));
}

std::vector<Tuple> Drain(Operator* op) {
  EXPECT_TRUE(op->Open().ok());
  std::vector<Tuple> out;
  Tuple row;
  while (true) {
    auto ok = op->Next(&row);
    EXPECT_TRUE(ok.ok()) << ok.status().ToString();
    if (!ok.ok() || !*ok) break;
    out.push_back(row);
  }
  op->Close();
  return out;
}

/// Each row as text, so that two runs' rows compare with ==.
std::vector<std::string> Render(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  for (const Tuple& row : rows) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    out.push_back(std::move(line));
  }
  return out;
}

ExprPtr Col(size_t i) {
  return std::make_unique<ColumnRefExpr>(i, "c" + std::to_string(i),
                                         TypeId::kInteger);
}

ExprPtr IntLit(int64_t v) {
  return std::make_unique<LiteralExpr>(Value::Int(v));
}

/// The DISTINCT plan: an aggregate grouping on every column of `child`,
/// without aggregates.
OperatorPtr MakeDistinct(OperatorPtr child) {
  std::vector<ExprPtr> keys;
  std::vector<std::string> names;
  for (size_t c = 0; c < child->columns().size(); ++c) {
    keys.push_back(Col(c));
    names.push_back(child->columns()[c].name);
  }
  return std::make_unique<AggregateOp>(std::move(child), std::move(keys),
                                       std::move(names),
                                       std::vector<AggregateSpec>{});
}

/// A table function `rows(n)` of two columns, (i, 40 x's) for i < n.
TableFunction RowsFunction() {
  TableFunction fn;
  fn.name = "rows";
  fn.output = {{"i", TypeId::kInteger}, {"s", TypeId::kVarchar}};
  fn.arity = 1;
  fn.is_udf = false;
  fn.impl = [](const std::vector<Value>& args,
               const ColumnMask&) -> Result<std::vector<Tuple>> {
    std::vector<Tuple> rows;
    for (int64_t i = 0; i < args[0].AsInt(); ++i) {
      rows.push_back({Value::Int(i), Value::Varchar(std::string(40, 'x'))});
    }
    return rows;
  };
  return fn;
}

/// `fn(n)` applied once per row of `child` (once, when `child` is null).
OperatorPtr MakeLateral(OperatorPtr child, const TableFunction* fn,
                        int64_t n) {
  std::vector<ExprPtr> args;
  args.push_back(IntLit(n));
  const size_t width =
      (child != nullptr ? child->columns().size() : 0) + fn->output.size();
  return std::make_unique<LateralTableFuncOp>(
      std::move(child), fn, std::move(args), "u", ColumnMask(width, true));
}

TEST(FilterOpTest, KeepsMatchingRows) {
  auto values = MakeValues({{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)}},
                           1);
  auto pred = std::make_unique<CompareExpr>(CompareOp::kGt, Col(0), IntLit(1));
  FilterOp filter(std::move(values), std::move(pred));
  auto rows = Drain(&filter);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt(), 2);
}

TEST(ProjectOpTest, EvaluatesExpressions) {
  auto values = MakeValues({{Value::Int(5), Value::Int(7)}}, 2);
  std::vector<ExprPtr> exprs;
  exprs.push_back(Col(1));
  exprs.push_back(Col(0));
  ProjectOp project(std::move(values), std::move(exprs), {"b", "a"});
  auto rows = Drain(&project);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 7);
  EXPECT_EQ(rows[0][1].AsInt(), 5);
  EXPECT_EQ(project.columns()[0].name, "b");
}

TEST(HashJoinOpTest, JoinsOnKeysWithDuplicates) {
  auto left = MakeValues(
      {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(2)}}, 1);
  auto right = MakeValues(
      {{Value::Int(2), Value::Int(20)}, {Value::Int(3), Value::Int(30)},
       {Value::Int(2), Value::Int(21)}},
      2);
  std::vector<ExprPtr> lk;
  lk.push_back(Col(0));
  std::vector<ExprPtr> rk;
  rk.push_back(Col(0));
  HashJoinOp join(std::move(left), std::move(right), std::move(lk),
                  std::move(rk));
  auto rows = Drain(&join);
  // 2 left dups x 2 right dups on key 2 = 4 rows.
  EXPECT_EQ(rows.size(), 4u);
  for (const Tuple& row : rows) {
    EXPECT_EQ(row[0].AsInt(), row[1].AsInt());
  }
}

TEST(SortMergeJoinOpTest, MatchesHashJoinSemantics) {
  auto make_inputs = [] {
    auto left = MakeValues({{Value::Int(3)},
                            {Value::Int(1)},
                            {Value::Int(2)},
                            {Value::Int(2)}},
                           1);
    auto right = MakeValues({{Value::Int(2), Value::Int(20)},
                             {Value::Int(1), Value::Int(10)},
                             {Value::Int(2), Value::Int(21)}},
                            2);
    return std::make_pair(std::move(left), std::move(right));
  };
  auto run = [&](bool hash) {
    auto [left, right] = make_inputs();
    std::vector<ExprPtr> lk;
    lk.push_back(Col(0));
    std::vector<ExprPtr> rk;
    rk.push_back(Col(0));
    std::multiset<std::pair<int64_t, int64_t>> out;
    if (hash) {
      HashJoinOp join(std::move(left), std::move(right), std::move(lk),
                      std::move(rk));
      for (const Tuple& row : Drain(&join)) {
        out.emplace(row[0].AsInt(), row[2].AsInt());
      }
    } else {
      SortMergeJoinOp join(std::move(left), std::move(right), std::move(lk),
                           std::move(rk));
      for (const Tuple& row : Drain(&join)) {
        out.emplace(row[0].AsInt(), row[2].AsInt());
      }
    }
    return out;
  };
  auto hash_rows = run(true);
  auto merge_rows = run(false);
  EXPECT_EQ(hash_rows.size(), 5u);  // 1x1 + 2x2
  EXPECT_EQ(hash_rows, merge_rows);
}

TEST(NestedLoopJoinOpTest, CrossProductAndPredicate) {
  auto left = MakeValues({{Value::Int(1)}, {Value::Int(2)}}, 1);
  auto right = MakeValues({{Value::Int(10)}, {Value::Int(20)}}, 1);
  NestedLoopJoinOp cross(std::move(left), std::move(right), nullptr);
  EXPECT_EQ(Drain(&cross).size(), 4u);

  auto left2 = MakeValues({{Value::Int(1)}, {Value::Int(2)}}, 1);
  auto right2 = MakeValues({{Value::Int(1)}, {Value::Int(5)}}, 1);
  // Predicate over the combined layout: c0 (left) < c1 (right index 0 -> 1).
  auto pred = std::make_unique<CompareExpr>(
      CompareOp::kLt, Col(0),
      std::make_unique<ColumnRefExpr>(1, "r.c0", TypeId::kInteger));
  NestedLoopJoinOp join(std::move(left2), std::move(right2), std::move(pred));
  EXPECT_EQ(Drain(&join).size(), 2u);  // (1,5) and (2,5)
}

TEST(SortOpTest, MultiKeyMixedDirections) {
  auto values = MakeValues({{Value::Int(1), Value::Int(9)},
                            {Value::Int(2), Value::Int(5)},
                            {Value::Int(1), Value::Int(3)}},
                           2);
  std::vector<ExprPtr> keys;
  keys.push_back(Col(0));
  keys.push_back(Col(1));
  SortOp sort(std::move(values), std::move(keys), {true, false});
  auto rows = Drain(&sort);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][1].AsInt(), 9);  // (1,9) before (1,3) since c1 DESC
  EXPECT_EQ(rows[1][1].AsInt(), 3);
  EXPECT_EQ(rows[2][0].AsInt(), 2);
}

TEST(DistinctOpTest, RemovesDuplicateRows) {
  auto values = MakeValues(
      {{Value::Int(1)}, {Value::Int(1)}, {Value::Null()}, {Value::Null()}},
      1);
  OperatorPtr distinct = MakeDistinct(std::move(values));
  EXPECT_EQ(Drain(distinct.get()).size(), 2u);
}

TEST(AggregateOpTest, GroupsAndAggregates) {
  auto values = MakeValues({{Value::Int(1), Value::Int(10)},
                            {Value::Int(1), Value::Int(20)},
                            {Value::Int(2), Value::Null()},
                            {Value::Int(2), Value::Int(5)}},
                           2);
  std::vector<ExprPtr> group;
  group.push_back(Col(0));
  std::vector<AggregateSpec> aggs;
  AggregateSpec count_star;
  count_star.kind = AggKind::kCountStar;
  count_star.name = "n";
  aggs.push_back(std::move(count_star));
  AggregateSpec count_col;
  count_col.kind = AggKind::kCount;
  count_col.arg = Col(1);
  count_col.name = "c";
  aggs.push_back(std::move(count_col));
  AggregateSpec sum;
  sum.kind = AggKind::kSum;
  sum.arg = Col(1);
  sum.name = "s";
  aggs.push_back(std::move(sum));
  AggregateSpec min;
  min.kind = AggKind::kMin;
  min.arg = Col(1);
  min.name = "lo";
  aggs.push_back(std::move(min));
  AggregateOp agg(std::move(values), std::move(group), {"g"},
                  std::move(aggs));
  auto rows = Drain(&agg);
  ASSERT_EQ(rows.size(), 2u);
  // Group 1: n=2, c=2, s=30, lo=10.
  EXPECT_EQ(rows[0][0].AsInt(), 1);
  EXPECT_EQ(rows[0][1].AsInt(), 2);
  EXPECT_EQ(rows[0][2].AsInt(), 2);
  EXPECT_EQ(rows[0][3].AsInt(), 30);
  EXPECT_EQ(rows[0][4].AsInt(), 10);
  // Group 2: COUNT skips the null, SUM/MIN over {5}.
  EXPECT_EQ(rows[1][1].AsInt(), 2);
  EXPECT_EQ(rows[1][2].AsInt(), 1);
  EXPECT_EQ(rows[1][3].AsInt(), 5);
}

TEST(OperatorBudgetTest, EveryMaterializingOperatorHonoursTheBudget) {
  // 200 rows of ~100 bytes each against a 4 KB budget; the one-row side of
  // a join fits, so a join trips on the input named in the case.
  std::vector<Tuple> big;
  for (int i = 0; i < 200; ++i) {
    big.push_back({Value::Int(i), Value::Varchar(std::string(40, 'x'))});
  }
  auto big_input = [&] { return MakeValues(big, 2); };
  auto one_row = [] { return MakeValues({{Value::Int(7), Value::Int(7)}}, 2); };
  const TableFunction rows_fn = RowsFunction();
  auto key = [] {
    std::vector<ExprPtr> keys;
    keys.push_back(Col(0));
    return keys;
  };
  const std::vector<std::pair<std::string, std::function<OperatorPtr()>>>
      kCases = {
          {"NestedLoopJoin right",
           [&] {
             return std::make_unique<NestedLoopJoinOp>(one_row(), big_input(),
                                                       nullptr);
           }},
          {"HashJoin build",
           [&] {
             return std::make_unique<HashJoinOp>(big_input(), one_row(), key(),
                                                 key());
           }},
          {"SortMergeJoin left",
           [&] {
             return std::make_unique<SortMergeJoinOp>(big_input(), one_row(),
                                                      key(), key());
           }},
          {"SortMergeJoin right",
           [&] {
             return std::make_unique<SortMergeJoinOp>(one_row(), big_input(),
                                                      key(), key());
           }},
          {"Sort",
           [&] {
             return std::make_unique<SortOp>(big_input(), key(),
                                             std::vector<bool>{true});
           }},
          {"Aggregate",
           [&] {
             std::vector<AggregateSpec> aggs(1);
             aggs[0].name = "n";
             return std::make_unique<AggregateOp>(
                 big_input(), key(), std::vector<std::string>{"g"},
                 std::move(aggs));
           }},
          {"Distinct", [&] { return MakeDistinct(big_input()); }},
          {"Lateral", [&] { return MakeLateral(nullptr, &rows_fn, 200); }},
      };
  for (const auto& [name, make] : kCases) {
    SCOPED_TRACE(name);
    QueryGuard guard(0, 4096);
    ExecContext ctx;
    ctx.guard = &guard;
    ScopedExecContext bind(ctx);
    OperatorPtr op = make();
    Status status = op->Open();
    Tuple row;
    while (status.ok()) {
      auto ok = op->Next(&row);
      if (!ok.ok()) {
        status = ok.status();
      } else if (!*ok) {
        break;
      }
    }
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
        << status.ToString();
    op->Close();
    EXPECT_EQ(guard.Stats().tracked_bytes, 0u);
  }
}

TEST(OperatorTest, RescanAfterCloseOpen) {
  // Every materializing operator is restartable: Open after Close replays
  // the stream, and each Close returns every byte it charged.
  auto input = [] {
    return MakeValues({{Value::Int(2), Value::Int(20)},
                       {Value::Int(1), Value::Int(10)},
                       {Value::Int(2), Value::Int(21)},
                       {Value::Null(), Value::Int(30)}},
                      2);
  };
  auto key = [] {
    std::vector<ExprPtr> keys;
    keys.push_back(Col(0));
    return keys;
  };
  const TableFunction rows_fn = RowsFunction();
  const std::vector<std::pair<std::string, std::function<OperatorPtr()>>>
      kCases = {
          {"NestedLoopJoin",
           [&] {
             return std::make_unique<NestedLoopJoinOp>(input(), input(),
                                                       nullptr);
           }},
          {"HashJoin",
           [&] {
             return std::make_unique<HashJoinOp>(input(), input(), key(),
                                                 key());
           }},
          {"SortMergeJoin",
           [&] {
             return std::make_unique<SortMergeJoinOp>(input(), input(), key(),
                                                      key());
           }},
          {"Sort",
           [&] {
             return std::make_unique<SortOp>(input(), key(),
                                             std::vector<bool>{false});
           }},
          {"Aggregate",
           [&] {
             std::vector<AggregateSpec> aggs(2);
             aggs[0].name = "n";
             aggs[1].kind = AggKind::kSum;
             aggs[1].arg = Col(1);
             aggs[1].name = "s";
             return std::make_unique<AggregateOp>(
                 input(), key(), std::vector<std::string>{"g"},
                 std::move(aggs));
           }},
          {"Lateral", [&] { return MakeLateral(input(), &rows_fn, 3); }},
      };
  for (const auto& [name, make] : kCases) {
    SCOPED_TRACE(name);
    QueryGuard guard(0, 1 << 20);
    ExecContext ctx;
    ctx.guard = &guard;
    ScopedExecContext bind(ctx);
    OperatorPtr op = make();
    const std::vector<std::string> first = Render(Drain(op.get()));
    EXPECT_FALSE(first.empty());
    EXPECT_GT(guard.Stats().peak_tracked_bytes, 0u);
    EXPECT_EQ(guard.Stats().tracked_bytes, 0u);
    EXPECT_EQ(Render(Drain(op.get())), first);
    EXPECT_EQ(guard.Stats().tracked_bytes, 0u);
  }
}

TEST(ExplainTest, TreeRendering) {
  auto values = MakeValues({{Value::Int(1)}}, 1);
  auto pred = std::make_unique<CompareExpr>(CompareOp::kEq, Col(0), IntLit(1));
  FilterOp filter(std::move(values), std::move(pred));
  std::string text = filter.Explain();
  EXPECT_NE(text.find("Filter(c0 = 1)"), std::string::npos);
  EXPECT_NE(text.find("  Values"), std::string::npos);
}

}  // namespace
}  // namespace xorator::ordb
