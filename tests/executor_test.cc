#include <gtest/gtest.h>

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

  Status Open(ExecContext*) override {
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

std::vector<Tuple> Drain(Operator* op, ExecContext* ctx) {
  EXPECT_TRUE(op->Open(ctx).ok());
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

ExprPtr Col(size_t i) {
  return std::make_unique<ColumnRefExpr>(i, "c" + std::to_string(i),
                                         TypeId::kInteger);
}

ExprPtr IntLit(int64_t v) {
  return std::make_unique<LiteralExpr>(Value::Int(v));
}

TEST(FilterOpTest, KeepsMatchingRows) {
  ExecContext ctx;
  auto values = MakeValues({{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)}},
                           1);
  auto pred = std::make_unique<CompareExpr>(CompareOp::kGt, Col(0), IntLit(1));
  FilterOp filter(std::move(values), std::move(pred));
  auto rows = Drain(&filter, &ctx);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt(), 2);
}

TEST(ProjectOpTest, EvaluatesExpressions) {
  ExecContext ctx;
  auto values = MakeValues({{Value::Int(5), Value::Int(7)}}, 2);
  std::vector<ExprPtr> exprs;
  exprs.push_back(Col(1));
  exprs.push_back(Col(0));
  ProjectOp project(std::move(values), std::move(exprs), {"b", "a"});
  auto rows = Drain(&project, &ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 7);
  EXPECT_EQ(rows[0][1].AsInt(), 5);
  EXPECT_EQ(project.columns()[0].name, "b");
}

TEST(HashJoinOpTest, JoinsOnKeysWithDuplicates) {
  ExecContext ctx;
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
                  std::move(rk), nullptr);
  auto rows = Drain(&join, &ctx);
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
    ExecContext ctx;
    auto [left, right] = make_inputs();
    std::vector<ExprPtr> lk;
    lk.push_back(Col(0));
    std::vector<ExprPtr> rk;
    rk.push_back(Col(0));
    std::multiset<std::pair<int64_t, int64_t>> out;
    if (hash) {
      HashJoinOp join(std::move(left), std::move(right), std::move(lk),
                      std::move(rk), nullptr);
      for (const Tuple& row : Drain(&join, &ctx)) {
        out.emplace(row[0].AsInt(), row[2].AsInt());
      }
    } else {
      SortMergeJoinOp join(std::move(left), std::move(right), std::move(lk),
                           std::move(rk), nullptr);
      for (const Tuple& row : Drain(&join, &ctx)) {
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
  ExecContext ctx;
  auto left = MakeValues({{Value::Int(1)}, {Value::Int(2)}}, 1);
  auto right = MakeValues({{Value::Int(10)}, {Value::Int(20)}}, 1);
  NestedLoopJoinOp cross(std::move(left), std::move(right), nullptr);
  EXPECT_EQ(Drain(&cross, &ctx).size(), 4u);

  auto left2 = MakeValues({{Value::Int(1)}, {Value::Int(2)}}, 1);
  auto right2 = MakeValues({{Value::Int(1)}, {Value::Int(5)}}, 1);
  // Predicate over the combined layout: c0 (left) < c1 (right index 0 -> 1).
  auto pred = std::make_unique<CompareExpr>(
      CompareOp::kLt, Col(0),
      std::make_unique<ColumnRefExpr>(1, "r.c0", TypeId::kInteger));
  NestedLoopJoinOp join(std::move(left2), std::move(right2), std::move(pred));
  EXPECT_EQ(Drain(&join, &ctx).size(), 2u);  // (1,5) and (2,5)
}

TEST(SortOpTest, MultiKeyMixedDirections) {
  ExecContext ctx;
  auto values = MakeValues({{Value::Int(1), Value::Int(9)},
                            {Value::Int(2), Value::Int(5)},
                            {Value::Int(1), Value::Int(3)}},
                           2);
  std::vector<ExprPtr> keys;
  keys.push_back(Col(0));
  keys.push_back(Col(1));
  SortOp sort(std::move(values), std::move(keys), {true, false});
  auto rows = Drain(&sort, &ctx);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][1].AsInt(), 9);  // (1,9) before (1,3) since c1 DESC
  EXPECT_EQ(rows[1][1].AsInt(), 3);
  EXPECT_EQ(rows[2][0].AsInt(), 2);
}

TEST(DistinctOpTest, RemovesDuplicateRows) {
  ExecContext ctx;
  auto values = MakeValues(
      {{Value::Int(1)}, {Value::Int(1)}, {Value::Null()}, {Value::Null()}},
      1);
  DistinctOp distinct(std::move(values));
  EXPECT_EQ(Drain(&distinct, &ctx).size(), 2u);
}

TEST(AggregateOpTest, GroupsAndAggregates) {
  ExecContext ctx;
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
  auto rows = Drain(&agg, &ctx);
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

TEST(OperatorTest, RescanAfterCloseOpen) {
  // Operators are restartable: Open after Close replays the stream.
  ExecContext ctx;
  auto values = MakeValues({{Value::Int(1)}, {Value::Int(2)}}, 1);
  DistinctOp distinct(std::move(values));
  EXPECT_EQ(Drain(&distinct, &ctx).size(), 2u);
  EXPECT_EQ(Drain(&distinct, &ctx).size(), 2u);
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
