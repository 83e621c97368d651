#include <gtest/gtest.h>

#include "ordb/database.h"
#include "xadt/functions.h"

namespace xorator::ordb {
namespace {

/// Plan-shape coverage: what the planner chooses under different schemas,
/// statistics and options.
class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open({});
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(xadt::RegisterXadtFunctions(db_->functions()).ok());
    ASSERT_TRUE(
        db_->Execute("CREATE TABLE big (id INTEGER, fk INTEGER, v VARCHAR)")
            .ok());
    ASSERT_TRUE(
        db_->Execute("CREATE TABLE small (id INTEGER, name VARCHAR)").ok());
    // 2000 rows in big (fk spreads over 100 groups), 100 in small.
    std::vector<Tuple> big_rows;
    for (int i = 0; i < 2000; ++i) {
      big_rows.push_back({Value::Int(i), Value::Int(i % 100),
                          Value::Varchar("value-" + std::to_string(i % 7))});
    }
    ASSERT_TRUE(db_->BulkInsert("big", big_rows).ok());
    std::vector<Tuple> small_rows;
    for (int i = 0; i < 100; ++i) {
      small_rows.push_back(
          {Value::Int(i), Value::Varchar("name-" + std::to_string(i))});
    }
    ASSERT_TRUE(db_->BulkInsert("small", small_rows).ok());
    ASSERT_TRUE(db_->RunStats().ok());
  }

  std::string Plan(const std::string& sql) {
    auto plan = db_->Explain(sql);
    EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    return plan.ok() ? *plan : "";
  }

  std::unique_ptr<Database> db_;
};

TEST_F(PlannerTest, FilterPushdownBelowJoin) {
  std::string plan = Plan(
      "SELECT v FROM big, small WHERE fk = small.id AND name = 'name-3'");
  // The name filter must sit below the join, directly over small's scan.
  size_t join = plan.find("Join");
  size_t filter = plan.find("Filter(small.name = 'name-3')");
  ASSERT_NE(join, std::string::npos) << plan;
  ASSERT_NE(filter, std::string::npos) << plan;
  EXPECT_GT(filter, join) << plan;
}

TEST_F(PlannerTest, IndexScanChosenForEqualityWithIndex) {
  ASSERT_TRUE(db_->Execute("CREATE INDEX i1 ON big (id)").ok());
  EXPECT_NE(Plan("SELECT v FROM big WHERE id = 7").find("IndexScan"),
            std::string::npos);
  // Non-equality predicates do not use the point index.
  EXPECT_EQ(Plan("SELECT v FROM big WHERE id > 7").find("IndexScan"),
            std::string::npos);
}

TEST_F(PlannerTest, IndexScanPicksMostSelectiveEquality) {
  // v = 'value-3' matches 1/7 of big, fk = 7 matches 1/100: the index scan
  // goes through fk although v is listed first.
  ASSERT_TRUE(db_->Execute("CREATE INDEX iv ON big (v)").ok());
  ASSERT_TRUE(db_->Execute("CREATE INDEX ifk ON big (fk)").ok());
  ASSERT_TRUE(db_->RunStats().ok());
  const std::string sql =
      "SELECT id FROM big WHERE v = 'value-3' AND fk = 7";
  std::string plan = Plan(sql);
  EXPECT_NE(plan.find("IndexScan(big AS big ON fk = 7)"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("Filter(big.v = 'value-3')"), std::string::npos)
      << plan;
  auto r = db_->Query(sql);
  ASSERT_TRUE(r.ok());
  // Rows with fk = 7 (i % 100 == 7) whose v is 'value-3' (i % 7 == 3).
  size_t expected = 0;
  for (int i = 0; i < 2000; ++i) expected += i % 100 == 7 && i % 7 == 3;
  EXPECT_EQ(r->rows.size(), expected);
}

TEST_F(PlannerTest, IndexJoinRequiresSelectiveOuter) {
  ASSERT_TRUE(db_->Execute("CREATE INDEX i2 ON big (fk)").ok());
  ASSERT_TRUE(db_->RunStats().ok());
  // Selective outer (one small row) -> index NL join into big.
  std::string selective = Plan(
      "SELECT v FROM small, big WHERE small.id = big.fk "
      "AND name = 'name-3'");
  EXPECT_NE(selective.find("IndexNLJoin"), std::string::npos) << selective;
  // Unselective outer (all 2000 big rows probing small) -> hash join.
  ASSERT_TRUE(db_->Execute("CREATE INDEX i3 ON small (id)").ok());
  ASSERT_TRUE(db_->RunStats().ok());
  std::string unselective =
      Plan("SELECT v FROM big, small WHERE big.fk = small.id");
  EXPECT_EQ(unselective.find("IndexNLJoin"), std::string::npos)
      << unselective;
  EXPECT_NE(unselective.find("HashJoin"), std::string::npos) << unselective;
}

TEST_F(PlannerTest, SortMergeWhenBuildSideExceedsSortHeap) {
  db_->mutable_options()->planner.enable_index_join = false;
  db_->mutable_options()->planner.sort_heap_bytes = 1024;  // tiny
  std::string plan =
      Plan("SELECT v FROM big, small WHERE big.fk = small.id");
  EXPECT_NE(plan.find("SortMergeJoin"), std::string::npos) << plan;
}

TEST_F(PlannerTest, CrossProductUsesNestedLoop) {
  std::string plan = Plan("SELECT v FROM big, small");
  EXPECT_NE(plan.find("NestedLoopJoin"), std::string::npos) << plan;
}

TEST_F(PlannerTest, NonEquiJoinPredicateBecomesResidualFilter) {
  std::string plan =
      Plan("SELECT v FROM big, small WHERE big.fk < small.id");
  EXPECT_NE(plan.find("NestedLoopJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("big.fk < small.id"), std::string::npos) << plan;
}

TEST_F(PlannerTest, MultiKeyEquiJoin) {
  ASSERT_TRUE(
      db_->Execute("CREATE TABLE pairs (a INTEGER, b INTEGER)").ok());
  ASSERT_TRUE(db_->Execute("INSERT INTO pairs VALUES (1, 1), (2, 2)").ok());
  std::string plan = Plan(
      "SELECT v FROM big, pairs WHERE big.fk = pairs.a AND big.id = pairs.b");
  // Both keys land in one join.
  EXPECT_NE(plan.find(" = "), std::string::npos);
  auto r = db_->Query(
      "SELECT big.id FROM big, pairs WHERE big.fk = pairs.a "
      "AND big.id = pairs.b");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);  // rows 1 and 2 have id == fk
}

TEST_F(PlannerTest, AggregatePlacedAboveJoins) {
  std::string plan = Plan(
      "SELECT name, COUNT(*) AS n FROM small, big WHERE small.id = big.fk "
      "GROUP BY name");
  size_t agg = plan.find("Aggregate");
  size_t join = plan.find("Join");
  ASSERT_NE(agg, std::string::npos);
  ASSERT_NE(join, std::string::npos);
  EXPECT_LT(agg, join);
}

TEST_F(PlannerTest, DistinctAboveProjection) {
  std::string plan = Plan("SELECT DISTINCT v FROM big");
  size_t distinct = plan.find("Distinct");
  size_t project = plan.find("Project");
  ASSERT_NE(distinct, std::string::npos);
  ASSERT_NE(project, std::string::npos);
  EXPECT_LT(distinct, project);
}

TEST_F(PlannerTest, LateralFunctionArgsMustReferenceEarlierItems) {
  ASSERT_TRUE(db_->Execute("CREATE TABLE fx (x XADT)").ok());
  // Function argument referencing a *later* FROM item is rejected.
  auto bad = db_->Query(
      "SELECT u.out FROM table(unnest(fx.x, 'a')) u, fx");
  EXPECT_FALSE(bad.ok());
  // Proper order works.
  ASSERT_TRUE(db_->Execute("INSERT INTO fx VALUES ('<a>1</a>')").ok());
  auto good = db_->Query("SELECT u.out FROM fx, table(unnest(x, 'a')) u");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->rows.size(), 1u);
}

TEST_F(PlannerTest, StatsImproveSelectivityEstimates) {
  // Without an index on v (ndv = 7 over 2000 rows: unselective), a filter
  // on v still runs; with stats the estimate flows into join sizing.
  auto r = db_->Query("SELECT COUNT(*) AS n FROM big WHERE v = 'value-3'");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->rows[0][0].AsInt(), 200);
}

TEST_F(PlannerTest, OrderByMissingColumnRejected) {
  EXPECT_FALSE(db_->Query("SELECT v FROM big ORDER BY nosuch").ok());
}

TEST_F(PlannerTest, GroupByNonColumnAggregatesRejected) {
  EXPECT_FALSE(db_->Query("SELECT COUNT(*) FROM big GROUP BY COUNT(*)").ok());
}

TEST_F(PlannerTest, FromlessQueryRejected) {
  EXPECT_FALSE(db_->Query("SELECT 1").ok());
}

}  // namespace
}  // namespace xorator::ordb
