#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "benchutil/fixture.h"
#include "benchutil/workload.h"
#include "common/str_util.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "ordb/database.h"
#include "ordb/sql.h"
#include "xadt/functions.h"

namespace xorator::ordb {
namespace {

std::unique_ptr<Database> OpenDb(DbOptions options = {}) {
  auto db = Database::Open(options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(xadt::RegisterXadtFunctions(db.value()->functions()).ok());
  return std::move(*db);
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenDb();
    ASSERT_TRUE(db_->Execute("CREATE TABLE emp (id INTEGER, name VARCHAR, "
                             "dept INTEGER, salary INTEGER)")
                    .ok());
    ASSERT_TRUE(db_->Execute("CREATE TABLE dept (id INTEGER, dname VARCHAR)")
                    .ok());
    ASSERT_TRUE(db_->Execute("INSERT INTO emp VALUES "
                             "(1, 'ann', 10, 100), (2, 'bob', 10, 200), "
                             "(3, 'cat', 20, 300), (4, 'dan', 20, 150), "
                             "(5, 'eve', 30, 50)")
                    .ok());
    ASSERT_TRUE(db_->Execute("INSERT INTO dept VALUES "
                             "(10, 'eng'), (20, 'ops'), (30, 'hr')")
                    .ok());
  }

  QueryResult Q(const std::string& sql) {
    auto r = db_->Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(EngineTest, SelectWithFilter) {
  QueryResult r = Q("SELECT name FROM emp WHERE salary > 150");
  ASSERT_EQ(r.rows.size(), 2u);
  std::set<std::string> names;
  for (const Tuple& row : r.rows) names.insert(row[0].AsString());
  EXPECT_EQ(names, (std::set<std::string>{"bob", "cat"}));
}

TEST_F(EngineTest, SelectStar) {
  QueryResult r = Q("SELECT * FROM dept");
  EXPECT_EQ(r.columns.size(), 2u);
  EXPECT_EQ(r.columns[0], "dept.id");
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(EngineTest, LikePredicate) {
  QueryResult r = Q("SELECT name FROM emp WHERE name LIKE '%a%'");
  EXPECT_EQ(r.rows.size(), 3u);  // ann, cat, dan
}

TEST_F(EngineTest, JoinWithoutIndex) {
  QueryResult r = Q(
      "SELECT name, dname FROM emp, dept WHERE dept = dept.id "
      "AND dname = 'ops'");
  ASSERT_EQ(r.rows.size(), 2u);
  for (const Tuple& row : r.rows) EXPECT_EQ(row[1].AsString(), "ops");
}

TEST_F(EngineTest, JoinWithIndexUsesIndexScanPath) {
  ASSERT_TRUE(db_->Execute("CREATE INDEX i ON emp (dept)").ok());
  ASSERT_TRUE(db_->RunStats().ok());
  auto plan = db_->Explain(
      "SELECT name FROM dept, emp WHERE dept.id = emp.dept "
      "AND dname = 'eng'");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexNLJoin"), std::string::npos) << *plan;
  QueryResult r = Q(
      "SELECT name FROM dept, emp WHERE dept.id = emp.dept "
      "AND dname = 'eng'");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(EngineTest, EqualityUsesIndexScan) {
  ASSERT_TRUE(db_->Execute("CREATE INDEX i2 ON emp (name)").ok());
  auto plan = db_->Explain("SELECT salary FROM emp WHERE name = 'cat'");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
  QueryResult r = Q("SELECT salary FROM emp WHERE name = 'cat'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 300);
}

TEST_F(EngineTest, SortMergeJoinWhenHashDisabled) {
  db_->mutable_options()->planner.enable_hash_join = false;
  db_->mutable_options()->planner.enable_index_join = false;
  auto plan = db_->Explain(
      "SELECT name, dname FROM emp, dept WHERE dept = dept.id");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("SortMergeJoin"), std::string::npos) << *plan;
  QueryResult r = Q("SELECT name, dname FROM emp, dept WHERE dept = dept.id");
  EXPECT_EQ(r.rows.size(), 5u);
}

TEST_F(EngineTest, HashJoinWhenEnabled) {
  db_->mutable_options()->planner.enable_index_join = false;
  auto plan = db_->Explain(
      "SELECT name, dname FROM emp, dept WHERE dept = dept.id");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("HashJoin"), std::string::npos) << *plan;
}

TEST_F(EngineTest, TinySortHeapForcesSortMerge) {
  db_->mutable_options()->planner.enable_index_join = false;
  db_->mutable_options()->planner.sort_heap_bytes = 1;
  ASSERT_TRUE(db_->RunStats().ok());
  auto plan = db_->Explain(
      "SELECT name, dname FROM emp, dept WHERE dept = dept.id");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("SortMergeJoin"), std::string::npos) << *plan;
}

// NULL equals nothing (CompareExpr's rule), so a NULL join key matches
// nothing, whichever join algorithm the planner picks.
TEST(NullJoinKeyTest, MatchesNothingUnderEveryJoinAlgorithm) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Execute("CREATE TABLE a (x INTEGER, v INTEGER)").ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE b (y INTEGER, w INTEGER)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO a VALUES (1, 10), (NULL, 20)").ok());
  std::string rows = "(1, 100), (NULL, 200)";
  for (int y = 2; y <= 40; ++y) rows += ", (" + std::to_string(y) + ", 0)";
  ASSERT_TRUE(db->Execute("INSERT INTO b VALUES " + rows).ok());
  ASSERT_TRUE(db->Execute("CREATE INDEX bi ON b (y)").ok());
  const std::string kEqui = "SELECT COUNT(*) AS n FROM a, b WHERE a.x = b.y";
  struct Case {
    const char* join;
    bool hash;
    bool index;
    std::string sql;
  };
  const Case kCases[] = {
      {"HashJoin", true, false, kEqui},
      {"SortMergeJoin", false, false, kEqui},
      {"IndexNLJoin", true, true, kEqui},
      {"NestedLoopJoin", true, true,
       "SELECT COUNT(*) AS n FROM a, b WHERE a.x <= b.y AND a.x >= b.y"},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.join);
    db->mutable_options()->planner.enable_hash_join = c.hash;
    db->mutable_options()->planner.enable_index_join = c.index;
    auto plan = db->Explain(c.sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan->find(c.join), std::string::npos) << *plan;
    auto r = db->Query(c.sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0].AsInt(), 1);
  }
}

TEST_F(EngineTest, CrossProductNestedLoop) {
  QueryResult r = Q("SELECT name, dname FROM emp, dept");
  EXPECT_EQ(r.rows.size(), 15u);
}

TEST_F(EngineTest, ThreeWayJoin) {
  ASSERT_TRUE(
      db_->Execute("CREATE TABLE loc (dept_id INTEGER, city VARCHAR)").ok());
  ASSERT_TRUE(db_->Execute("INSERT INTO loc VALUES (10, 'nyc'), (20, 'sfo'), "
                           "(30, 'chi')")
                  .ok());
  QueryResult r = Q(
      "SELECT name, dname, city FROM emp, dept, loc "
      "WHERE emp.dept = dept.id AND dept.id = loc.dept_id "
      "AND city = 'sfo'");
  ASSERT_EQ(r.rows.size(), 2u);
  for (const Tuple& row : r.rows) EXPECT_EQ(row[2].AsString(), "sfo");
}

TEST_F(EngineTest, Distinct) {
  QueryResult r = Q("SELECT DISTINCT dept FROM emp");
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(EngineTest, OrderBy) {
  QueryResult r = Q("SELECT name, salary FROM emp ORDER BY salary DESC");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].AsString(), "cat");
  EXPECT_EQ(r.rows[4][0].AsString(), "eve");
}

TEST_F(EngineTest, OrderByAlias) {
  QueryResult r = Q("SELECT name AS n FROM emp ORDER BY n");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].AsString(), "ann");
}

TEST_F(EngineTest, Limit) {
  QueryResult r = Q("SELECT name FROM emp ORDER BY name LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
}

TEST_F(EngineTest, GroupByCount) {
  QueryResult r =
      Q("SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY dept");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 10);
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
  EXPECT_EQ(r.rows[2][1].AsInt(), 1);
}

TEST_F(EngineTest, GlobalAggregates) {
  QueryResult r = Q(
      "SELECT COUNT(*) AS n, SUM(salary) AS s, MIN(salary) AS lo, "
      "MAX(salary) AS hi FROM emp");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
  EXPECT_EQ(r.rows[0][1].AsInt(), 800);
  EXPECT_EQ(r.rows[0][2].AsInt(), 50);
  EXPECT_EQ(r.rows[0][3].AsInt(), 300);
}

TEST_F(EngineTest, SumTypesItsResultAndFailsOnOverflow) {
  ASSERT_TRUE(db_->Execute("CREATE TABLE t (g INTEGER, d DOUBLE, i INTEGER, "
                           "s VARCHAR, x XADT)")
                  .ok());
  ASSERT_TRUE(
      db_->BulkInsert(
             "t", {{Value::Int(1), Value::Double(3.5),
                    Value::Int(std::numeric_limits<int64_t>::max()),
                    Value::Varchar("a"), Value::Null()},
                   {Value::Int(1), Value::Double(4.25), Value::Int(1),
                    Value::Varchar("b"), Value::Null()},
                   {Value::Int(2), Value::Null(), Value::Int(-5),
                    Value::Varchar("c"), Value::Null()},
                   {Value::Int(2), Value::Double(0.25), Value::Int(7),
                    Value::Null(), Value::Null()}})
          .ok());
  struct Case {
    const char* sql;
    StatusCode code;
    Value want;  // when code is kOk
  };
  const Case kCases[] = {
      {"SELECT SUM(d) AS v FROM t WHERE g = 1", StatusCode::kOk,
       Value::Double(7.75)},
      {"SELECT SUM(d) AS v FROM t WHERE g = 2", StatusCode::kOk,
       Value::Double(0.25)},
      {"SELECT SUM(d) AS v FROM t WHERE g = 3", StatusCode::kOk,
       Value::Null()},
      {"SELECT SUM(i) AS v FROM t WHERE g = 2", StatusCode::kOk,
       Value::Int(2)},
      {"SELECT SUM(i) AS v FROM t WHERE g = 1", StatusCode::kOutOfRange,
       Value::Null()},
      {"SELECT SUM(s) AS v FROM t", StatusCode::kInvalidArgument,
       Value::Null()},
      {"SELECT SUM(x) AS v FROM t WHERE g = 3", StatusCode::kInvalidArgument,
       Value::Null()},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.sql);
    auto r = db_->Query(c.sql);
    EXPECT_EQ(r.status().code(), c.code) << r.status().ToString();
    if (!r.ok() || c.code != StatusCode::kOk) continue;
    ASSERT_EQ(r->rows.size(), 1u);
    const Value& got = r->rows[0][0];
    EXPECT_EQ(got.type(), c.want.type());
    EXPECT_EQ(got.Compare(c.want), 0) << got.ToString();
  }
}

TEST_F(EngineTest, DistinctEqualsGroupByEveryColumn) {
  ASSERT_TRUE(db_->Execute("CREATE TABLE p (a INTEGER, b VARCHAR)").ok());
  ASSERT_TRUE(db_->Execute("INSERT INTO p VALUES (1, 'x'), (NULL, 'y'), "
                           "(1, 'x'), (2, NULL), (NULL, NULL), (NULL, 'y'), "
                           "(1, 'y'), (2, NULL), (NULL, NULL)")
                  .ok());
  QueryResult distinct = Q("SELECT DISTINCT a, b FROM p");
  QueryResult grouped = Q("SELECT a, b FROM p GROUP BY a, b");
  EXPECT_EQ(distinct.rows.size(), 5u);
  EXPECT_EQ(distinct.columns, grouped.columns);
  EXPECT_EQ(distinct.ToString(), grouped.ToString());
}

TEST_F(EngineTest, AggregateOverEmptyInput) {
  QueryResult r = Q("SELECT COUNT(*) AS n FROM emp WHERE salary > 10000");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
}

TEST_F(EngineTest, NonGroupedColumnRejected) {
  auto r = db_->Query("SELECT name, COUNT(*) FROM emp GROUP BY dept");
  EXPECT_FALSE(r.ok());
}

TEST_F(EngineTest, BuiltinFunctions) {
  QueryResult r = Q("SELECT length(name), substr(name, 1, 2), upper(name) "
                    "FROM emp WHERE id = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.rows[0][1].AsString(), "an");
  EXPECT_EQ(r.rows[0][2].AsString(), "ANN");
}

TEST_F(EngineTest, UdfTwinsMatchBuiltinsButCountCalls) {
  QueryResult builtin = Q("SELECT length(name) FROM emp");
  EXPECT_EQ(builtin.udf_stats.scalar_calls, 0u);
  QueryResult udf = Q("SELECT udf_length(name) FROM emp");
  EXPECT_EQ(udf.udf_stats.scalar_calls, 5u);
  EXPECT_GT(udf.udf_stats.marshaled_bytes, 0u);
  ASSERT_EQ(builtin.rows.size(), udf.rows.size());
  for (size_t i = 0; i < builtin.rows.size(); ++i) {
    EXPECT_EQ(builtin.rows[i][0].AsInt(), udf.rows[i][0].AsInt());
  }
}

TEST_F(EngineTest, XadtColumnsAndMethods) {
  ASSERT_TRUE(db_->Execute("CREATE TABLE speakers (id INTEGER, speaker XADT)")
                  .ok());
  // Figure 9 of the paper: two tuples, one holding two speaker fragments.
  ASSERT_TRUE(db_->Execute("INSERT INTO speakers VALUES "
                           "(1, '<speaker>s1</speaker><speaker>s2</speaker>'),"
                           "(2, '<speaker>s1</speaker>')")
                  .ok());
  QueryResult before = Q("SELECT speaker FROM speakers");
  EXPECT_EQ(before.rows.size(), 2u);
  QueryResult after = Q(
      "SELECT DISTINCT unnestedS.out AS SPEAKER FROM speakers, "
      "table(unnest(speaker, 'speaker')) unnestedS");
  ASSERT_EQ(after.rows.size(), 2u);
  std::set<std::string> values;
  for (const Tuple& row : after.rows) values.insert(row[0].AsString());
  EXPECT_EQ(values, (std::set<std::string>{"s1", "s2"}));
  // findKeyInElm filters tuples.
  QueryResult found = Q(
      "SELECT id FROM speakers WHERE "
      "findKeyInElm(speaker, 'speaker', 's2') = 1");
  ASSERT_EQ(found.rows.size(), 1u);
  EXPECT_EQ(found.rows[0][0].AsInt(), 1);
}

TEST_F(EngineTest, LateralTableFunctionFirstInFrom) {
  ASSERT_TRUE(db_->Execute("CREATE TABLE frag (x XADT)").ok());
  ASSERT_TRUE(
      db_->Execute("INSERT INTO frag VALUES ('<a>1</a><a>2</a>')").ok());
  QueryResult r = Q("SELECT u.out FROM frag, table(unnest(x, 'a')) u");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(EngineTest, ExplainShowsPlan) {
  QueryResult r = Q("EXPLAIN SELECT name FROM emp WHERE salary > 150");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_NE(r.rows[0][0].AsString().find("SeqScan"), std::string::npos);
  EXPECT_NE(r.rows[0][0].AsString().find("Filter"), std::string::npos);
}

TEST_F(EngineTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(db_->Query("SELECT nosuch FROM emp").ok());
  EXPECT_FALSE(db_->Query("SELECT name FROM nosuch").ok());
  EXPECT_FALSE(db_->Query("SELECT nosuchfn(name) FROM emp").ok());
  EXPECT_FALSE(db_->Query("INSERT INTO emp VALUES (1)").ok());
  EXPECT_FALSE(db_->Execute("CREATE TABLE emp (id INTEGER)").ok());
  EXPECT_FALSE(db_->Query("SELECT id FROM emp, dept WHERE id = 1").ok())
      << "ambiguous column";
}

TEST_F(EngineTest, NameErrorsReportedClauseByClause) {
  ASSERT_TRUE(db_->Execute("CREATE TABLE frag (id INTEGER, x XADT)").ok());
  struct Case {
    const char* clause;
    const char* sql;
    StatusCode code;
    const char* message;
  };
  const Case kCases[] = {
      {"select list", "SELECT nosuch FROM emp", StatusCode::kNotFound,
       "unknown column 'nosuch'"},
      {"select list", "SELECT id FROM emp, dept WHERE dept = dept.id",
       StatusCode::kInvalidArgument, "ambiguous column 'id'"},
      {"WHERE filter", "SELECT name FROM emp WHERE nosuch = 1",
       StatusCode::kNotFound, "unknown column 'nosuch'"},
      {"WHERE filter", "SELECT name FROM emp, dept WHERE id = 1",
       StatusCode::kInvalidArgument, "ambiguous column 'id'"},
      {"WHERE join key",
       "SELECT name FROM emp, dept WHERE emp.dept = dept.nosuch",
       StatusCode::kNotFound, "unknown column 'dept.nosuch'"},
      {"WHERE join key", "SELECT name FROM emp, dept WHERE dept = id",
       StatusCode::kInvalidArgument, "ambiguous column 'id'"},
      {"GROUP BY", "SELECT COUNT(*) FROM emp GROUP BY nosuch",
       StatusCode::kNotFound, "unknown column 'nosuch'"},
      {"GROUP BY",
       "SELECT COUNT(*) FROM emp, dept WHERE dept = dept.id GROUP BY id",
       StatusCode::kInvalidArgument, "ambiguous column 'id'"},
      {"aggregate argument", "SELECT MAX(nosuch) FROM emp",
       StatusCode::kNotFound, "unknown column 'nosuch'"},
      {"aggregate argument",
       "SELECT MAX(id) FROM emp, dept WHERE dept = dept.id",
       StatusCode::kInvalidArgument, "ambiguous column 'id'"},
      {"plain item of an aggregate",
       "SELECT nosuch, COUNT(*) FROM emp GROUP BY dept",
       StatusCode::kInvalidArgument,
       "select item 'nosuch' must be an aggregate or appear in GROUP BY"},
      {"plain item of an aggregate",
       "SELECT id, COUNT(*) FROM emp, dept WHERE dept = dept.id "
       "GROUP BY emp.id",
       StatusCode::kInvalidArgument,
       "select item 'id' must be an aggregate or appear in GROUP BY"},
      {"table-function argument",
       "SELECT u.out FROM frag, table(unnest(nosuch, 'a')) u",
       StatusCode::kNotFound, "unknown column 'nosuch'"},
      {"table-function argument",
       "SELECT u.out FROM frag, emp, table(unnest(id, 'a')) u",
       StatusCode::kInvalidArgument, "ambiguous column 'id'"},
      {"table-function argument",
       "SELECT u.out FROM table(unnest(frag.x, 'a')) u, frag",
       StatusCode::kInvalidArgument,
       "table function argument references a later FROM item"},
      {"ORDER BY", "SELECT name FROM emp ORDER BY nosuch",
       StatusCode::kNotFound, "unknown column 'nosuch'"},
      {"ORDER BY",
       "SELECT emp.id, dept.id FROM emp, dept WHERE dept = dept.id "
       "ORDER BY id",
       StatusCode::kInvalidArgument, "ambiguous column 'id'"},
      {"DELETE WHERE", "DELETE FROM emp WHERE nosuch = 1",
       StatusCode::kNotFound, "unknown column 'nosuch'"},
      {"ORDER BY", "SELECT name FROM emp ORDER BY emp.id",
       StatusCode::kNotFound, "unknown column 'emp.id'"},
      // Names resolve case-insensitively, so no table holds two columns
      // whose names differ only in case, and a one-table scope (DELETE's)
      // holds no ambiguous name.
      {"CREATE TABLE", "CREATE TABLE twin (a INTEGER, A INTEGER)",
       StatusCode::kInvalidArgument, "duplicate column 'A'"},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(std::string(c.clause) + ": " + c.sql);
    auto r = db_->Query(c.sql);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), c.code) << r.status().ToString();
    EXPECT_EQ(r.status().message(), c.message);
  }
}

TEST_F(EngineTest, OrderByNamesSelectColumnByAnyQualification) {
  QueryResult r = Q("SELECT id FROM emp ORDER BY emp.id DESC");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows.front()[0].AsInt(), 5);
  EXPECT_EQ(r.rows.back()[0].AsInt(), 1);
  // An output name comes first: `id` is the alias of salary, not the
  // emp.id that `k` holds.
  r = Q("SELECT salary AS id, id AS k FROM emp ORDER BY id");
  std::vector<int64_t> k;
  for (const Tuple& row : r.rows) k.push_back(row[1].AsInt());
  EXPECT_EQ(k, (std::vector<int64_t>{5, 1, 4, 2, 3}));
}

TEST_F(EngineTest, AdviseIndexesCreatesJoinIndexes) {
  // The one `dname = 'eng'` row drives an index nested-loop join into
  // emp: the plan reads both indexes, and one on dept.id, the outer
  // side's key, would lower nothing.
  const std::string sql =
      "SELECT name FROM emp, dept WHERE emp.dept = dept.id AND dname = 'eng'";
  ASSERT_TRUE(db_->AdviseIndexes({sql}).ok());
  const TableInfo* emp = db_->catalog()->FindTable("emp");
  const TableInfo* dept = db_->catalog()->FindTable("dept");
  EXPECT_NE(emp->FindIndex("dept"), nullptr);
  EXPECT_EQ(dept->FindIndex("id"), nullptr);
  EXPECT_NE(dept->FindIndex("dname"), nullptr);
  EXPECT_GT(db_->IndexBytes(), 0u);
  auto plan = db_->Explain(sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexNLJoin(emp.dept = dept.id)"), std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("IndexScan(dept AS dept ON dname = eng)"),
            std::string::npos)
      << *plan;
  EXPECT_EQ(Q(sql).rows.size(), 2u);
}

TEST_F(EngineTest, BackfilledLowNdvIndexFillsItsLeaves) {
  // Three hashed VARCHAR values and no NULLs: sorted by (key, rid), the
  // backfill fills each leaf as an ascending ID column does.
  ASSERT_TRUE(
      db_->Execute("CREATE TABLE big (id INTEGER, code VARCHAR)").ok());
  std::vector<Tuple> rows;
  for (int i = 0; i < 6000; ++i) {
    const char* code = i % 3 == 0   ? "SCENE"
                       : i % 3 == 1 ? "PROLOGUE"
                                    : "EPILOGUE";
    rows.push_back({Value::Int(i), Value::Varchar(code)});
  }
  ASSERT_TRUE(db_->BulkInsert("big", rows).ok());
  ASSERT_TRUE(db_->CreateIndex("big", "id").ok());
  ASSERT_TRUE(db_->CreateIndex("big", "code").ok());
  const TableInfo* big = db_->catalog()->FindTable("big");
  const IndexInfo* id = big->FindIndex("id");
  const IndexInfo* code = big->FindIndex("code");
  ASSERT_NE(id, nullptr);
  ASSERT_NE(code, nullptr);
  EXPECT_EQ(code->tree->entry_count(), id->tree->entry_count());
  EXPECT_EQ(code->tree->page_count(), id->tree->page_count());
  EXPECT_TRUE(code->tree->CheckInvariants().ok());
  EXPECT_EQ(Q("SELECT id FROM big WHERE code = 'PROLOGUE'").rows.size(),
            2000u);
}

TEST_F(EngineTest, RunStatsCollectsNdv) {
  ASSERT_TRUE(db_->RunStats().ok());
  const TableInfo* emp = db_->catalog()->FindTable("emp");
  EXPECT_TRUE(emp->stats.collected);
  EXPECT_EQ(emp->stats.row_count, 5u);
  int dept_col = emp->schema.ColumnIndex("dept");
  EXPECT_DOUBLE_EQ(emp->stats.columns[dept_col].ndv, 3.0);
}

TEST_F(EngineTest, RunStatsCollectsMostCommonValues) {
  ASSERT_TRUE(db_->RunStats().ok());
  const TableInfo* emp = db_->catalog()->FindTable("emp");
  const ColumnStats& dept = emp->stats.columns[emp->schema.ColumnIndex("dept")];
  // dept: 10 and 20 twice each, 30 once (a single row is not listed).
  ASSERT_EQ(dept.mcv.size(), 2u);
  EXPECT_EQ(dept.mcv[0].second, 2u);
  EXPECT_EQ(dept.mcv[1].second, 2u);
  EXPECT_EQ((std::set<uint64_t>{dept.mcv[0].first, dept.mcv[1].first}),
            (std::set<uint64_t>{Value::Int(10).Hash(), Value::Int(20).Hash()}));
  EXPECT_DOUBLE_EQ(dept.EqFraction(Value::Int(10).Hash(), 5), 0.4);
  // The one row the list leaves, over the one value it leaves.
  EXPECT_DOUBLE_EQ(dept.EqFraction(Value::Int(30).Hash(), 5), 0.2);
  const ColumnStats& id = emp->stats.columns[emp->schema.ColumnIndex("id")];
  EXPECT_TRUE(id.mcv.empty());
  EXPECT_DOUBLE_EQ(id.EqFraction(Value::Int(3).Hash(), 5), 0.2);
}

/// A 2000-row table whose `code` column has three values, as
/// speech_parentCODE does: SCENE on 1970 rows, PROLOGUE on 20 (1%),
/// EPILOGUE on 10.
void LoadSkewedSpeeches(Database* db) {
  ASSERT_TRUE(db->Execute("CREATE TABLE act (act_id INTEGER)").ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE sp (id INTEGER, parent INTEGER, "
                          "code VARCHAR)")
                  .ok());
  std::vector<Tuple> acts;
  for (int i = 0; i < 100; ++i) acts.push_back({Value::Int(i)});
  ASSERT_TRUE(db->BulkInsert("act", acts).ok());
  std::vector<Tuple> rows;
  for (int i = 0; i < 2000; ++i) {
    const char* code = i % 100 == 0   ? "PROLOGUE"
                       : i % 200 == 1 ? "EPILOGUE"
                                      : "SCENE";
    rows.push_back({Value::Int(i), Value::Int(i % 100), Value::Varchar(code)});
  }
  ASSERT_TRUE(db->BulkInsert("sp", rows).ok());
  ASSERT_TRUE(db->RunStats().ok());
}

TEST(AdviseIndexesTest, IndexesRareLiteralOnLowNdvColumn) {
  auto db = OpenDb();
  LoadSkewedSpeeches(db.get());
  const std::string sql = "SELECT id FROM sp WHERE code = 'PROLOGUE'";
  ASSERT_TRUE(db->AdviseIndexes({sql}).ok());
  const TableInfo* sp = db->catalog()->FindTable("sp");
  ASSERT_NE(sp->FindIndex("code"), nullptr);
  auto plan = db->Explain(sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan(sp AS sp ON code = PROLOGUE)"),
            std::string::npos)
      << *plan;
  auto r = db->Query(sql);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 20u);
}

TEST(AdviseIndexesTest, SkipsCommonLiteral) {
  // An index scan on 'SCENE' would fetch 1,970 of the 2,000 rows by rid,
  // each dearer than a scanned row: more than the scan it replaces.
  auto db = OpenDb();
  LoadSkewedSpeeches(db.get());
  ASSERT_TRUE(
      db->AdviseIndexes({"SELECT id FROM sp WHERE code = 'SCENE'"}).ok());
  EXPECT_EQ(db->catalog()->FindTable("sp")->FindIndex("code"), nullptr);
  EXPECT_EQ(db->IndexBytes(), 0u);
}

TEST(AdviseIndexesTest, WhatIfRejectsRareLiteralNoPlanScans) {
  // The rare literal sits on the inner side of an index nested-loop join
  // driven by a more selective outer (one act), where it is a residual
  // filter, so no plan scans an index on it.
  auto db = OpenDb();
  LoadSkewedSpeeches(db.get());
  const std::string sql =
      "SELECT id FROM act, sp WHERE parent = act_id AND code = 'PROLOGUE' "
      "AND act_id = 0";
  ASSERT_TRUE(db->AdviseIndexes({sql}).ok());
  const TableInfo* sp = db->catalog()->FindTable("sp");
  EXPECT_NE(sp->FindIndex("parent"), nullptr);
  EXPECT_EQ(sp->FindIndex("code"), nullptr);
  // The stand-in index is gone from the table.
  EXPECT_EQ(sp->indexes.size(), 1u);
  auto plan = db->Explain(sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexNLJoin"), std::string::npos) << *plan;
  auto r = db->Query(sql);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 20u);
}

TEST(AdviseIndexesTest, WhatIfRejectsSmallGain) {
  // Either index would lower the cost on its own: `code` ('EPILOGUE': 10
  // of 2,000 rows) more than `parent` (20 rows). Once the `code` index is
  // built, the plan reads it and the `parent` index would gain nothing.
  auto db = OpenDb();
  LoadSkewedSpeeches(db.get());
  const std::string sql =
      "SELECT id FROM sp WHERE code = 'EPILOGUE' AND parent = 1";
  ASSERT_TRUE(db->AdviseIndexes({sql}).ok());
  const TableInfo* sp = db->catalog()->FindTable("sp");
  EXPECT_EQ(sp->FindIndex("parent"), nullptr);
  EXPECT_NE(sp->FindIndex("code"), nullptr);
  auto plan = db->Explain(sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan(sp AS sp ON code = EPILOGUE)"),
            std::string::npos)
      << *plan;
  auto r = db->Query(sql);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 10u);
}

/// True when `plan` reads `column` of `table` through an index: an
/// IndexScan on it, or an index nested-loop join probing it.
bool PlanReadsIndex(const std::string& plan, const std::string& table,
                    const std::string& column) {
  std::istringstream lines(plan);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("IndexNLJoin(" + table + "." + column + " = ") !=
            std::string::npos ||
        (line.find("IndexScan(" + table + " AS ") != std::string::npos &&
         line.find(" ON " + column + " = ") != std::string::npos)) {
      return true;
    }
  }
  return false;
}

TEST(AdviseIndexesTest, EveryAdvisedIndexIsPlanned) {
  datagen::ShakespeareOptions plays;
  plays.plays = 2;
  datagen::SigmodOptions proceedings;
  proceedings.documents = 40;
  const auto shakespeare = datagen::ShakespeareGenerator(plays).GenerateCorpus();
  const auto sigmod = datagen::SigmodGenerator(proceedings).GenerateCorpus();
  struct Set {
    const char* dtd;
    const std::vector<std::unique_ptr<xml::Node>>* corpus;
    const std::vector<benchutil::PaperQuery>* queries;
  };
  int advised = 0;
  for (const Set& set :
       {Set{datagen::kShakespeareDtd, &shakespeare,
            &benchutil::ShakespeareQueries()},
        Set{datagen::kSigmodDtd, &sigmod, &benchutil::SigmodQueries()}}) {
    std::vector<const xml::Node*> docs;
    for (const auto& d : *set.corpus) docs.push_back(d.get());
    for (benchutil::Mapping mapping :
         {benchutil::Mapping::kHybrid, benchutil::Mapping::kXorator}) {
      benchutil::ExperimentOptions options;
      options.mapping = mapping;
      for (const benchutil::PaperQuery& q : *set.queries) {
        options.advisor_queries.push_back(
            mapping == benchutil::Mapping::kHybrid ? q.hybrid_sql
                                                   : q.xorator_sql);
      }
      auto built = benchutil::BuildExperimentDb(set.dtd, docs, options);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      Database* db = built->db.get();
      std::vector<std::string> plans;
      for (const std::string& sql : options.advisor_queries) {
        auto plan = db->Explain(sql);
        ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
        plans.push_back(*plan);
      }
      for (const mapping::TableSpec& spec : built->schema.tables) {
        const TableInfo* t = db->catalog()->FindTable(spec.name);
        const int id = spec.RoleIndex(mapping::ColumnRole::kId);
        for (const IndexInfo* index : t->indexes) {
          // The ID indexes are the mapping's keys, not advice.
          if (id >= 0 && index->column_index == id) continue;
          ++advised;
          SCOPED_TRACE(index->table + "." + index->column);
          EXPECT_TRUE(std::any_of(plans.begin(), plans.end(),
                                  [&](const std::string& plan) {
                                    return PlanReadsIndex(plan, t->name,
                                                          index->column);
                                  }));
        }
      }
    }
  }
  EXPECT_GT(advised, 0);
}

TEST_F(EngineTest, PragmaStatsShowsAdvisorInputs) {
  ASSERT_TRUE(db_->Execute("CREATE INDEX i ON emp (dept)").ok());
  ASSERT_TRUE(db_->RunStats().ok());
  QueryResult r = Q("PRAGMA stats");
  EXPECT_EQ(r.columns, (std::vector<std::string>{"table", "column", "rows",
                                                 "ndv", "mcv_rows",
                                                 "index_pages"}));
  // One row per column of emp (4) and dept (2).
  ASSERT_EQ(r.rows.size(), 6u);
  bool saw_dept = false;
  for (const Tuple& row : r.rows) {
    if (row[0].AsString() != "emp" || row[1].AsString() != "dept") continue;
    saw_dept = true;
    EXPECT_EQ(row[2].AsInt(), 5);
    EXPECT_EQ(row[3].AsInt(), 3);
    EXPECT_EQ(row[4].AsString(), "2,2");
    EXPECT_EQ(row[5].AsInt(), 1);
  }
  EXPECT_TRUE(saw_dept);
  auto unknown = db_->Query("PRAGMA nosuch");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("PRAGMA stats"),
            std::string::npos);
}

TEST_F(EngineTest, DataBytesGrowWithInserts) {
  uint64_t before = db_->DataBytes();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_->Execute("INSERT INTO emp VALUES (9, 'pad pad pad pad "
                             "pad pad pad pad pad pad', 1, 1)")
                    .ok());
  }
  EXPECT_GE(db_->DataBytes(), before);
  EXPECT_GT(db_->DataBytes(), 0u);
}

TEST(DatabaseFileTest, FileBackedDatabaseWorks) {
  std::string path = ::testing::TempDir() + "/xorator_engine.db";
  std::remove(path.c_str());
  DbOptions options;
  options.path = path;
  options.buffer_pool_pages = 16;
  auto db = OpenDb(options);
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                            ", 'value-" + std::to_string(i) + "')")
                    .ok());
  }
  auto r = db->Query("SELECT COUNT(*) AS n FROM t WHERE a >= 250");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 250);
  std::remove(path.c_str());
}

TEST(ValueTest, CompareAndHash) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Int(3)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Int(3)), 0);
  EXPECT_GT(Value::Varchar("b").Compare(Value::Varchar("a")), 0);
  EXPECT_EQ(Value::Int(1).Compare(Value::Double(1.0)), 0);
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_EQ(Value::Int(1).Hash(), Value::Double(1.0).Hash());
  EXPECT_EQ(Value::Varchar("x").Hash(), Value::Varchar("x").Hash());
}

// Doubles outside int64's range take the bit-pattern hash without first
// converting to an integer, which would be undefined (the Sanitize build's
// float-cast-overflow check traps it). Integral doubles in range hash like
// the integer, -0.0 included.
TEST(ValueTest, HashesEveryDouble) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double d : {1e300, -1e300, 0x1p63, -0x1p64, inf, -inf, nan}) {
    EXPECT_EQ(Value::Double(d).Hash(), Value::Double(d).Hash()) << d;
  }
  EXPECT_NE(Value::Double(1e300).Hash(), Value::Double(-1e300).Hash());
  EXPECT_NE(Value::Double(inf).Hash(), Value::Double(-inf).Hash());
  EXPECT_EQ(Value::Double(-0x1p63).Hash(),
            Value::Int(std::numeric_limits<int64_t>::min()).Hash());
  EXPECT_EQ(Value::Double(3.0).Hash(), Value::Int(3).Hash());
  EXPECT_EQ(Value::Double(-0.0).Hash(), Value::Double(0.0).Hash());
  EXPECT_EQ(Value::Double(-0.0).Hash(), Value::Int(0).Hash());
}

TEST(TupleCodecTest, RoundTripAllTypes) {
  TableSchema schema;
  schema.columns = {{"i", TypeId::kInteger},
                    {"s", TypeId::kVarchar},
                    {"x", TypeId::kXadt},
                    {"d", TypeId::kDouble},
                    {"b", TypeId::kBoolean},
                    {"n", TypeId::kVarchar}};
  Tuple tuple = {Value::Int(-42),          Value::Varchar("hello"),
                 Value::Xadt("R<a/>"),     Value::Double(2.5),
                 Value::Bool(true),        Value::Null()};
  std::string bytes;
  EncodeTuple(schema, tuple, &bytes);
  auto decoded = DecodeTuple(schema, bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 6u);
  EXPECT_EQ((*decoded)[0].AsInt(), -42);
  EXPECT_EQ((*decoded)[1].AsString(), "hello");
  EXPECT_EQ((*decoded)[2].type(), TypeId::kXadt);
  EXPECT_EQ((*decoded)[2].AsString(), "R<a/>");
  EXPECT_DOUBLE_EQ((*decoded)[3].AsDouble(), 2.5);
  EXPECT_TRUE((*decoded)[4].AsBool());
  EXPECT_TRUE((*decoded)[5].is_null());
}

TEST(TupleCodecTest, TruncatedBytesFail) {
  TableSchema schema;
  schema.columns = {{"s", TypeId::kVarchar}};
  Tuple tuple = {Value::Varchar("long enough string")};
  std::string bytes;
  EncodeTuple(schema, tuple, &bytes);
  EXPECT_FALSE(DecodeTuple(schema, bytes.substr(0, 4)).ok());
}

// ------------------------------------------------ column-liveness oracle
//
// Each query runs in two forms. The narrow form is the query as written.
// The wide form has the same FROM/WHERE/GROUP BY/ORDER BY/LIMIT, and its
// select list also names every column of every FROM item (through MAX()
// when the query aggregates). In the wide form every column is read, so
// no operator leaves anything out; the narrow rows must equal the wide
// rows projected onto the narrow columns, in order (for DISTINCT, the
// projected rows' first occurrences).

std::string ValueKey(const Value& v) {
  std::string key(1, static_cast<char>(v.type()));
  key += v.type() == TypeId::kVarchar || v.type() == TypeId::kXadt
             ? v.AsString()
             : v.ToString();
  return key;
}

std::string RowKey(const Tuple& row) {
  std::string key;
  for (const Value& v : row) {
    std::string k = ValueKey(v);
    key += std::to_string(k.size()) + ":" + k;
  }
  return key;
}

bool IsAggregateCall(const sql::AstExpr& e) {
  if (e.kind != sql::AstExpr::Kind::kFunc) return false;
  std::string name = ToLower(e.name);
  return name == "count" || name == "sum" || name == "min" || name == "max";
}

/// Runs `narrow` and its wide form on `db` and compares them; returns the
/// narrow row count.
size_t ExpectNarrowMatchesWide(Database* db, const std::string& narrow) {
  auto parsed = sql::ParseSql(narrow);
  EXPECT_TRUE(parsed.ok()) << narrow;
  if (!parsed.ok()) return 0;
  const sql::SelectStmt& stmt = parsed->select;
  bool aggregate = !stmt.group_by.empty();
  for (const sql::SelectItem& item : stmt.items) {
    if (IsAggregateCall(*item.expr)) aggregate = true;
  }
  std::string extra;
  for (const sql::TableRef& ref : stmt.from) {
    std::vector<std::string> names;
    if (ref.is_function) {
      const TableFunction* fn = db->functions()->FindTable(ref.function_name);
      EXPECT_NE(fn, nullptr) << ref.function_name;
      if (fn == nullptr) return 0;
      for (const ColumnDef& c : fn->output) names.push_back(c.name);
    } else {
      const TableInfo* table = db->catalog()->FindTable(ref.table);
      EXPECT_NE(table, nullptr) << ref.table;
      if (table == nullptr) return 0;
      for (const ColumnDef& c : table->schema.columns) names.push_back(c.name);
    }
    for (const std::string& name : names) {
      std::string col = ref.alias + "." + name;
      extra += ", " + (aggregate ? "MAX(" + col + ")" : col);
    }
  }
  size_t from = narrow.find(" FROM ");
  EXPECT_NE(from, std::string::npos) << narrow;
  if (from == std::string::npos) return 0;
  const std::string wide = narrow.substr(0, from) + extra + narrow.substr(from);

  auto n = db->Query(narrow);
  auto w = db->Query(wide);
  EXPECT_TRUE(n.ok()) << narrow << " -> " << n.status().ToString();
  EXPECT_TRUE(w.ok()) << wide << " -> " << w.status().ToString();
  if (!n.ok() || !w.ok()) return 0;
  const size_t k = n->columns.size();
  EXPECT_GT(w->columns.size(), k) << wide;
  std::vector<std::string> projected;
  std::set<std::string> seen;
  for (const Tuple& row : w->rows) {
    std::string key = RowKey(Tuple(row.begin(), row.begin() + k));
    if (stmt.distinct && !seen.insert(key).second) continue;
    projected.push_back(std::move(key));
  }
  EXPECT_EQ(n->rows.size(), projected.size()) << narrow << "\n" << wide;
  for (size_t i = 0; i < n->rows.size() && i < projected.size(); ++i) {
    EXPECT_EQ(RowKey(n->rows[i]), projected[i])
        << narrow << "\n" << wide << "\nrow " << i;
  }
  return n->rows.size();
}

std::vector<std::string> AllPaperSql() {
  std::vector<std::string> out;
  for (const auto* set :
       {&benchutil::ShakespeareQueries(), &benchutil::SigmodQueries()}) {
    for (const benchutil::PaperQuery& q : *set) {
      out.push_back(q.hybrid_sql);
      out.push_back(q.xorator_sql);
    }
  }
  return out;
}

void ExpectPaperQueriesMatchWide(
    const std::string& dtd, const std::vector<std::unique_ptr<xml::Node>>& corpus,
    const std::vector<benchutil::PaperQuery>& queries) {
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());
  for (benchutil::Mapping mapping :
       {benchutil::Mapping::kHybrid, benchutil::Mapping::kXorator}) {
    benchutil::ExperimentOptions options;
    options.mapping = mapping;
    options.advisor_queries = AllPaperSql();
    auto db = benchutil::BuildExperimentDb(dtd, docs, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (const benchutil::PaperQuery& q : queries) {
      const std::string& sql = mapping == benchutil::Mapping::kHybrid
                                   ? q.hybrid_sql
                                   : q.xorator_sql;
      SCOPED_TRACE(q.id);
      EXPECT_GT(ExpectNarrowMatchesWide(db->db.get(), sql), 0u) << sql;
    }
  }
}

TEST(ColumnLivenessOracleTest, ShakespeareQueriesMatchWideForm) {
  datagen::ShakespeareOptions opts;
  opts.plays = 3;
  opts.acts_per_play = 2;
  opts.scenes_per_act = 2;
  opts.speeches_per_scene = 8;
  ExpectPaperQueriesMatchWide(
      datagen::kShakespeareDtd,
      datagen::ShakespeareGenerator(opts).GenerateCorpus(),
      benchutil::ShakespeareQueries());
}

TEST(ColumnLivenessOracleTest, SigmodQueriesMatchWideForm) {
  datagen::SigmodOptions opts;
  opts.documents = 80;
  ExpectPaperQueriesMatchWide(datagen::kSigmodDtd,
                              datagen::SigmodGenerator(opts).GenerateCorpus(),
                              benchutil::SigmodQueries());
}

// ---------------------------------------------------- join-algorithm oracle
//
// Every paper statement gives the same answer under each planner setting
// that changes which join algorithms a plan may use.

void ExpectPaperQueriesIgnoreJoinAlgorithm(
    const std::string& dtd,
    const std::vector<std::unique_ptr<xml::Node>>& corpus,
    const std::vector<benchutil::PaperQuery>& queries) {
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());
  struct Setting {
    const char* name;
    PlannerOptions planner;
  };
  const PlannerOptions kDefault;
  const Setting kSettings[] = {
      {"default", kDefault},
      {"no index join", {.enable_index_join = false}},
      {"no hash join", {.enable_hash_join = false}},
      {"neither", {.enable_hash_join = false, .enable_index_join = false}},
      {"sort heap 1 byte", {.sort_heap_bytes = 1}},
  };
  for (benchutil::Mapping mapping :
       {benchutil::Mapping::kHybrid, benchutil::Mapping::kXorator}) {
    benchutil::ExperimentOptions options;
    options.mapping = mapping;
    options.advisor_queries = AllPaperSql();
    auto db = benchutil::BuildExperimentDb(dtd, docs, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    size_t sort_merge_plans = 0;
    for (const benchutil::PaperQuery& q : queries) {
      const std::string& sql = mapping == benchutil::Mapping::kHybrid
                                   ? q.hybrid_sql
                                   : q.xorator_sql;
      SCOPED_TRACE(q.id);
      std::multiset<std::string> expected;
      for (const Setting& s : kSettings) {
        SCOPED_TRACE(s.name);
        db->db->mutable_options()->planner = s.planner;
        auto plan = db->db->Explain(sql);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        if (plan->find("SortMergeJoin") != std::string::npos) {
          ++sort_merge_plans;
        }
        auto r = db->db->Query(sql);
        ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
        std::multiset<std::string> rows;
        for (const Tuple& row : r->rows) rows.insert(RowKey(row));
        if (&s == &kSettings[0]) {
          EXPECT_FALSE(rows.empty()) << sql;
          expected = std::move(rows);
        } else {
          EXPECT_EQ(rows, expected) << sql << "\n" << *plan;
        }
      }
    }
    // The Hybrid joins reach the sort-merge path once hash joins are off.
    if (mapping == benchutil::Mapping::kHybrid) {
      EXPECT_GT(sort_merge_plans, 0u);
    }
  }
}

TEST(JoinAlgorithmOracleTest, ShakespeareQueriesAgreeUnderEveryJoinSetting) {
  datagen::ShakespeareOptions opts;
  opts.plays = 3;
  opts.acts_per_play = 2;
  opts.scenes_per_act = 2;
  opts.speeches_per_scene = 8;
  ExpectPaperQueriesIgnoreJoinAlgorithm(
      datagen::kShakespeareDtd,
      datagen::ShakespeareGenerator(opts).GenerateCorpus(),
      benchutil::ShakespeareQueries());
}

TEST(JoinAlgorithmOracleTest, SigmodQueriesAgreeUnderEveryJoinSetting) {
  datagen::SigmodOptions opts;
  opts.documents = 80;
  ExpectPaperQueriesIgnoreJoinAlgorithm(
      datagen::kSigmodDtd, datagen::SigmodGenerator(opts).GenerateCorpus(),
      benchutil::SigmodQueries());
}

// ------------------------------------------------------- FROM-order oracle
//
// The planner chooses the join order by cost, so the way a FROM list is
// typed changes neither a paper statement's answer nor its plan. Laterals
// are the exception the planner documents: it keeps table functions in
// their written order among themselves (it has no estimate of their rows),
// so plans are compared across permutations with the same lateral order.

/// `sql` as the text before its FROM items, the items, and the text after.
struct FromSplit {
  std::string head;
  std::vector<std::string> items;
  std::string tail;
};

FromSplit SplitFrom(const std::string& sql) {
  FromSplit split;
  const size_t from = sql.find(" FROM ") + 6;
  split.head = sql.substr(0, from);
  int depth = 0;
  size_t begin = from;
  size_t pos = from;
  for (; pos < sql.size(); ++pos) {
    const char c = sql[pos];
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (depth != 0) continue;
    if (c == ',') {
      split.items.push_back(sql.substr(begin, pos - begin));
      begin = pos + 2;  // ", "
    } else if (sql.compare(pos, 7, " WHERE ") == 0 ||
               sql.compare(pos, 10, " GROUP BY ") == 0) {
      break;
    }
  }
  split.items.push_back(sql.substr(begin, pos - begin));
  split.tail = sql.substr(pos);
  return split;
}

void ExpectPaperQueriesIgnoreFromOrder(
    const std::string& dtd,
    const std::vector<std::unique_ptr<xml::Node>>& corpus,
    const std::vector<benchutil::PaperQuery>& queries) {
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());
  for (benchutil::Mapping mapping :
       {benchutil::Mapping::kHybrid, benchutil::Mapping::kXorator}) {
    benchutil::ExperimentOptions options;
    options.mapping = mapping;
    options.advisor_queries = AllPaperSql();
    auto db = benchutil::BuildExperimentDb(dtd, docs, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (const benchutil::PaperQuery& q : queries) {
      const std::string& sql = mapping == benchutil::Mapping::kHybrid
                                   ? q.hybrid_sql
                                   : q.xorator_sql;
      SCOPED_TRACE(q.id + " " + sql);
      const FromSplit split = SplitFrom(sql);
      auto written = db->db->Query(sql);
      ASSERT_TRUE(written.ok()) << written.status().ToString();
      std::multiset<std::string> expected;
      for (const Tuple& row : written->rows) expected.insert(RowKey(row));
      // The plan of each order of the laterals, from its first permutation.
      std::map<std::string, std::string> plans;
      std::vector<size_t> order(split.items.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      size_t planned = 0;
      do {
        std::string text = split.head;
        std::string laterals;
        for (size_t i = 0; i < order.size(); ++i) {
          const std::string& item = split.items[order[i]];
          text += (i == 0 ? "" : ", ") + item;
          if (item.rfind("table(", 0) == 0) laterals += item + ";";
        }
        text += split.tail;
        auto plan = db->db->Explain(text);
        if (!plan.ok()) {
          // A lateral written before an item its arguments name.
          EXPECT_NE(plan.status().message().find("later FROM item"),
                    std::string::npos)
              << text << ": " << plan.status().ToString();
          continue;
        }
        ++planned;
        auto [it, first] = plans.emplace(laterals, *plan);
        EXPECT_EQ(*plan, it->second) << text;
        auto r = db->db->Query(text);
        ASSERT_TRUE(r.ok()) << text << ": " << r.status().ToString();
        std::multiset<std::string> rows;
        for (const Tuple& row : r->rows) rows.insert(RowKey(row));
        EXPECT_EQ(rows, expected) << text;
      } while (std::next_permutation(order.begin(), order.end()));
      EXPECT_GT(planned, 0u);
    }
  }
}

TEST(FromOrderOracleTest, ShakespeareQueriesIgnoreFromOrder) {
  datagen::ShakespeareOptions opts;
  opts.plays = 3;
  opts.acts_per_play = 2;
  opts.scenes_per_act = 2;
  opts.speeches_per_scene = 8;
  ExpectPaperQueriesIgnoreFromOrder(
      datagen::kShakespeareDtd,
      datagen::ShakespeareGenerator(opts).GenerateCorpus(),
      benchutil::ShakespeareQueries());
}

TEST(FromOrderOracleTest, SigmodQueriesIgnoreFromOrder) {
  datagen::SigmodOptions opts;
  opts.documents = 80;
  ExpectPaperQueriesIgnoreFromOrder(
      datagen::kSigmodDtd, datagen::SigmodGenerator(opts).GenerateCorpus(),
      benchutil::SigmodQueries());
}

TEST_F(EngineTest, NarrowMatchesWideAcrossClauses) {
  ASSERT_TRUE(db_->Execute("CREATE INDEX i ON emp (dept)").ok());
  ASSERT_TRUE(db_->RunStats().ok());
  ASSERT_TRUE(db_->Execute("CREATE TABLE docs (id INTEGER, x XADT)").ok());
  ASSERT_TRUE(db_->Execute(
                     "INSERT INTO docs VALUES "
                     "(1, '<s><n>one</n><a>p</a><a>q</a></s>"
                     "<s><n>two</n><a>r</a></s>'), "
                     "(2, '<s><n>three</n><a>q</a><a>t</a></s>')")
                  .ok());
  // The inner column `name` is read only by the index join's residual.
  const std::string residual =
      "SELECT dname FROM dept, emp WHERE dept.id = emp.dept "
      "AND dname = 'eng' AND name LIKE '%b%'";
  auto plan = db_->Explain(residual);
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan->find("IndexNLJoin"), std::string::npos) << *plan;
  for (const std::string& sql : {
           residual,
           std::string("SELECT COUNT(*) AS n FROM emp, dept "
                       "WHERE dept = dept.id"),
           std::string("SELECT * FROM emp, dept WHERE dept = dept.id"),
           std::string("SELECT dept, COUNT(*) AS n, MAX(name) AS last "
                       "FROM emp GROUP BY dept"),
           // `dept` is read only by GROUP BY.
           std::string("SELECT COUNT(*) AS n FROM emp GROUP BY dept"),
           std::string("SELECT name, salary FROM emp ORDER BY salary DESC"),
           std::string("SELECT DISTINCT dname FROM emp, dept "
                       "WHERE dept = dept.id"),
           std::string("SELECT name FROM emp, dept WHERE dept = dept.id "
                       "LIMIT 3"),
           // `salary` and `dname` are read only by WHERE conjuncts.
           std::string("SELECT name FROM emp, dept WHERE dept = dept.id "
                       "AND salary > 120 AND dname = 'eng'"),
           // The second lateral's argument reads the first one's frag,
           // which nothing above it reads.
           std::string("SELECT a.out FROM docs, table(unnest(x, 's')) t, "
                       "table(unnest(t.frag, 'a')) a"),
           std::string("SELECT n.out, a.out FROM docs, "
                       "table(unnest(x, 's')) t, "
                       "table(unnest(getElm(t.frag, 'n', '', ''), 'n')) n, "
                       "table(unnest(t.frag, 'a')) a WHERE a.out = 'q'"),
           std::string("SELECT COUNT(*) AS n FROM docs, "
                       "table(unnest(x, 's')) t"),
           std::string("SELECT a.out, COUNT(*) AS n FROM docs, "
                       "table(unnest(x, 'a')) a GROUP BY a.out"),
       }) {
    SCOPED_TRACE(sql);
    EXPECT_GT(ExpectNarrowMatchesWide(db_.get(), sql), 0u);
  }
}

/// Every row of `sql`'s result, rendered, as a multiset.
std::multiset<std::string> RowSet(Database* db, const std::string& sql) {
  auto r = db->Query(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  std::multiset<std::string> out;
  if (!r.ok()) return out;
  for (const Tuple& row : r->rows) {
    std::string rendered;
    for (const Value& v : row) rendered += v.ToString() + "|";
    out.insert(std::move(rendered));
  }
  return out;
}

// DELETE binds its WHERE as a SELECT over the table does, so it removes
// exactly the rows that SELECT returns, NULLs included, and leaves the rest.
TEST(DeleteWhereTest, DeletesExactlyTheRowsSelectReturns) {
  for (const std::string where : {
           "a = 2",
           "a <> 2",
           "a < 3",
           "NOT (a = 2)",
           "NOT (b LIKE 'x%')",
           "a > 1 AND b = 'xy'",
           "a = 1 OR b IS NULL",
           "b LIKE '%y'",
           "b IS NULL",
           "b IS NOT NULL",
           "t.a >= 3",
           "NOT (t.b <> 'xy') OR t.a IS NULL",
           "udf_length(b) = 2",
       }) {
    SCOPED_TRACE(where);
    auto db = OpenDb();
    ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1, 'x'), (2, 'xy'), "
                            "(3, NULL), (NULL, 'y'), (NULL, NULL), "
                            "(4, 'xy')")
                    .ok());
    const std::multiset<std::string> all =
        RowSet(db.get(), "SELECT a, b FROM t");
    const std::multiset<std::string> selected =
        RowSet(db.get(), "SELECT a, b FROM t WHERE " + where);
    ASSERT_GT(selected.size(), 0u);
    ASSERT_LT(selected.size(), all.size());

    auto deleted = db->Query("DELETE FROM t WHERE " + where);
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
    EXPECT_EQ(deleted->rows[0][0].AsInt(),
              static_cast<int64_t>(selected.size()));
    if (where.find("udf_") != std::string::npos) {
      EXPECT_EQ(deleted->udf_stats.scalar_calls, all.size());
    }
    std::multiset<std::string> rest = all;
    for (const std::string& row : selected) rest.erase(rest.find(row));
    EXPECT_EQ(RowSet(db.get(), "SELECT a, b FROM t"), rest);
  }
}

TEST(DeleteWhereTest, UnknownColumnFailsOnAnEmptyTableLikeSelect) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER)").ok());
  auto selected = db->Query("SELECT a FROM t WHERE nosuch = 1");
  ASSERT_FALSE(selected.ok());
  auto deleted = db->Query("DELETE FROM t WHERE nosuch = 1");
  ASSERT_FALSE(deleted.ok());
  EXPECT_EQ(deleted.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(deleted.status().ToString(), selected.status().ToString());
}

// BuildExperimentDb collects statistics once, before the advisor: creating
// indexes changes no column statistic, so a second pass finds the same rows,
// distinct counts and most-common values.
TEST(RunStatsTest, AdvisedIndexesLeaveStatisticsAsOnePassLeftThem) {
  datagen::ShakespeareOptions opts;
  opts.plays = 3;
  auto corpus = datagen::ShakespeareGenerator(opts).GenerateCorpus();
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());
  std::vector<std::string> advisor;
  for (const auto& q : benchutil::ShakespeareQueries()) {
    advisor.push_back(q.hybrid_sql);
    advisor.push_back(q.xorator_sql);
  }
  for (auto mapping : {benchutil::Mapping::kHybrid,
                       benchutil::Mapping::kXorator}) {
    benchutil::ExperimentOptions options;
    options.mapping = mapping;
    options.advisor_queries = advisor;
    auto built =
        benchutil::BuildExperimentDb(datagen::kShakespeareDtd, docs, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    Database* db = built->db.get();
    auto snapshot = [&] {
      std::vector<std::pair<uint64_t, std::vector<ColumnStats>>> out;
      for (const TableInfo* t : db->catalog()->tables()) {
        EXPECT_TRUE(t->stats.collected) << t->name;
        out.emplace_back(t->stats.row_count, t->stats.columns);
      }
      return out;
    };
    auto pragma = db->Query("PRAGMA stats");
    ASSERT_TRUE(pragma.ok()) << pragma.status().ToString();
    const auto once = snapshot();
    ASSERT_TRUE(db->RunStats().ok());
    auto pragma_again = db->Query("PRAGMA stats");
    ASSERT_TRUE(pragma_again.ok()) << pragma_again.status().ToString();
    EXPECT_EQ(pragma_again->ToString(100000), pragma->ToString(100000));
    const auto twice = snapshot();
    ASSERT_EQ(twice.size(), once.size());
    for (size_t t = 0; t < once.size(); ++t) {
      EXPECT_EQ(twice[t].first, once[t].first);
      ASSERT_EQ(twice[t].second.size(), once[t].second.size());
      for (size_t c = 0; c < once[t].second.size(); ++c) {
        EXPECT_EQ(twice[t].second[c].ndv, once[t].second[c].ndv);
        EXPECT_EQ(twice[t].second[c].mcv, once[t].second[c].mcv);
      }
    }
  }
}

}  // namespace
}  // namespace xorator::ordb
