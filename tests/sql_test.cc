#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "ordb/sql.h"

namespace xorator::ordb::sql {
namespace {

Result<SelectStmt> ParseSelect(const std::string& text) {
  XO_ASSIGN_OR_RETURN(Statement stmt, ParseSql(text));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("not a select");
  }
  return std::move(stmt.select);
}

TEST(SqlParserTest, BasicSelect) {
  auto stmt = ParseSelect("SELECT a, b FROM t WHERE a = 1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_FALSE(stmt->distinct);
  ASSERT_EQ(stmt->items.size(), 2u);
  EXPECT_EQ(stmt->items[0].expr->ToString(), "a");
  ASSERT_EQ(stmt->from.size(), 1u);
  EXPECT_EQ(stmt->from[0].table, "t");
  EXPECT_EQ(stmt->from[0].alias, "t");
  ASSERT_NE(stmt->where, nullptr);
  EXPECT_EQ(stmt->where->ToString(), "a = 1");
}

TEST(SqlParserTest, CaseInsensitiveKeywords) {
  auto stmt = ParseSelect("select X from T where X like '%y%'");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->kind, AstExpr::Kind::kLike);
}

TEST(SqlParserTest, AliasesAndQualifiedColumns) {
  auto stmt = ParseSelect(
      "SELECT s.a AS x, t.b y FROM tbl s, tbl2 AS t WHERE s.id = t.id");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->items[0].alias, "x");
  EXPECT_EQ(stmt->items[1].alias, "y");
  EXPECT_EQ(stmt->from[0].alias, "s");
  EXPECT_EQ(stmt->from[1].alias, "t");
  EXPECT_EQ(stmt->where->children[0]->name, "s.id");
}

TEST(SqlParserTest, StringLiteralsWithEscapes) {
  auto stmt = ParseSelect("SELECT a FROM t WHERE b = 'it''s'");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->children[1]->literal.AsString(), "it's");
  // The same unescaping builds a LIKE pattern and an INSERT value.
  stmt = ParseSelect(
      "SELECT a FROM t WHERE b LIKE '%it''s%' AND c = '''' AND d = ''");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const AstExpr& like = *stmt->where->children[0]->children[0];
  EXPECT_EQ(like.pattern, "%it's%");
  const AstExpr& quote = *stmt->where->children[0]->children[1];
  EXPECT_EQ(quote.children[1]->literal.AsString(), "'");
  EXPECT_EQ(stmt->where->children[1]->children[1]->literal.AsString(), "");
  // A literal's body is text, never an operator.
  auto bang = ParseSelect("SELECT a FROM t WHERE b = '!='");
  ASSERT_TRUE(bang.ok()) << bang.status().ToString();
  EXPECT_EQ(bang->where->children[1]->literal.AsString(), "!=");
  auto insert = ParseSql("INSERT INTO t VALUES ('a''b')");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  EXPECT_EQ(insert->insert.rows[0][0].AsString(), "a'b");
}

TEST(SqlParserTest, AndOrPrecedence) {
  auto stmt = ParseSelect("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3");
  ASSERT_TRUE(stmt.ok());
  // AND binds tighter: x=1 OR (y=2 AND z=3).
  EXPECT_EQ(stmt->where->kind, AstExpr::Kind::kOr);
  EXPECT_EQ(stmt->where->children[1]->kind, AstExpr::Kind::kAnd);
}

TEST(SqlParserTest, NotAndParens) {
  auto stmt =
      ParseSelect("SELECT a FROM t WHERE NOT (x = 1 OR y = 2) AND z = 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->kind, AstExpr::Kind::kAnd);
  EXPECT_EQ(stmt->where->children[0]->kind, AstExpr::Kind::kNot);
}

TEST(SqlParserTest, ComparisonOperators) {
  const std::pair<const char*, CompareOp> kOps[] = {
      {"=", CompareOp::kEq}, {"<>", CompareOp::kNe}, {"!=", CompareOp::kNe},
      {"<", CompareOp::kLt}, {"<=", CompareOp::kLe}, {">", CompareOp::kGt},
      {">=", CompareOp::kGe}};
  for (const auto& [op, expected] : kOps) {
    auto stmt = ParseSelect(std::string("SELECT a FROM t WHERE a ") + op +
                            " 5");
    ASSERT_TRUE(stmt.ok()) << op;
    EXPECT_EQ(stmt->where->kind, AstExpr::Kind::kCompare) << op;
    EXPECT_EQ(stmt->where->op, expected) << op;
  }
}

TEST(SqlParserTest, NegativeNumbers) {
  auto stmt = ParseSelect("SELECT a FROM t WHERE a = -5");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->children[1]->literal.AsInt(), -5);
}

TEST(SqlParserTest, FunctionCalls) {
  auto stmt = ParseSelect(
      "SELECT getElm(speech_line, 'LINE', 'LINE', 'friend') FROM speech "
      "WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'HAMLET') = 1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->items[0].expr->kind, AstExpr::Kind::kFunc);
  EXPECT_EQ(stmt->items[0].expr->name, "getElm");
  EXPECT_EQ(stmt->items[0].expr->children.size(), 4u);
  EXPECT_EQ(stmt->where->children[0]->kind, AstExpr::Kind::kFunc);
}

TEST(SqlParserTest, TableFunctionInFrom) {
  auto stmt = ParseSelect(
      "SELECT DISTINCT unnestedS.out FROM speakers, "
      "table(unnest(speaker, 'speaker')) unnestedS");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE(stmt->distinct);
  ASSERT_EQ(stmt->from.size(), 2u);
  EXPECT_TRUE(stmt->from[1].is_function);
  EXPECT_EQ(stmt->from[1].function_name, "unnest");
  EXPECT_EQ(stmt->from[1].alias, "unnestedS");
  ASSERT_EQ(stmt->from[1].function_args.size(), 2u);
}

TEST(SqlParserTest, TableFunctionRequiresAlias) {
  EXPECT_FALSE(
      ParseSelect("SELECT x FROM table(unnest(a, 'b'))").ok());
}

TEST(SqlParserTest, GroupByOrderByLimit) {
  auto stmt = ParseSelect(
      "SELECT author, COUNT(*) AS n FROM t GROUP BY author "
      "ORDER BY n DESC, author LIMIT 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->group_by.size(), 1u);
  ASSERT_EQ(stmt->order_by.size(), 2u);
  EXPECT_FALSE(stmt->order_by[0].ascending);
  EXPECT_TRUE(stmt->order_by[1].ascending);
  EXPECT_EQ(stmt->limit, 10);
}

TEST(SqlParserTest, CountStar) {
  auto stmt = ParseSelect("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->items[0].expr->kind, AstExpr::Kind::kFunc);
  EXPECT_EQ(stmt->items[0].expr->children[0]->kind, AstExpr::Kind::kStar);
}

TEST(SqlParserTest, SelectStar) {
  auto stmt = ParseSelect("SELECT * FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->items[0].expr->kind, AstExpr::Kind::kStar);
}

TEST(SqlParserTest, Comments) {
  auto stmt = ParseSelect("SELECT a -- trailing comment\nFROM t");
  ASSERT_TRUE(stmt.ok());
}

TEST(SqlParserTest, CreateTable) {
  auto stmt = ParseSql(
      "CREATE TABLE speech (speechID INTEGER PRIMARY KEY, "
      "speech_line XADT, note VARCHAR(80))");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, Statement::Kind::kCreateTable);
  ASSERT_EQ(stmt->create_table.columns.size(), 3u);
  EXPECT_EQ(stmt->create_table.columns[0].second, TypeId::kInteger);
  EXPECT_EQ(stmt->create_table.columns[1].second, TypeId::kXadt);
  EXPECT_EQ(stmt->create_table.columns[2].second, TypeId::kVarchar);
  // Type names and noise words match in any case.
  stmt = ParseSql(
      "create table t (a int primary key, b Varchar(8) not null, c xml, "
      "d real, e bool)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& cols = stmt->create_table.columns;
  ASSERT_EQ(cols.size(), 5u);
  EXPECT_EQ(cols[0], std::make_pair(std::string("a"), TypeId::kInteger));
  EXPECT_EQ(cols[1].second, TypeId::kVarchar);
  EXPECT_EQ(cols[2].second, TypeId::kXadt);
  EXPECT_EQ(cols[3].second, TypeId::kDouble);
  EXPECT_EQ(cols[4].second, TypeId::kBoolean);
  EXPECT_FALSE(ParseSql("CREATE TABLE t (a BLOB)").ok());
}

TEST(SqlParserTest, CreateIndex) {
  auto stmt = ParseSql("CREATE INDEX idx ON speech (speech_parentID)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, Statement::Kind::kCreateIndex);
  EXPECT_EQ(stmt->create_index.table, "speech");
  EXPECT_EQ(stmt->create_index.column, "speech_parentID");
}

TEST(SqlParserTest, InsertValues) {
  auto stmt = ParseSql("INSERT INTO t VALUES (1, 'x', NULL), (2, 'y', 'z')");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, Statement::Kind::kInsert);
  ASSERT_EQ(stmt->insert.rows.size(), 2u);
  EXPECT_TRUE(stmt->insert.rows[0][2].is_null());
  EXPECT_EQ(stmt->insert.rows[1][1].AsString(), "y");
}

TEST(SqlParserTest, Explain) {
  auto stmt = ParseSql("EXPLAIN SELECT a FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, Statement::Kind::kExplain);
}

TEST(SqlParserTest, Errors) {
  EXPECT_FALSE(ParseSql("SELECT").ok());
  EXPECT_FALSE(ParseSql("SELECT a").ok());               // missing FROM
  EXPECT_FALSE(ParseSql("SELECT a FROM").ok());          // missing table
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE").ok());  // missing predicate
  EXPECT_FALSE(ParseSql("SELECT a FROM t x y").ok());    // trailing tokens
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE b = 'unclosed").ok());
  EXPECT_FALSE(ParseSql("DROP TABLE t").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE b LIKE c").ok());
}

TEST(SqlParserTest, StatementTerminator) {
  EXPECT_TRUE(ParseSql("SELECT a FROM t;").ok());
}

TEST(SqlParserTest, IntegerLiteralsAtTheLimitsParse) {
  auto max = ParseSelect("SELECT a FROM t WHERE a = 9223372036854775807");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->where->children[1]->literal.AsInt(), INT64_MAX);
  auto min = ParseSelect("SELECT a FROM t WHERE a = -9223372036854775808");
  ASSERT_TRUE(min.ok()) << min.status().ToString();
  EXPECT_EQ(min->where->children[1]->literal.AsInt(), INT64_MIN);
}

TEST(SqlParserTest, OverflowingIntegerLiteralIsAParseError) {
  for (const char* sql :
       {"SELECT a FROM t WHERE a = 99999999999999999999999",
        "SELECT a FROM t WHERE a = 9223372036854775808",
        "SELECT a FROM t WHERE a = -9223372036854775809",
        "SELECT a FROM t LIMIT 99999999999999999999",
        "INSERT INTO t VALUES (-99999999999999999999)",
        "PRAGMA scrub(99999999999999999999)"}) {
    auto stmt = ParseSql(sql);
    ASSERT_FALSE(stmt.ok()) << sql;
    EXPECT_EQ(stmt.status().code(), StatusCode::kParseError) << sql;
  }
}

TEST(SqlParserTest, ErrorsQuoteTheTokenTheyStopAt) {
  auto stmt = ParseSql("SELECT a FROM t WHERE b LIKE c");
  ASSERT_FALSE(stmt.ok());
  EXPECT_NE(stmt.status().message().find("(near \"c\")"), std::string::npos)
      << stmt.status().ToString();
  stmt = ParseSql("SELECT a FROM t 'x''y'");
  ASSERT_FALSE(stmt.ok());
  EXPECT_NE(stmt.status().message().find("(near \"'x''y'\")"),
            std::string::npos)
      << stmt.status().ToString();
}

TEST(ClassifyStatementTest, FirstTokenOfTheSqlLexerDecides) {
  EXPECT_EQ(ClassifyStatement("SELECT a FROM t"), StatementClass::kRead);
  EXPECT_EQ(ClassifyStatement("  explain select a from t"),
            StatementClass::kRead);
  EXPECT_EQ(ClassifyStatement("insert into t values (1)"),
            StatementClass::kMutation);
  EXPECT_EQ(ClassifyStatement("Create TABLE t (a INT)"),
            StatementClass::kMutation);
  EXPECT_EQ(ClassifyStatement("DELETE FROM t"), StatementClass::kMutation);
  EXPECT_EQ(ClassifyStatement("PRAGMA stats"), StatementClass::kPragma);
  // Comments before the keyword are skipped as ParseSql skips them.
  EXPECT_EQ(ClassifyStatement("-- note\n\tDELETE FROM t"),
            StatementClass::kMutation);
  EXPECT_EQ(ClassifyStatement("--a\n--b\nSELECT 1 FROM t"),
            StatementClass::kRead);
  // A keyword is a whole identifier, as the parser reads it.
  EXPECT_EQ(ClassifyStatement("SELECT1 FROM t"), StatementClass::kUnknown);
  for (const char* garbage : {"", "   ", "-- only a comment", "DROP TABLE t",
                              "'unterminated", "(SELECT a FROM t)", "42"}) {
    EXPECT_EQ(ClassifyStatement(garbage), StatementClass::kUnknown)
        << garbage;
  }
}

}  // namespace
}  // namespace xorator::ordb::sql
