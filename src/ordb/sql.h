#ifndef XORATOR_ORDB_SQL_H_
#define XORATOR_ORDB_SQL_H_

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "ordb/expr.h"
#include "ordb/value.h"

namespace xorator::ordb::sql {

/// Unbound expression AST produced by the parser.
struct AstExpr {
  enum class Kind {
    kColumn,   // name = "col" or "alias.col"
    kLiteral,  // value
    kStar,     // "*" (only inside COUNT(*))
    kCompare,  // op, children[0/1]
    kAnd,
    kOr,
    kNot,
    kLike,    // children[0] LIKE str
    kFunc,    // name(children...)
    kIsNull,  // children[0] IS [NOT] NULL (negated -> IS NOT NULL)
  };

  Kind kind = Kind::kColumn;
  std::string name;
  Value literal;
  std::string pattern;  // LIKE pattern
  bool negated = false;  // for kIsNull
  CompareOp op = CompareOp::kEq;
  std::vector<std::unique_ptr<AstExpr>> children;

  std::string ToString() const;
};

using AstExprPtr = std::unique_ptr<AstExpr>;

/// One FROM entry: a table (with optional alias) or a table-function call
/// `table(fn(args)) alias`.
struct TableRef {
  std::string table;
  std::string alias;
  bool is_function = false;
  std::string function_name;
  std::vector<AstExprPtr> function_args;
};

/// One expression in a SELECT list.
struct SelectItem {
  AstExprPtr expr;
  std::string alias;  // from AS, may be empty
};

/// One ORDER BY key.
struct OrderItem {
  AstExprPtr expr;
  bool ascending = true;
};

/// A parsed SELECT (or the SELECT under an EXPLAIN).
struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  AstExprPtr where;  // may be null
  std::vector<AstExprPtr> group_by;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;  // -1: none
};

/// A parsed CREATE TABLE.
struct CreateTableStmt {
  std::string name;
  std::vector<std::pair<std::string, TypeId>> columns;
};

/// A parsed CREATE INDEX.
struct CreateIndexStmt {
  std::string index_name;
  std::string table;
  std::string column;
};

/// A parsed INSERT ... VALUES.
struct InsertStmt {
  std::string table;
  std::vector<std::vector<Value>> rows;  // literal rows
};

/// A parsed DELETE.
struct DeleteStmt {
  std::string table;
  AstExprPtr where;  // may be null (delete all rows)
};

/// A parsed PRAGMA: an engine maintenance/introspection command
/// (`PRAGMA health`, `PRAGMA scrub`, `PRAGMA scrub(256)`, `PRAGMA stats`).
struct PragmaStmt {
  std::string name;
  int64_t arg = -1;
  bool has_arg = false;
};

/// A parsed statement. EXPLAIN wraps a SELECT.
struct Statement {
  enum class Kind {
    kSelect,
    kCreateTable,
    kCreateIndex,
    kInsert,
    kDelete,
    kExplain,
    kPragma,
  };
  Kind kind = Kind::kSelect;
  SelectStmt select;  // kSelect / kExplain
  CreateTableStmt create_table;
  CreateIndexStmt create_index;
  InsertStmt insert;
  DeleteStmt del;
  PragmaStmt pragma;
};

/// Coarse statement class, decidable from the leading keyword without a
/// full parse. The network front end (src/server) uses this at admission
/// time to shed mutations fast while the engine is latched read-only —
/// before the statement spends a queue slot or a worker thread
/// (DESIGN.md section 17).
enum class StatementClass {
  /// SELECT / EXPLAIN: takes the statement lock shared, never mutates.
  kRead,
  /// CREATE / INSERT / DELETE: requires a writable engine.
  kMutation,
  /// PRAGMA: introspection/maintenance; runs on a read-only engine.
  kPragma,
  /// Unrecognized leading keyword — let the parser produce the real error.
  kUnknown,
};

/// Classifies `input` by the first token ParseSql's lexer reads from it, so
/// whitespace and `--` comments before the keyword are skipped alike, and
/// the keyword matches case-insensitively. Never fails: garbage is
/// kUnknown, and the caller falls through to ParseSql for the
/// authoritative diagnosis. The classification is intentionally
/// conservative — a kRead answer guarantees the statement cannot mutate,
/// because the parser maps each leading keyword to exactly one statement
/// kind.
[[nodiscard]] StatementClass ClassifyStatement(std::string_view input);

/// Parses one SQL statement (optionally ';'-terminated). Supported grammar:
///
///   SELECT [DISTINCT] item {, item}
///   FROM table [alias] {, table [alias] | , TABLE(fn(args)) alias}
///   [WHERE conjunctive/disjunctive predicate]
///   [GROUP BY column {, column}]
///   [ORDER BY expr [ASC|DESC] {, ...}]
///   [LIMIT n]
///
///   CREATE TABLE t (col TYPE, ...)
///   CREATE INDEX i ON t (col)
///   INSERT INTO t VALUES (lit, ...), (...)
///   DELETE FROM t [WHERE predicate]
///   EXPLAIN SELECT ...
///   PRAGMA name [( n )]
[[nodiscard]] Result<Statement> ParseSql(std::string_view input);

}  // namespace xorator::ordb::sql

#endif  // XORATOR_ORDB_SQL_H_
