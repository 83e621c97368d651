#ifndef XORATOR_ORDB_PLANNER_H_
#define XORATOR_ORDB_PLANNER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "ordb/catalog.h"
#include "ordb/executor.h"
#include "ordb/functions.h"
#include "ordb/sql.h"

namespace xorator::ordb {

/// Planner knobs, mirroring the DB2 configuration the paper describes
/// (hash joins enabled, a bounded sort heap, index-wizard indexes).
struct PlannerOptions {
  /// Hash-join build side must fit here, else the planner falls back to
  /// sort-merge.
  size_t sort_heap_bytes = 8u << 20;
  bool enable_hash_join = true;
  /// Use index nested-loop joins when the outer side is estimated to be
  /// selective and the inner column has an index.
  bool enable_index_join = true;
};

/// One FROM entry with its place in the combined row layout of a SELECT.
struct FromItem {
  const TableInfo* table = nullptr;  // null for table functions
  const TableFunction* function = nullptr;
  std::string alias;
  /// "alias.col", in the order of the table's schema or the function's
  /// output, so a column's index here is its index there.
  std::vector<ColumnMeta> columns;
  size_t offset = 0;  // position of columns[0] in the combined layout
};

/// Resolves column names, `col` or `alias.col` and case-insensitive,
/// against the combined layout of a SELECT's FROM items.
class Scope {
 public:
  explicit Scope(const std::vector<FromItem>* items) : items_(items) {}

  struct Resolution {
    size_t item;          // index of the FROM item
    size_t column;        // index of the column within that item
    size_t global_index;  // position in the combined layout
    TypeId type;
    std::string_view qualified;  // "alias.col", as ColumnRefExpr prints it
  };

  /// Fails with kNotFound for an unknown and kInvalidArgument for an
  /// ambiguous name.
  [[nodiscard]] Result<Resolution> Resolve(std::string_view name) const;

 private:
  const std::vector<FromItem>* items_;
};

/// Translates a parsed SELECT into a physical operator tree over the
/// catalog: filter pushdown, left-deep joins in FROM order with
/// index-NL/hash/sort-merge selection, lateral table functions, aggregation,
/// DISTINCT and ORDER BY.
class Planner {
 public:
  Planner(Catalog* catalog, FunctionRegistry* functions,
          const PlannerOptions& options)
      : catalog_(catalog), functions_(functions), options_(options) {}

  [[nodiscard]] Result<OperatorPtr> PlanSelect(const sql::SelectStmt& stmt);

  /// The FROM items of `stmt` and their combined layout, for a Scope.
  /// Fails on an unknown table or table function.
  [[nodiscard]] Result<std::vector<FromItem>> BindFrom(
      const sql::SelectStmt& stmt) const;

  /// Binds `predicate` against the row layout of `table` alone, its
  /// columns addressed as `col` or `table.col` (DELETE's WHERE, which
  /// scans one table outside a plan). Errors match PlanSelect's.
  [[nodiscard]] Result<ExprPtr> BindPredicate(const sql::AstExpr& predicate,
                                              const TableInfo& table) const;

 private:
  Catalog* catalog_;
  FunctionRegistry* functions_;
  PlannerOptions options_;
};

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_PLANNER_H_
