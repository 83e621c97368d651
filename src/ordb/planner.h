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
  /// A hash join is considered only while its estimated build side fits
  /// here.
  size_t sort_heap_bytes = 8u << 20;
  bool enable_hash_join = true;
  /// Consider index nested-loop joins into an indexed inner column; the
  /// planner uses one when its estimated cost is the lowest.
  bool enable_index_join = true;
};

/// One FROM entry of a SELECT.
struct FromItem {
  const TableInfo* table = nullptr;  // null for table functions
  const TableFunction* function = nullptr;
  std::string alias;
  /// "alias.col", in the order of the table's schema or the function's
  /// output, so a column's index here is its index there.
  std::vector<ColumnMeta> columns;
  /// Position of columns[0] in the combined row layout, which follows the
  /// chosen join order; PlanSelect sets it once the order is chosen.
  size_t offset = 0;
};

/// Resolves column names, `col` or `alias.col` and case-insensitive,
/// against a SELECT's FROM items as written.
class Scope {
 public:
  explicit Scope(const std::vector<FromItem>* items) : items_(items) {}

  struct Resolution {
    size_t item;    // index of the FROM item
    size_t column;  // index of the column within that item
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
/// catalog: filter pushdown, a left-deep join order and each join's
/// algorithm (index-NL, hash, sort-merge) chosen by estimated cost over
/// every order (DESIGN.md section 21), lateral table functions,
/// aggregation, DISTINCT and ORDER BY. The estimates appear in EXPLAIN.
class Planner {
 public:
  Planner(Catalog* catalog, FunctionRegistry* functions,
          const PlannerOptions& options)
      : catalog_(catalog), functions_(functions), options_(options) {}

  /// Plans `stmt`.
  [[nodiscard]] Result<OperatorPtr> PlanSelect(const sql::SelectStmt& stmt) {
    return Plan(stmt, nullptr);
  }

  /// The estimated cost of the joins PlanSelect chooses for `stmt`
  /// (DESIGN.md section 21), which the index advisor compares. No operator
  /// is built, so only errors met before the join search are reported.
  [[nodiscard]] Result<double> EstimateCost(const sql::SelectStmt& stmt);

  /// The FROM items of `stmt`, for a Scope. Fails on an unknown table or
  /// table function.
  [[nodiscard]] Result<std::vector<FromItem>> BindFrom(
      const sql::SelectStmt& stmt) const;

  /// Binds `predicate` against the row layout of `table` alone, its
  /// columns addressed as `col` or `table.col` (DELETE's WHERE, which
  /// scans one table outside a plan). Errors match PlanSelect's.
  [[nodiscard]] Result<ExprPtr> BindPredicate(const sql::AstExpr& predicate,
                                              const TableInfo& table) const;

 private:
  /// PlanSelect, or EstimateCost into `cost` when it is given.
  Result<OperatorPtr> Plan(const sql::SelectStmt& stmt, double* cost);

  Catalog* catalog_;
  FunctionRegistry* functions_;
  PlannerOptions options_;
};

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_PLANNER_H_
