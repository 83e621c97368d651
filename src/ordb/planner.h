#ifndef XORATOR_ORDB_PLANNER_H_
#define XORATOR_ORDB_PLANNER_H_

#include <memory>
#include <string>
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
  /// sort-merge (how the Figure 13 crossover arises at larger scales).
  size_t sort_heap_bytes = 8u << 20;
  bool enable_hash_join = true;
  /// Use index nested-loop joins when the outer side is estimated to be
  /// selective and the inner column has an index.
  bool enable_index_join = true;
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
