#include "ordb/planner.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "common/str_util.h"

namespace xorator::ordb {

namespace {

using sql::AstExpr;

/// Outer-to-inner row ratio below which an index nested-loop join is
/// considered profitable.
constexpr double kIndexJoinOuterRatio = 0.25;

bool IsAggregateName(const std::string& name) {
  std::string lower = ToLower(name);
  return lower == "count" || lower == "sum" || lower == "min" ||
         lower == "max";
}

bool ContainsAggregate(const AstExpr& e) {
  if (e.kind == AstExpr::Kind::kFunc && IsAggregateName(e.name)) return true;
  for (const auto& c : e.children) {
    if (ContainsAggregate(*c)) return true;
  }
  return false;
}

/// True if layout column `column` ("alias.col") is the one `name` ("col"
/// or "alias.col") names.
bool NameMatches(std::string_view column, std::string_view name) {
  if (EqualsIgnoreCase(column, name)) return true;
  return column.size() > name.size() &&
         column[column.size() - name.size() - 1] == '.' &&
         EqualsIgnoreCase(column.substr(column.size() - name.size()), name);
}

/// Binds AST expressions to executable expressions against the combined
/// layout, optionally shifted for side-local binding.
class Binder {
 public:
  Binder(const Scope* scope, const FunctionRegistry* functions)
      : scope_(scope), functions_(functions) {}

  /// `offset_shift` is subtracted from every resolved global index (to bind
  /// an expression against one side's local layout).
  Result<ExprPtr> Bind(const AstExpr& e, size_t offset_shift = 0) const {
    switch (e.kind) {
      case AstExpr::Kind::kColumn: {
        XO_ASSIGN_OR_RETURN(auto res, scope_->Resolve(e.name));
        if (res.global_index < offset_shift) {
          return Status::Internal("column bound below side offset");
        }
        return ExprPtr(new ColumnRefExpr(res.global_index - offset_shift,
                                         std::string(res.qualified),
                                         res.type));
      }
      case AstExpr::Kind::kLiteral:
        return ExprPtr(new LiteralExpr(e.literal));
      case AstExpr::Kind::kStar:
        return Status::InvalidArgument("'*' is only valid in COUNT(*)");
      case AstExpr::Kind::kCompare: {
        XO_ASSIGN_OR_RETURN(auto l, Bind(*e.children[0], offset_shift));
        XO_ASSIGN_OR_RETURN(auto r, Bind(*e.children[1], offset_shift));
        return ExprPtr(new CompareExpr(e.op, std::move(l), std::move(r)));
      }
      case AstExpr::Kind::kAnd:
      case AstExpr::Kind::kOr: {
        XO_ASSIGN_OR_RETURN(auto l, Bind(*e.children[0], offset_shift));
        XO_ASSIGN_OR_RETURN(auto r, Bind(*e.children[1], offset_shift));
        return ExprPtr(new LogicExpr(e.kind == AstExpr::Kind::kAnd
                                         ? LogicExpr::Kind::kAnd
                                         : LogicExpr::Kind::kOr,
                                     std::move(l), std::move(r)));
      }
      case AstExpr::Kind::kNot: {
        XO_ASSIGN_OR_RETURN(auto c, Bind(*e.children[0], offset_shift));
        return ExprPtr(
            new LogicExpr(LogicExpr::Kind::kNot, std::move(c), nullptr));
      }
      case AstExpr::Kind::kLike: {
        XO_ASSIGN_OR_RETURN(auto c, Bind(*e.children[0], offset_shift));
        return ExprPtr(new LikeExpr(std::move(c), e.pattern));
      }
      case AstExpr::Kind::kIsNull: {
        XO_ASSIGN_OR_RETURN(auto c, Bind(*e.children[0], offset_shift));
        return ExprPtr(new IsNullExpr(std::move(c), e.negated));
      }
      case AstExpr::Kind::kFunc: {
        const ScalarFunction* fn = functions_->FindScalar(e.name);
        if (fn == nullptr) {
          return Status::NotFound("unknown function '" + e.name + "'");
        }
        std::vector<ExprPtr> args;
        for (const auto& a : e.children) {
          XO_ASSIGN_OR_RETURN(auto bound, Bind(*a, offset_shift));
          args.push_back(std::move(bound));
        }
        return ExprPtr(new FunctionExpr(fn, std::move(args)));
      }
    }
    return Status::Internal("unhandled AST node");
  }

 private:
  const Scope* scope_;
  const FunctionRegistry* functions_;
};

/// ANDs `pred` into `*residual` (which may be null).
void AndInto(ExprPtr* residual, ExprPtr pred) {
  *residual = *residual == nullptr
                  ? std::move(pred)
                  : ExprPtr(new LogicExpr(LogicExpr::Kind::kAnd,
                                          std::move(*residual),
                                          std::move(pred)));
}

/// Appends the resolution of every column `e` names, in order; fails at
/// the first name that does not resolve.
Status ResolveColumns(const AstExpr& e, const Scope& scope,
                      std::vector<Scope::Resolution>* out) {
  if (e.kind == AstExpr::Kind::kColumn) {
    XO_ASSIGN_OR_RETURN(Scope::Resolution res, scope.Resolve(e.name));
    out->push_back(res);
  }
  for (const auto& c : e.children) {
    XO_RETURN_NOT_OK(ResolveColumns(*c, scope, out));
  }
  return Status::OK();
}

/// A WHERE conjunct with the FROM items and layout columns it references.
struct Conjunct {
  const AstExpr* ast;
  std::set<size_t> items;
  std::vector<size_t> columns;
  bool consumed = false;
};

void FlattenConjuncts(const AstExpr& e, std::vector<const AstExpr*>* out) {
  if (e.kind == AstExpr::Kind::kAnd) {
    FlattenConjuncts(*e.children[0], out);
    FlattenConjuncts(*e.children[1], out);
    return;
  }
  out->push_back(&e);
}

/// Recognizes `col = literal` (index-scan choice, selectivity); returns
/// the column AST node and the literal.
bool MatchColumnEqLiteral(const AstExpr& e, const AstExpr** col,
                          const Value** literal) {
  if (e.kind != AstExpr::Kind::kCompare || e.op != CompareOp::kEq) {
    return false;
  }
  if (e.children[0]->kind == AstExpr::Kind::kColumn &&
      e.children[1]->kind == AstExpr::Kind::kLiteral) {
    *col = e.children[0].get();
    *literal = &e.children[1]->literal;
    return true;
  }
  if (e.children[1]->kind == AstExpr::Kind::kColumn &&
      e.children[0]->kind == AstExpr::Kind::kLiteral) {
    *col = e.children[1].get();
    *literal = &e.children[0]->literal;
    return true;
  }
  return false;
}

/// Crude selectivity model for base-table cardinality estimation.
double EstimateSelectivity(const AstExpr& e, const TableInfo& table,
                           const Scope& scope) {
  switch (e.kind) {
    case AstExpr::Kind::kCompare: {
      if (e.op != CompareOp::kEq) return 0.3;
      // col = literal: the literal's share of rows when stats exist.
      const AstExpr* col;
      const Value* literal;
      if (MatchColumnEqLiteral(e, &col, &literal) && table.stats.collected) {
        // A pushed-down filter names only `table`'s own columns.
        auto res = scope.Resolve(col->name);
        if (res.ok() && table.stats.columns[res->column].ndv > 0) {
          return table.stats.columns[res->column].EqFraction(
              literal->Hash(), table.stats.row_count);
        }
      }
      return 0.05;
    }
    case AstExpr::Kind::kLike:
      return 0.25;
    case AstExpr::Kind::kAnd:
      return EstimateSelectivity(*e.children[0], table, scope) *
             EstimateSelectivity(*e.children[1], table, scope);
    case AstExpr::Kind::kOr:
      return std::min(1.0,
                      EstimateSelectivity(*e.children[0], table, scope) +
                          EstimateSelectivity(*e.children[1], table, scope));
    default:
      return 0.5;
  }
}

/// Recognizes `colA = colB` across two different items.
bool MatchEquiJoin(const AstExpr& e) {
  return e.kind == AstExpr::Kind::kCompare && e.op == CompareOp::kEq &&
         e.children[0]->kind == AstExpr::Kind::kColumn &&
         e.children[1]->kind == AstExpr::Kind::kColumn;
}

}  // namespace

Result<Scope::Resolution> Scope::Resolve(std::string_view name) const {
  std::optional<Resolution> found;
  for (size_t i = 0; i < items_->size(); ++i) {
    const FromItem& item = (*items_)[i];
    for (size_t c = 0; c < item.columns.size(); ++c) {
      if (!NameMatches(item.columns[c].name, name)) continue;
      if (found.has_value()) {
        return Status::InvalidArgument("ambiguous column '" +
                                       std::string(name) + "'");
      }
      found = Resolution{i, c, item.offset + c, item.columns[c].type,
                         item.columns[c].name};
    }
  }
  if (!found.has_value()) {
    return Status::NotFound("unknown column '" + std::string(name) + "'");
  }
  return *found;
}

Result<std::vector<FromItem>> Planner::BindFrom(
    const sql::SelectStmt& stmt) const {
  std::vector<FromItem> items;
  items.reserve(stmt.from.size());
  size_t offset = 0;
  for (const sql::TableRef& ref : stmt.from) {
    FromItem item;
    item.alias = ref.alias;
    if (ref.is_function) {
      item.function = functions_->FindTable(ref.function_name);
      if (item.function == nullptr) {
        return Status::NotFound("unknown table function '" +
                                ref.function_name + "'");
      }
      item.columns = QualifiedColumns(item.function->output, ref.alias);
    } else {
      item.table = catalog_->FindTable(ref.table);
      if (item.table == nullptr) {
        return Status::NotFound("unknown table '" + ref.table + "'");
      }
      item.columns = QualifiedColumns(item.table->schema.columns, ref.alias);
    }
    item.offset = offset;
    offset += item.columns.size();
    items.push_back(std::move(item));
  }
  return items;
}

Result<OperatorPtr> Planner::PlanSelect(const sql::SelectStmt& stmt) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM clause is required");
  }

  XO_ASSIGN_OR_RETURN(std::vector<FromItem> items, BindFrom(stmt));
  const size_t width = items.back().offset + items.back().columns.size();
  Scope scope(&items);
  Binder binder(&scope, functions_);

  // ---- Classify WHERE conjuncts by the items they reference. -------------
  std::vector<Conjunct> conjuncts;
  if (stmt.where != nullptr) {
    std::vector<const AstExpr*> flat;
    FlattenConjuncts(*stmt.where, &flat);
    for (const AstExpr* e : flat) {
      Conjunct c;
      c.ast = e;
      std::vector<Scope::Resolution> cols;
      XO_RETURN_NOT_OK(ResolveColumns(*e, scope, &cols));
      for (const Scope::Resolution& res : cols) {
        c.items.insert(res.item);
        c.columns.push_back(res.global_index);
      }
      conjuncts.push_back(std::move(c));
    }
  }

  // ---- Column liveness. ---------------------------------------------------
  // Records, per column of the combined layout, the latest plan stage that
  // reads it. Stage 2i is the lateral at FROM position i evaluating its
  // arguments; stage 2i+1 is everything applied once position i is joined
  // (join keys, residuals, filters: a conjunct runs at its last FROM
  // item); the select list and GROUP BY read at the top. Scans and the
  // index join's inner side materialize the columns read at any stage; a
  // lateral at position i copies only the columns read after stage 2i.
  // Row layouts keep their width, so no expression is rebound. An expression
  // naming an unknown column is skipped here; Bind reports it below.
  std::vector<int> last_read(width, -1);
  auto mark_column = [&](size_t column, int stage) {
    last_read[column] = std::max(last_read[column], stage);
  };
  auto mark_read = [&](const AstExpr& e, int stage) {
    std::vector<Scope::Resolution> cols;
    if (!ResolveColumns(e, scope, &cols).ok()) return;
    for (const Scope::Resolution& res : cols) {
      mark_column(res.global_index, stage);
    }
  };
  const int top_stage = static_cast<int>(2 * items.size());
  for (const Conjunct& c : conjuncts) {
    for (size_t column : c.columns) {
      mark_column(column, static_cast<int>(2 * *c.items.rbegin() + 1));
    }
  }
  for (size_t i = 0; i < items.size(); ++i) {
    for (const auto& a : stmt.from[i].function_args) {
      mark_read(*a, static_cast<int>(2 * i));
    }
  }
  for (const sql::SelectItem& sel : stmt.items) {
    if (sel.expr->kind == AstExpr::Kind::kStar) {
      std::fill(last_read.begin(), last_read.end(), top_stage);
    } else {
      mark_read(*sel.expr, top_stage);
    }
  }
  for (const auto& g : stmt.group_by) mark_read(*g, top_stage);
  // Columns [begin, end) of the layout read after `stage`.
  auto live_after = [&](size_t begin, size_t end, int stage) {
    ColumnMask live(end - begin);
    for (size_t c = begin; c < end; ++c) live[c - begin] = last_read[c] > stage;
    return live;
  };
  auto scan_live = [&](size_t i) {
    return live_after(items[i].offset,
                      items[i].offset + items[i].columns.size(), -1);
  };

  // ---- Build each base access path with pushed-down filters. -------------
  auto base_filters = [&](size_t item_idx) {
    std::vector<Conjunct*> out;
    for (Conjunct& c : conjuncts) {
      if (!c.consumed && c.items.size() == 1 && c.items.count(item_idx)) {
        out.push_back(&c);
      }
    }
    return out;
  };

  // Estimated cardinality per base item after pushed filters.
  std::vector<double> est_rows(items.size(), 1.0);
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].table == nullptr) {
      est_rows[i] = 4.0;  // table functions: a handful of rows per call
      continue;
    }
    double rows = static_cast<double>(items[i].table->heap->record_count());
    for (Conjunct* c : base_filters(i)) {
      rows *= EstimateSelectivity(*c->ast, *items[i].table, scope);
    }
    est_rows[i] = std::max(rows, 1.0);
  }

  auto build_base = [&](size_t i) -> Result<OperatorPtr> {
    const FromItem& item = items[i];
    std::vector<Conjunct*> filters = base_filters(i);
    OperatorPtr op;
    // Prefer an index scan for a `col = literal` filter, the most
    // selective one when several columns are indexed.
    Conjunct* index_filter = nullptr;
    const IndexInfo* index = nullptr;
    Value index_key;
    double best_selectivity = 0;
    for (Conjunct* c : filters) {
      const AstExpr* col;
      const Value* literal;
      if (!MatchColumnEqLiteral(*c->ast, &col, &literal)) continue;
      auto res = scope.Resolve(col->name);
      if (!res.ok() || res->item != i) continue;
      const IndexInfo* idx = item.table->FindIndex(res->column);
      if (idx == nullptr) continue;
      double selectivity = EstimateSelectivity(*c->ast, *item.table, scope);
      if (index == nullptr || selectivity < best_selectivity) {
        index_filter = c;
        index = idx;
        index_key = *literal;
        best_selectivity = selectivity;
      }
    }
    if (index != nullptr) {
      op = std::make_unique<IndexScanOp>(item.table, index, index_key,
                                         item.alias, scan_live(i));
      index_filter->consumed = true;
    } else {
      op = std::make_unique<SeqScanOp>(item.table, item.alias, scan_live(i));
    }
    // Remaining pushed filters. They are bound against the item's local
    // layout (shift by the item's offset).
    for (Conjunct* c : filters) {
      if (c->consumed) continue;
      XO_ASSIGN_OR_RETURN(auto pred, binder.Bind(*c->ast, item.offset));
      op = std::make_unique<FilterOp>(std::move(op), std::move(pred));
      c->consumed = true;
    }
    return op;
  };

  // ---- Left-deep join in FROM order. --------------------------------------
  std::set<size_t> joined;
  // True once every item `c` references is joined or is item `i`.
  auto bound_with = [&](const Conjunct& c, size_t i) {
    return std::all_of(c.items.begin(), c.items.end(), [&](size_t it) {
      return it == i || joined.count(it) > 0;
    });
  };
  OperatorPtr plan;
  double acc_rows = 0;
  double acc_bytes_per_row = 64;

  auto table_bytes_per_row = [&](size_t i) -> double {
    if (items[i].table == nullptr || items[i].table->heap->record_count() == 0)
      return 64;
    return static_cast<double>(items[i].table->heap->bytes()) /
           static_cast<double>(items[i].table->heap->record_count());
  };

  for (size_t i = 0; i < items.size(); ++i) {
    const FromItem& item = items[i];
    if (item.function != nullptr) {
      // Lateral table function: arguments bound against the accumulated
      // layout (they may reference earlier items only).
      std::vector<ExprPtr> args;
      for (const auto& a : stmt.from[i].function_args) {
        std::vector<Scope::Resolution> cols;
        XO_RETURN_NOT_OK(ResolveColumns(*a, scope, &cols));
        for (const Scope::Resolution& res : cols) {
          if (!joined.count(res.item)) {
            return Status::InvalidArgument(
                "table function argument references a later FROM item");
          }
        }
        XO_ASSIGN_OR_RETURN(auto bound, binder.Bind(*a));
        args.push_back(std::move(bound));
      }
      plan = std::make_unique<LateralTableFuncOp>(
          std::move(plan), item.function, std::move(args), item.alias,
          live_after(0, item.offset + item.columns.size(),
                     static_cast<int>(2 * i)));
      joined.insert(i);
      acc_rows = std::max(1.0, acc_rows) * est_rows[i];
      // Fall through to apply any now-complete conjuncts below.
    } else if (plan == nullptr) {
      XO_ASSIGN_OR_RETURN(plan, build_base(i));
      joined.insert(i);
      acc_rows = est_rows[i];
      acc_bytes_per_row = table_bytes_per_row(i);
    } else {
      // Find equi-join conjuncts linking the accumulated set to item i.
      struct JoinKey {
        const AstExpr* acc_side;
        const AstExpr* item_side;
        Conjunct* conjunct;
      };
      std::vector<JoinKey> keys;
      for (Conjunct& c : conjuncts) {
        if (c.consumed || !c.items.count(i)) continue;
        if (c.items.size() != 2) continue;
        size_t other = *c.items.begin() == i ? *c.items.rbegin()
                                             : *c.items.begin();
        if (!joined.count(other)) continue;
        if (!MatchEquiJoin(*c.ast)) continue;
        XO_ASSIGN_OR_RETURN(auto res0,
                            scope.Resolve(c.ast->children[0]->name));
        const AstExpr* acc_side = c.ast->children[0].get();
        const AstExpr* item_side = c.ast->children[1].get();
        if (res0.item == i) std::swap(acc_side, item_side);
        keys.push_back({acc_side, item_side, &c});
      }
      if (keys.empty()) {
        XO_ASSIGN_OR_RETURN(OperatorPtr right, build_base(i));
        // Cross product with any applicable predicate as residual.
        ExprPtr residual;
        for (Conjunct& c : conjuncts) {
          if (c.consumed || !c.items.count(i) || !bound_with(c, i)) continue;
          XO_ASSIGN_OR_RETURN(auto pred, binder.Bind(*c.ast));
          AndInto(&residual, std::move(pred));
          c.consumed = true;
        }
        plan = std::make_unique<NestedLoopJoinOp>(
            std::move(plan), std::move(right), std::move(residual));
        acc_rows = std::max(1.0, acc_rows * est_rows[i] * 0.3);
      } else {
        // Join cardinality estimate: |acc >< i| = |acc| * |i| / ndv(key),
        // with the inner join-key column's distinct count from runstats.
        double ndv_key = est_rows[i];
        if (items[i].table != nullptr && items[i].table->stats.collected &&
            keys[0].item_side->kind == AstExpr::Kind::kColumn) {
          auto res = scope.Resolve(keys[0].item_side->name);
          if (res.ok() && res->item == i &&
              items[i].table->stats.columns[res->column].ndv > 0) {
            ndv_key = items[i].table->stats.columns[res->column].ndv;
          }
        }
        double join_rows = std::max(
            1.0, acc_rows * est_rows[i] / std::max(ndv_key, 1.0));

        // Decide the join algorithm.
        bool used_index_join = false;
        if (options_.enable_index_join && keys.size() >= 1 &&
            items[i].table != nullptr) {
          // Index NL is profitable when the outer (accumulated) side is
          // selective relative to the inner table.
          double inner_rows =
              static_cast<double>(items[i].table->heap->record_count());
          if (acc_rows <=
              kIndexJoinOuterRatio * std::max(inner_rows, 1.0)) {
            for (JoinKey& k : keys) {
              if (k.item_side->kind != AstExpr::Kind::kColumn) continue;
              auto res = scope.Resolve(k.item_side->name);
              if (!res.ok() || res->item != i) continue;
              const IndexInfo* idx = items[i].table->FindIndex(res->column);
              if (idx == nullptr) continue;
              // Residual: the remaining join keys (bound to the combined
              // layout).
              ExprPtr residual;
              for (JoinKey& other : keys) {
                if (&other == &k) {
                  other.conjunct->consumed = true;
                  continue;
                }
                XO_ASSIGN_OR_RETURN(auto pred,
                                    binder.Bind(*other.conjunct->ast));
                AndInto(&residual, std::move(pred));
                other.conjunct->consumed = true;
              }
              XO_ASSIGN_OR_RETURN(auto outer_key, binder.Bind(*k.acc_side));
              // The inner side's pushed filters become part of the
              // residual (the index join reads the base table directly).
              for (Conjunct* c : base_filters(i)) {
                XO_ASSIGN_OR_RETURN(auto pred, binder.Bind(*c->ast));
                AndInto(&residual, std::move(pred));
                c->consumed = true;
              }
              plan = std::make_unique<IndexNestedLoopJoinOp>(
                  std::move(plan), items[i].table, idx, std::move(outer_key),
                  item.alias, std::move(residual), scan_live(i));
              used_index_join = true;
              break;
            }
          }
        }
        if (!used_index_join) {
          XO_ASSIGN_OR_RETURN(OperatorPtr right, build_base(i));
          std::vector<ExprPtr> left_keys;
          std::vector<ExprPtr> right_keys;
          for (JoinKey& k : keys) {
            XO_ASSIGN_OR_RETURN(auto l, binder.Bind(*k.acc_side));
            XO_ASSIGN_OR_RETURN(auto r, binder.Bind(*k.item_side,
                                                    items[i].offset));
            left_keys.push_back(std::move(l));
            right_keys.push_back(std::move(r));
            k.conjunct->consumed = true;
          }
          double build_bytes = acc_rows * acc_bytes_per_row;
          bool hash_fits =
              options_.enable_hash_join &&
              build_bytes <= static_cast<double>(options_.sort_heap_bytes);
          if (hash_fits) {
            plan = std::make_unique<HashJoinOp>(
                std::move(plan), std::move(right), std::move(left_keys),
                std::move(right_keys));
          } else {
            plan = std::make_unique<SortMergeJoinOp>(
                std::move(plan), std::move(right), std::move(left_keys),
                std::move(right_keys));
          }
        }
        acc_rows = join_rows;
        acc_bytes_per_row += table_bytes_per_row(i);
      }
    }
    joined.insert(i);
    // Apply any conjuncts that have just become fully bound.
    for (Conjunct& c : conjuncts) {
      if (c.consumed || !bound_with(c, i)) continue;
      XO_ASSIGN_OR_RETURN(auto pred, binder.Bind(*c.ast));
      plan = std::make_unique<FilterOp>(std::move(plan), std::move(pred));
      c.consumed = true;
      acc_rows = std::max(1.0, acc_rows * 0.3);
    }
  }

  // ---- Aggregation. -------------------------------------------------------
  bool has_aggregate = !stmt.group_by.empty();
  for (const sql::SelectItem& item : stmt.items) {
    if (ContainsAggregate(*item.expr)) has_aggregate = true;
  }

  auto item_name = [](const sql::SelectItem& item) {
    return item.alias.empty() ? item.expr->ToString() : item.alias;
  };

  if (has_aggregate) {
    std::vector<ExprPtr> group_keys;
    std::vector<std::string> group_names;
    for (const auto& g : stmt.group_by) {
      XO_ASSIGN_OR_RETURN(auto bound, binder.Bind(*g));
      group_names.push_back(g->ToString());
      group_keys.push_back(std::move(bound));
    }
    std::vector<AggregateSpec> aggs;
    // Map each select item onto the aggregate output.
    struct OutputRef {
      bool is_group_key;
      size_t index;  // group key idx or aggregate idx
      std::string name;
      TypeId type;
    };
    std::vector<OutputRef> outputs;
    for (const sql::SelectItem& sel : stmt.items) {
      const AstExpr& e = *sel.expr;
      if (e.kind == AstExpr::Kind::kFunc && IsAggregateName(e.name)) {
        AggregateSpec spec;
        std::string lower = ToLower(e.name);
        if (lower == "count") {
          if (e.children.size() == 1 &&
              e.children[0]->kind == AstExpr::Kind::kStar) {
            spec.kind = AggKind::kCountStar;
          } else if (e.children.size() == 1) {
            spec.kind = AggKind::kCount;
            XO_ASSIGN_OR_RETURN(spec.arg, binder.Bind(*e.children[0]));
          } else {
            return Status::InvalidArgument("COUNT takes one argument");
          }
        } else {
          if (e.children.size() != 1) {
            return Status::InvalidArgument(e.name + " takes one argument");
          }
          spec.kind = lower == "sum" ? AggKind::kSum
                      : lower == "min" ? AggKind::kMin
                                       : AggKind::kMax;
          XO_ASSIGN_OR_RETURN(spec.arg, binder.Bind(*e.children[0]));
        }
        spec.name = item_name(sel);
        TypeId out_type =
            (spec.kind == AggKind::kMin || spec.kind == AggKind::kMax) &&
                    spec.arg != nullptr
                ? spec.arg->type()
                : TypeId::kInteger;
        outputs.push_back({false, aggs.size(), spec.name, out_type});
        aggs.push_back(std::move(spec));
        continue;
      }
      // Non-aggregate select item must match a GROUP BY expression.
      std::string text = e.ToString();
      bool matched = false;
      for (size_t g = 0; g < group_names.size(); ++g) {
        if (EqualsIgnoreCase(group_names[g], text)) {
          outputs.push_back(
              {true, g, item_name(sel), group_keys[g]->type()});
          matched = true;
          break;
        }
      }
      if (!matched) {
        return Status::InvalidArgument(
            "select item '" + text +
            "' must be an aggregate or appear in GROUP BY");
      }
    }
    size_t n_groups = group_keys.size();
    plan = std::make_unique<AggregateOp>(std::move(plan),
                                         std::move(group_keys), group_names,
                                         std::move(aggs));
    // Final projection into select order.
    std::vector<ExprPtr> proj;
    std::vector<std::string> names;
    for (const OutputRef& o : outputs) {
      size_t idx = o.is_group_key ? o.index : n_groups + o.index;
      proj.push_back(ExprPtr(new ColumnRefExpr(idx, o.name, o.type)));
      names.push_back(o.name);
    }
    plan = std::make_unique<ProjectOp>(std::move(plan), std::move(proj),
                                       std::move(names));
  } else {
    // ---- Plain projection. -----------------------------------------------
    std::vector<ExprPtr> proj;
    std::vector<std::string> names;
    for (const sql::SelectItem& sel : stmt.items) {
      if (sel.expr->kind == AstExpr::Kind::kStar) {
        for (const FromItem& item : items) {
          for (size_t c = 0; c < item.columns.size(); ++c) {
            proj.push_back(ExprPtr(new ColumnRefExpr(
                item.offset + c, item.columns[c].name, item.columns[c].type)));
            names.push_back(item.columns[c].name);
          }
        }
        continue;
      }
      XO_ASSIGN_OR_RETURN(auto bound, binder.Bind(*sel.expr));
      names.push_back(item_name(sel));
      proj.push_back(std::move(bound));
    }
    plan = std::make_unique<ProjectOp>(std::move(plan), std::move(proj),
                                       std::move(names));
  }

  if (stmt.distinct) {
    plan = std::make_unique<DistinctOp>(std::move(plan));
  }

  // ---- ORDER BY over the projected output. --------------------------------
  if (!stmt.order_by.empty()) {
    std::vector<ExprPtr> keys;
    std::vector<bool> asc;
    for (const sql::OrderItem& o : stmt.order_by) {
      std::string text = o.expr->ToString();
      int found = -1;
      const auto& cols = plan->columns();
      for (size_t c = 0; c < cols.size(); ++c) {
        if (NameMatches(cols[c].name, text)) {
          found = static_cast<int>(c);
          break;
        }
      }
      if (found < 0) {
        return Status::InvalidArgument(
            "ORDER BY expression '" + text +
            "' must reference a select-list column");
      }
      keys.push_back(ExprPtr(new ColumnRefExpr(
          static_cast<size_t>(found), plan->columns()[found].name,
          plan->columns()[found].type)));
      asc.push_back(o.ascending);
    }
    plan = std::make_unique<SortOp>(std::move(plan), std::move(keys),
                                    std::move(asc));
  }
  return plan;
}

Result<ExprPtr> Planner::BindPredicate(const AstExpr& predicate,
                                       const TableInfo& table) const {
  const std::vector<FromItem> items = {
      {.table = &table,
       .alias = table.name,
       .columns = QualifiedColumns(table.schema.columns, table.name)}};
  Scope scope(&items);
  return Binder(&scope, functions_).Bind(predicate);
}

}  // namespace xorator::ordb
