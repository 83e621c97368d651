#include "ordb/planner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>

#include "common/str_util.h"

namespace xorator::ordb {

namespace {

using sql::AstExpr;

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
  uint64_t items = 0;  // bit i: references FROM item i
  std::vector<size_t> columns;
  bool consumed = false;
};

uint64_t Bit(size_t item) { return uint64_t{1} << item; }

void FlattenConjuncts(const AstExpr& e, std::vector<const AstExpr*>* out) {
  if (e.kind == AstExpr::Kind::kAnd) {
    FlattenConjuncts(*e.children[0], out);
    FlattenConjuncts(*e.children[1], out);
    return;
  }
  out->push_back(&e);
}

/// The WHERE conjuncts of `where` (may be null), classified by the FROM
/// items of `scope` they reference.
Result<std::vector<Conjunct>> ClassifyConjuncts(const AstExpr* where,
                                                const Scope& scope) {
  std::vector<Conjunct> conjuncts;
  if (where == nullptr) return conjuncts;
  std::vector<const AstExpr*> flat;
  FlattenConjuncts(*where, &flat);
  for (const AstExpr* e : flat) {
    Conjunct c;
    c.ast = e;
    std::vector<Scope::Resolution> cols;
    XO_RETURN_NOT_OK(ResolveColumns(*e, scope, &cols));
    for (const Scope::Resolution& res : cols) {
      c.items |= Bit(res.item);
      c.columns.push_back(res.global_index);
    }
    conjuncts.push_back(std::move(c));
  }
  return conjuncts;
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

/// The filters pushed down to FROM item `i`: not yet consumed conjuncts
/// that reference `i` alone.
std::vector<Conjunct*> BaseFilters(std::vector<Conjunct>& conjuncts,
                                   size_t i) {
  std::vector<Conjunct*> out;
  for (Conjunct& c : conjuncts) {
    if (!c.consumed && c.items == Bit(i)) out.push_back(&c);
  }
  return out;
}

/// The index scan a base table is read through: its `col = literal`
/// filter on an indexed column, the most selective one when several
/// columns are indexed. `index` is null when no filter has an index.
struct IndexChoice {
  Conjunct* filter = nullptr;
  const IndexInfo* index = nullptr;
  const Value* key = nullptr;
  double selectivity = 0;
};

IndexChoice ChooseIndexScan(const std::vector<FromItem>& items, size_t i,
                            std::vector<Conjunct>& conjuncts,
                            const Scope& scope) {
  IndexChoice choice;
  const TableInfo* table = items[i].table;
  for (Conjunct* c : BaseFilters(conjuncts, i)) {
    const AstExpr* col;
    const Value* literal;
    if (!MatchColumnEqLiteral(*c->ast, &col, &literal)) continue;
    // The filter's one column, at its place in the combined layout.
    const IndexInfo* idx = table->FindIndex(c->columns[0] - items[i].offset);
    if (idx == nullptr) continue;
    double selectivity = EstimateSelectivity(*c->ast, *table, scope);
    if (choice.index == nullptr || selectivity < choice.selectivity) {
      choice = {c, idx, literal, selectivity};
    }
  }
  return choice;
}

/// Estimated rows of FROM item `i` after its pushed-down filters.
double EstimateItemRows(const std::vector<FromItem>& items, size_t i,
                        std::vector<Conjunct>& conjuncts, const Scope& scope) {
  if (items[i].table == nullptr) return 4.0;  // a handful of rows per call
  double rows = static_cast<double>(items[i].table->heap->record_count());
  for (Conjunct* c : BaseFilters(conjuncts, i)) {
    rows *= EstimateSelectivity(*c->ast, *items[i].table, scope);
  }
  return std::max(rows, 1.0);
}

double BytesPerRow(const FromItem& item) {
  if (item.table == nullptr || item.table->heap->record_count() == 0) {
    return 64;
  }
  return static_cast<double>(item.table->heap->bytes()) /
         static_cast<double>(item.table->heap->record_count());
}

// ---- Join order and algorithm by cost (DESIGN.md section 21). ------------
//
// Costs are in rows decoded by a sequential scan. The weights were measured
// on this engine (Release, GCC 12, 4-CPU x86-64 host) by timing each join
// algorithm on the Hybrid Shakespeare tables against a SeqScan of the same
// tables; DESIGN.md section 21 has the numbers.

/// One B+-tree descent (an index scan's or an index join's probe).
constexpr double kIndexProbeCost = 1.5;
/// One record fetched by rid through the buffer pool and decoded.
constexpr double kHeapFetchCost = 1.0;
/// One row copied into an operator's memory (a hash-join build row, a
/// sort-merge input row).
constexpr double kMaterializeCost = 0.6;
/// One hash-join probe row looked up.
constexpr double kHashProbeCost = 0.3;
/// One key comparison while sorting.
constexpr double kSortCompareCost = 0.05;
/// One row a join or a lateral emits: both sides copied into it.
constexpr double kJoinRowCost = 1.3;
/// One (outer, inner) pair a nested-loop join tests.
constexpr double kPairCost = 0.1;
/// One call of a lateral table function.
constexpr double kTableCallCost = 4.0;
/// The subset search runs up to this many FROM items; a longer FROM list
/// is extended greedily, by the first linked item in written order, with
/// each join still chosen by cost.
constexpr size_t kMaxSearchItems = 12;
/// Filter factor of a conjunct that is not an equi-join key.
constexpr double kResidualSelectivity = 0.3;

enum class JoinAlgo {
  kNone,
  kScan,  // the first item
  kLateral,
  kNestedLoop,
  kIndexNL,
  kHash,
  kSortMerge,
};

const char* AlgoName(JoinAlgo algo) {
  switch (algo) {
    case JoinAlgo::kIndexNL:
      return "index-nl";
    case JoinAlgo::kHash:
      return "hash";
    case JoinAlgo::kSortMerge:
      return "sort-merge";
    default:
      return "nested-loop";
  }
}

Operator::Estimate Rows(double rows) { return {.rows = rows}; }

/// The cheapest plan found for a set of FROM items, described by its last
/// step: the item joined last, how, and what the plan then produces.
struct SubPlan {
  size_t last = 0;  // written FROM position
  JoinAlgo algo = JoinAlgo::kNone;
  double join_rows = 0;  // out of the last join, before the filters above it
  double rows = 0;       // out of the filters above the last join
  double bytes_per_row = 0;
  double cost = std::numeric_limits<double>::infinity();
  // The cheapest algorithm rejected for the last join (kNone: no other).
  JoinAlgo rejected = JoinAlgo::kNone;
  double rejected_cost = 0;
};

/// System R's search (Selinger et al., SIGMOD 1979) over left-deep orders:
/// the cheapest plan of every subset of the FROM items, each built from
/// the cheapest plan of the subset without its last item.
class JoinSearch {
 public:
  JoinSearch(const std::vector<FromItem>& items,
             const std::vector<const sql::TableRef*>& refs,
             const PlannerOptions& options)
      : items_(items), refs_(refs), options_(options), scope_(&items) {}

  /// The chosen order, one step per FROM item. Fails on a name that does
  /// not resolve and on a table-function argument naming a FROM item
  /// written at or after the function.
  Result<std::vector<SubPlan>> Run(const AstExpr* where);

  /// The WHERE conjuncts, classified against the items as written.
  std::vector<Conjunct>& conjuncts() { return conjuncts_; }

 private:
  Status Prepare(const AstExpr* where);
  /// `from` (the plan of `mask`, null when empty) extended by item `i`.
  SubPlan Extend(const SubPlan* from, uint64_t mask, size_t i) const;
  /// True when `i` may follow `mask`: `mask` holds every item `i` must
  /// follow, and not `i`.
  bool Allowed(uint64_t mask, size_t i) const {
    return (mask & Bit(i)) == 0 && (needs_[i] & ~mask) == 0;
  }
  /// True when a conjunct, or a lateral's arguments, tie `i` to `mask`.
  bool Linked(uint64_t mask, size_t i) const;
  /// Distinct values of column `column` of `item`, the item's `rows_`
  /// without statistics.
  double Ndv(size_t item, size_t column) const;
  /// True when `a` is the better plan for a set of items than `b`: cheaper,
  /// or as cheap and ending at a later-sorting alias.
  bool Better(const SubPlan& a, const SubPlan& b) const {
    if (a.cost != b.cost) return a.cost < b.cost;
    return items_[a.last].alias > items_[b.last].alias;
  }

  const std::vector<FromItem>& items_;
  const std::vector<const sql::TableRef*>& refs_;
  const PlannerOptions& options_;
  Scope scope_;
  /// A conjunct naming several items, as the search sees it.
  struct Edge {
    uint64_t items;
    double selectivity;  // its filter factor, once its items are joined
    bool key;            // `a.x = b.y`, usable as a join key
    // A key's two items, and for each the rows an index probe on its
    // column fetches (< 0: the column has no index).
    size_t item[2];
    double fanout[2];
  };
  std::vector<Conjunct> conjuncts_;
  std::vector<Edge> edges_;
  std::vector<double> rows_;         // per item, after its filters
  std::vector<double> scan_cost_;    // per item
  std::vector<uint64_t> needs_;      // per item: items it must follow
};

Status JoinSearch::Prepare(const AstExpr* where) {
  const size_t n = items_.size();
  XO_ASSIGN_OR_RETURN(conjuncts_, ClassifyConjuncts(where, scope_));
  rows_.resize(n);
  scan_cost_.resize(n);
  needs_.assign(n, 0);
  uint64_t laterals = 0;
  for (size_t i = 0; i < n; ++i) {
    rows_[i] = EstimateItemRows(items_, i, conjuncts_, scope_);
    if (items_[i].function != nullptr) {
      // A lateral follows the items its arguments name, and the laterals
      // written before it: with no estimate of a table function's rows,
      // the written order is the only evidence for which to call first.
      for (const auto& a : refs_[i]->function_args) {
        std::vector<Scope::Resolution> cols;
        XO_RETURN_NOT_OK(ResolveColumns(*a, scope_, &cols));
        for (const Scope::Resolution& res : cols) {
          if (res.item >= i) {
            return Status::InvalidArgument(
                "table function argument references a later FROM item");
          }
          needs_[i] |= Bit(res.item);
        }
      }
      needs_[i] |= laterals;
      laterals |= Bit(i);
      continue;
    }
    const double table_rows =
        static_cast<double>(items_[i].table->heap->record_count());
    IndexChoice index = ChooseIndexScan(items_, i, conjuncts_, scope_);
    scan_cost_[i] = index.index == nullptr
                        ? table_rows
                        : kIndexProbeCost + table_rows * index.selectivity *
                                                kHeapFetchCost;
  }
  for (const Conjunct& c : conjuncts_) {
    if (std::popcount(c.items) < 2) continue;
    Edge edge{c.items, kResidualSelectivity, false, {0, 0}, {-1, -1}};
    if (std::popcount(c.items) == 2 && MatchEquiJoin(*c.ast)) {
      edge.key = true;
      double ndv = 1;
      for (size_t side = 0; side < 2; ++side) {
        // The side's layout column (ResolveColumns' order) and its item.
        const size_t column = c.columns[side];
        size_t item = 0;
        while (column >= items_[item].offset + items_[item].columns.size()) {
          ++item;
        }
        const size_t own = column - items_[item].offset;
        edge.item[side] = item;
        ndv = std::max(ndv, Ndv(item, own));
        const TableInfo* t = items_[item].table;
        if (t != nullptr && t->FindIndex(own) != nullptr) {
          edge.fanout[side] =
              std::max(1.0, static_cast<double>(t->heap->record_count()) /
                                Ndv(item, own));
        }
      }
      // |R >< S| = |R| |S| / max(ndv(R.a), ndv(S.b)).
      edge.selectivity = 1.0 / ndv;
    }
    edges_.push_back(edge);
  }
  return Status::OK();
}

double JoinSearch::Ndv(size_t item, size_t column) const {
  const TableInfo* t = items_[item].table;
  if (t != nullptr && t->stats.collected && t->stats.columns[column].ndv > 0) {
    return t->stats.columns[column].ndv;
  }
  return rows_[item];
}

bool JoinSearch::Linked(uint64_t mask, size_t i) const {
  if ((needs_[i] & mask) != 0) return true;
  const uint64_t with_i = mask | Bit(i);
  return std::any_of(edges_.begin(), edges_.end(), [&](const Edge& e) {
    return (e.items & Bit(i)) && (e.items & ~with_i) == 0;
  });
}

SubPlan JoinSearch::Extend(const SubPlan* from, uint64_t mask,
                           size_t i) const {
  const FromItem& item = items_[i];
  SubPlan out;
  out.last = i;
  if (from == nullptr) {
    out.algo = item.function != nullptr ? JoinAlgo::kLateral : JoinAlgo::kScan;
    out.join_rows = out.rows = rows_[i];
    out.bytes_per_row = BytesPerRow(item);
    out.cost = item.function != nullptr ? kTableCallCost : scan_cost_[i];
    return out;
  }
  // The conjuncts joining `i` makes complete: equi-join keys (unless `i`
  // is a lateral, which joins nothing), and filters applied above.
  const uint64_t with_i = mask | Bit(i);
  bool keyed = false;
  double key_selectivity = 1;
  double filter_selectivity = 1;
  double probe_fanout = -1;  // < 0: no key column of `i` is indexed
  for (const Edge& e : edges_) {
    if (!(e.items & Bit(i)) || (e.items & ~with_i) != 0) continue;
    if (item.function != nullptr || !e.key) {
      filter_selectivity *= e.selectivity;
      continue;
    }
    keyed = true;
    key_selectivity *= e.selectivity;
    // The first key whose column on `i`'s side is indexed is the probe.
    const double fanout = e.fanout[e.item[0] == i ? 0 : 1];
    if (probe_fanout < 0) probe_fanout = fanout;
  }
  out.bytes_per_row = from->bytes_per_row + BytesPerRow(item);
  if (item.function != nullptr) {
    out.algo = JoinAlgo::kLateral;
    out.join_rows = std::max(1.0, from->rows * rows_[i]);
    out.rows = std::max(1.0, out.join_rows * filter_selectivity);
    out.cost = from->cost + from->rows * kTableCallCost +
               out.join_rows * kJoinRowCost;
    return out;
  }
  if (!keyed) {
    // A cross product; the complete conjuncts are its residual.
    out.algo = JoinAlgo::kNestedLoop;
    out.join_rows = out.rows =
        std::max(1.0, from->rows * rows_[i] * filter_selectivity);
    out.cost = from->cost + scan_cost_[i] +
               from->rows * rows_[i] * kPairCost + out.join_rows * kJoinRowCost;
    return out;
  }
  out.join_rows = std::max(1.0, from->rows * rows_[i] * key_selectivity);
  out.rows = std::max(1.0, out.join_rows * filter_selectivity);
  // Each candidate's cost beyond `from` and the joined rows; of equal
  // costs the first listed wins.
  struct Candidate {
    JoinAlgo algo;
    double cost;
  };
  Candidate candidates[3];
  size_t count = 0;
  if (options_.enable_index_join && probe_fanout >= 0) {
    candidates[count++] = {
        JoinAlgo::kIndexNL,
        from->rows * (kIndexProbeCost + probe_fanout * kHeapFetchCost)};
  }
  if (options_.enable_hash_join &&
      from->rows * from->bytes_per_row <=
          static_cast<double>(options_.sort_heap_bytes)) {
    candidates[count++] = {JoinAlgo::kHash,
                           scan_cost_[i] + from->rows * kMaterializeCost +
                               rows_[i] * kHashProbeCost};
  }
  auto sort_cost = [](double rows) {
    return rows * kMaterializeCost +
           rows * std::log2(std::max(rows, 2.0)) * kSortCompareCost;
  };
  candidates[count++] = {JoinAlgo::kSortMerge, scan_cost_[i] +
                                                   sort_cost(from->rows) +
                                                   sort_cost(rows_[i])};
  const double base = from->cost + out.join_rows * kJoinRowCost;
  for (size_t k = 0; k < count; ++k) {
    const double cost = base + candidates[k].cost;
    if (out.algo == JoinAlgo::kNone || cost < out.cost) {
      out.rejected = out.algo;
      out.rejected_cost = out.cost;
      out.algo = candidates[k].algo;
      out.cost = cost;
    } else if (out.rejected == JoinAlgo::kNone || cost < out.rejected_cost) {
      out.rejected = candidates[k].algo;
      out.rejected_cost = cost;
    }
  }
  return out;
}

Result<std::vector<SubPlan>> JoinSearch::Run(const AstExpr* where) {
  const size_t n = items_.size();
  if (n > 64) return Status::InvalidArgument("more than 64 FROM items");
  XO_RETURN_NOT_OK(Prepare(where));
  // The items that may extend `mask`, as a bit set: those a conjunct or an
  // argument ties to it, else (a cross product) every item that may follow.
  auto next_items = [&](uint64_t mask) {
    uint64_t linked = 0;
    uint64_t allowed = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!Allowed(mask, i)) continue;
      allowed |= Bit(i);
      if (mask != 0 && Linked(mask, i)) linked |= Bit(i);
    }
    return linked != 0 ? linked : allowed;
  };
  std::vector<SubPlan> steps;
  if (n > kMaxSearchItems) {
    // Greedy in written order: the first item that may come next.
    uint64_t mask = 0;
    for (size_t k = 0; k < n; ++k) {
      const size_t i = std::countr_zero(next_items(mask));
      steps.push_back(Extend(steps.empty() ? nullptr : &steps.back(), mask, i));
      mask |= Bit(i);
    }
    return steps;
  }
  const uint64_t full = Bit(n) - 1;
  std::vector<SubPlan> best(full + 1);
  // Every subset is complete before any superset of it is extended.
  for (uint64_t mask = 0; mask < full; ++mask) {
    const SubPlan* from = mask == 0 ? nullptr : &best[mask];
    if (from != nullptr && from->algo == JoinAlgo::kNone) continue;
    for (uint64_t next = next_items(mask); next != 0; next &= next - 1) {
      const size_t i = std::countr_zero(next);
      SubPlan candidate = Extend(from, mask, i);
      SubPlan& slot = best[mask | Bit(i)];
      if (slot.algo == JoinAlgo::kNone || Better(candidate, slot)) {
        slot = candidate;
      }
    }
  }
  for (uint64_t mask = full; mask != 0;
       mask &= ~Bit(steps.back().last)) {
    steps.push_back(best[mask]);
  }
  std::reverse(steps.begin(), steps.end());
  return steps;
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

Result<OperatorPtr> Planner::PlanSelect(const sql::SelectStmt& stmt,
                                        double* cost) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM clause is required");
  }

  // ---- Join order by cost. ------------------------------------------------
  // The search sees the items as written; the plan is then built over them
  // in the chosen order, the combined row layout included.
  XO_ASSIGN_OR_RETURN(std::vector<FromItem> written, BindFrom(stmt));
  std::vector<const sql::TableRef*> refs;
  for (const sql::TableRef& ref : stmt.from) refs.push_back(&ref);
  JoinSearch search(written, refs, options_);
  XO_ASSIGN_OR_RETURN(std::vector<SubPlan> steps,
                      search.Run(stmt.where.get()));
  if (cost != nullptr) *cost = steps.back().cost;
  std::vector<FromItem> items;
  std::vector<size_t> position(written.size());  // by written position
  size_t width = 0;
  for (size_t p = 0; p < steps.size(); ++p) {
    const size_t w = steps[p].last;
    position[w] = p;
    refs[p] = &stmt.from[w];
    items.push_back(std::move(written[w]));
    items.back().offset = width;
    width += items.back().columns.size();
  }
  Scope scope(&items);
  Binder binder(&scope, functions_);

  // ---- WHERE conjuncts, moved to the chosen order. ------------------------
  // A layout column keeps its place within its item.
  std::vector<size_t> new_column;  // by written layout column
  for (size_t w = 0; w < written.size(); ++w) {
    const FromItem& item = items[position[w]];
    for (size_t c = 0; c < item.columns.size(); ++c) {
      new_column.push_back(item.offset + c);
    }
  }
  std::vector<Conjunct> conjuncts = std::move(search.conjuncts());
  for (Conjunct& c : conjuncts) {
    const uint64_t written_items = c.items;
    c.items = 0;
    for (size_t w = 0; w < written.size(); ++w) {
      if (written_items & Bit(w)) c.items |= Bit(position[w]);
    }
    for (size_t& column : c.columns) column = new_column[column];
  }

  // ---- Column liveness. ---------------------------------------------------
  // Records, per column of the combined layout, the latest plan stage that
  // reads it. Stage 2i is the lateral at position i evaluating its
  // arguments; stage 2i+1 is everything applied once position i is joined
  // (join keys, residuals, filters: a conjunct runs at its last position);
  // the select list and GROUP BY read at the top. Scans and the index
  // join's inner side materialize the columns read at any stage; a lateral
  // at position i copies only the columns read after stage 2i. Row layouts
  // keep their width, so no expression is rebound. An expression naming an
  // unknown column is skipped here; Bind reports it below.
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
      mark_column(column, 2 * static_cast<int>(std::bit_width(c.items)) - 1);
    }
  }
  for (size_t i = 0; i < items.size(); ++i) {
    for (const auto& a : refs[i]->function_args) {
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
  auto build_base = [&](size_t i) -> Result<OperatorPtr> {
    const FromItem& item = items[i];
    std::vector<Conjunct*> filters = BaseFilters(conjuncts, i);
    IndexChoice index = ChooseIndexScan(items, i, conjuncts, scope);
    const double table_rows =
        static_cast<double>(item.table->heap->record_count());
    OperatorPtr op;
    double rows = table_rows;
    if (index.index != nullptr) {
      op = std::make_unique<IndexScanOp>(item.table, index.index, *index.key,
                                         item.alias, scan_live(i));
      index.filter->consumed = true;
      rows *= index.selectivity;
    } else {
      op = std::make_unique<SeqScanOp>(item.table, item.alias, scan_live(i));
    }
    op->set_estimate(Rows(rows));
    // Remaining pushed filters. They are bound against the item's local
    // layout (shift by the item's offset).
    for (Conjunct* c : filters) {
      if (c->consumed) continue;
      XO_ASSIGN_OR_RETURN(auto pred, binder.Bind(*c->ast, item.offset));
      op = std::make_unique<FilterOp>(std::move(op), std::move(pred));
      rows *= EstimateSelectivity(*c->ast, *item.table, scope);
      op->set_estimate(Rows(rows));
      c->consumed = true;
    }
    return op;
  };

  // ---- Left-deep join in the chosen order. --------------------------------
  uint64_t joined = 0;
  // True once every item `c` references is joined or is item `i`.
  auto bound_with = [&](const Conjunct& c, size_t i) {
    return (c.items & ~(joined | Bit(i))) == 0;
  };
  OperatorPtr plan;
  for (size_t i = 0; i < items.size(); ++i) {
    const FromItem& item = items[i];
    const SubPlan& step = steps[i];
    if (item.function != nullptr) {
      // Lateral table function: arguments bound against the accumulated
      // layout (the search placed every item they name before it).
      std::vector<ExprPtr> args;
      for (const auto& a : refs[i]->function_args) {
        XO_ASSIGN_OR_RETURN(auto bound, binder.Bind(*a));
        args.push_back(std::move(bound));
      }
      plan = std::make_unique<LateralTableFuncOp>(
          std::move(plan), item.function, std::move(args), item.alias,
          live_after(0, item.offset + item.columns.size(),
                     static_cast<int>(2 * i)));
      plan->set_estimate(Rows(step.join_rows));
      // Fall through to apply any now-complete conjuncts below.
    } else if (plan == nullptr) {
      XO_ASSIGN_OR_RETURN(plan, build_base(i));
    } else {
      // Find equi-join conjuncts linking the accumulated set to item i.
      struct JoinKey {
        const AstExpr* acc_side;
        const AstExpr* item_side;
        Conjunct* conjunct;
      };
      std::vector<JoinKey> keys;
      for (Conjunct& c : conjuncts) {
        if (c.consumed || !(c.items & Bit(i))) continue;
        if (std::popcount(c.items) != 2) continue;
        if (!(c.items & joined)) continue;
        if (!MatchEquiJoin(*c.ast)) continue;
        XO_ASSIGN_OR_RETURN(auto res0,
                            scope.Resolve(c.ast->children[0]->name));
        const AstExpr* acc_side = c.ast->children[0].get();
        const AstExpr* item_side = c.ast->children[1].get();
        if (res0.item == i) std::swap(acc_side, item_side);
        keys.push_back({acc_side, item_side, &c});
      }
      if (step.algo == JoinAlgo::kNestedLoop) {
        XO_ASSIGN_OR_RETURN(OperatorPtr right, build_base(i));
        // Cross product with any applicable predicate as residual.
        ExprPtr residual;
        for (Conjunct& c : conjuncts) {
          if (c.consumed || !(c.items & Bit(i)) || !bound_with(c, i)) {
            continue;
          }
          XO_ASSIGN_OR_RETURN(auto pred, binder.Bind(*c.ast));
          AndInto(&residual, std::move(pred));
          c.consumed = true;
        }
        plan = std::make_unique<NestedLoopJoinOp>(
            std::move(plan), std::move(right), std::move(residual));
      } else if (step.algo == JoinAlgo::kIndexNL) {
        // The probe is the first key whose column on i's side is indexed,
        // as the search costed it.
        auto indexed = [&](const JoinKey& k) -> const IndexInfo* {
          auto res = scope.Resolve(k.item_side->name);
          return res.ok() && res->item == i
                     ? items[i].table->FindIndex(res->column)
                     : nullptr;
        };
        auto probe = std::find_if(keys.begin(), keys.end(), [&](
            const JoinKey& k) { return indexed(k) != nullptr; });
        if (probe == keys.end()) {
          return Status::Internal("index join without an indexed key");
        }
        // Residual: the remaining join keys (bound to the combined layout).
        ExprPtr residual;
        for (JoinKey& other : keys) {
          other.conjunct->consumed = true;
          if (&other == &*probe) continue;
          XO_ASSIGN_OR_RETURN(auto pred, binder.Bind(*other.conjunct->ast));
          AndInto(&residual, std::move(pred));
        }
        XO_ASSIGN_OR_RETURN(auto outer_key, binder.Bind(*probe->acc_side));
        // The inner side's pushed filters become part of the residual (the
        // index join reads the base table directly).
        for (Conjunct* c : BaseFilters(conjuncts, i)) {
          XO_ASSIGN_OR_RETURN(auto pred, binder.Bind(*c->ast));
          AndInto(&residual, std::move(pred));
          c->consumed = true;
        }
        plan = std::make_unique<IndexNestedLoopJoinOp>(
            std::move(plan), items[i].table, indexed(*probe),
            std::move(outer_key), item.alias, std::move(residual),
            scan_live(i));
      } else {
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
        if (step.algo == JoinAlgo::kHash) {
          plan = std::make_unique<HashJoinOp>(
              std::move(plan), std::move(right), std::move(left_keys),
              std::move(right_keys));
        } else {
          plan = std::make_unique<SortMergeJoinOp>(
              std::move(plan), std::move(right), std::move(left_keys),
              std::move(right_keys));
        }
      }
      plan->set_estimate(
          {.rows = step.join_rows,
           .cost = step.cost,
           .rejected = step.rejected == JoinAlgo::kNone
                           ? nullptr
                           : AlgoName(step.rejected),
           .rejected_cost = step.rejected_cost});
    }
    joined |= Bit(i);
    // Apply any conjuncts that have just become fully bound.
    double rows = step.join_rows;
    for (Conjunct& c : conjuncts) {
      if (c.consumed || !bound_with(c, i)) continue;
      XO_ASSIGN_OR_RETURN(auto pred, binder.Bind(*c.ast));
      plan = std::make_unique<FilterOp>(std::move(plan), std::move(pred));
      rows = std::max(1.0, rows * kResidualSelectivity);
      plan->set_estimate(Rows(rows));
      c.consumed = true;
    }
  }
  const double joined_rows = steps.back().rows;

  // ---- Aggregation. -------------------------------------------------------
  bool has_aggregate = !stmt.group_by.empty();
  for (const sql::SelectItem& item : stmt.items) {
    if (ContainsAggregate(*item.expr)) has_aggregate = true;
  }

  auto item_name = [](const sql::SelectItem& item) {
    return item.alias.empty() ? item.expr->ToString() : item.alias;
  };

  double output_rows = joined_rows;
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
    // At most one group per input row; one row without GROUP BY.
    output_rows = n_groups == 0 ? 1 : joined_rows;
    plan->set_estimate(Rows(output_rows));
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
    plan->set_estimate(Rows(output_rows));
  } else {
    // ---- Plain projection. -----------------------------------------------
    std::vector<ExprPtr> proj;
    std::vector<std::string> names;
    for (const sql::SelectItem& sel : stmt.items) {
      if (sel.expr->kind == AstExpr::Kind::kStar) {
        // In written order, whatever order the items were joined in.
        for (size_t p : position) {
          const FromItem& item = items[p];
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
    plan->set_estimate(Rows(output_rows));
  }

  if (stmt.distinct) {
    plan = std::make_unique<DistinctOp>(std::move(plan));
    plan->set_estimate(Rows(output_rows));
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
    plan->set_estimate(Rows(output_rows));
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
