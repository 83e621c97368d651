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

bool IsAggregate(const AstExpr& e) {
  if (e.kind != AstExpr::Kind::kFunc) return false;
  std::string lower = ToLower(e.name);
  return lower == "count" || lower == "sum" || lower == "min" ||
         lower == "max";
}

bool ContainsAggregate(const AstExpr& e) {
  if (IsAggregate(e)) return true;
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

/// The column nodes of one statement, each resolved once against its FROM
/// items as written (DESIGN.md section 19).
class Columns {
 public:
  explicit Columns(const Scope& scope) : scope_(scope) {}

  /// Resolves every column `e` names, in order, appending each to `out`
  /// when given; fails at the first name that does not resolve.
  Status Resolve(const AstExpr& e,
                 std::vector<Scope::Resolution>* out = nullptr) {
    if (e.kind == AstExpr::Kind::kColumn) {
      XO_ASSIGN_OR_RETURN(Scope::Resolution res, scope_.Resolve(e.name));
      resolved_.emplace_back(&e, res);
      if (out != nullptr) out->push_back(res);
    }
    for (const auto& c : e.children) XO_RETURN_NOT_OK(Resolve(*c, out));
    return Status::OK();
  }

  /// The resolution of column node `e`; null if it did not resolve.
  const Scope::Resolution* Find(const AstExpr& e) const {
    for (const auto& [node, res] : resolved_) {
      if (node == &e) return &res;
    }
    return nullptr;
  }

 private:
  const Scope& scope_;
  std::vector<std::pair<const AstExpr*, Scope::Resolution>> resolved_;
};

/// The place of column `res` in the combined row layout.
size_t LayoutIndex(const std::vector<FromItem>& items,
                   const Scope::Resolution& res) {
  return items[res.item].offset + res.column;
}

Status UnknownColumn(std::string_view name) {
  return Status::NotFound("unknown column '" + std::string(name) + "'");
}

Status AmbiguousColumn(std::string_view name) {
  return Status::InvalidArgument("ambiguous column '" + std::string(name) +
                                 "'");
}

/// Binds AST expressions to executable expressions: a column at its place
/// in the combined layout, or in its own item's layout when bound local.
class Binder {
 public:
  Binder(const std::vector<FromItem>* items, const Columns* columns,
         const FunctionRegistry* functions)
      : items_(items), columns_(columns), functions_(functions) {}

  Result<ExprPtr> Bind(const AstExpr& e, bool local = false) const {
    switch (e.kind) {
      case AstExpr::Kind::kColumn: {
        const Scope::Resolution* res = columns_->Find(e);
        if (res == nullptr) {
          return Status::Internal("unresolved column '" + e.name + "'");
        }
        const size_t index = local ? res->column : LayoutIndex(*items_, *res);
        return ExprPtr(
            new ColumnRefExpr(index, std::string(res->qualified), res->type));
      }
      case AstExpr::Kind::kLiteral:
        return ExprPtr(new LiteralExpr(e.literal));
      case AstExpr::Kind::kStar:
        return Status::InvalidArgument("'*' is only valid in COUNT(*)");
      case AstExpr::Kind::kCompare: {
        XO_ASSIGN_OR_RETURN(auto l, Bind(*e.children[0], local));
        XO_ASSIGN_OR_RETURN(auto r, Bind(*e.children[1], local));
        return ExprPtr(new CompareExpr(e.op, std::move(l), std::move(r)));
      }
      case AstExpr::Kind::kAnd:
      case AstExpr::Kind::kOr: {
        XO_ASSIGN_OR_RETURN(auto l, Bind(*e.children[0], local));
        XO_ASSIGN_OR_RETURN(auto r, Bind(*e.children[1], local));
        return ExprPtr(new LogicExpr(e.kind == AstExpr::Kind::kAnd
                                         ? LogicExpr::Kind::kAnd
                                         : LogicExpr::Kind::kOr,
                                     std::move(l), std::move(r)));
      }
      case AstExpr::Kind::kNot: {
        XO_ASSIGN_OR_RETURN(auto c, Bind(*e.children[0], local));
        return ExprPtr(
            new LogicExpr(LogicExpr::Kind::kNot, std::move(c), nullptr));
      }
      case AstExpr::Kind::kLike: {
        XO_ASSIGN_OR_RETURN(auto c, Bind(*e.children[0], local));
        return ExprPtr(new LikeExpr(std::move(c), e.pattern));
      }
      case AstExpr::Kind::kIsNull: {
        XO_ASSIGN_OR_RETURN(auto c, Bind(*e.children[0], local));
        return ExprPtr(new IsNullExpr(std::move(c), e.negated));
      }
      case AstExpr::Kind::kFunc: {
        const ScalarFunction* fn = functions_->FindScalar(e.name);
        if (fn == nullptr) {
          return Status::NotFound("unknown function '" + e.name + "'");
        }
        std::vector<ExprPtr> args;
        for (const auto& a : e.children) {
          XO_ASSIGN_OR_RETURN(auto bound, Bind(*a, local));
          args.push_back(std::move(bound));
        }
        return ExprPtr(new FunctionExpr(fn, std::move(args)));
      }
    }
    return Status::Internal("unhandled AST node");
  }

 private:
  const std::vector<FromItem>* items_;
  const Columns* columns_;
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

/// A WHERE conjunct with the FROM items and columns it references.
struct Conjunct {
  const AstExpr* ast;
  uint64_t items = 0;  // bit i: references FROM item i as written
  std::vector<Scope::Resolution> columns;  // in the order `ast` names them
  double selectivity = 0;  // a base table filter's, once estimated
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

/// The WHERE conjuncts of `where` (may be null), their columns resolved.
Result<std::vector<Conjunct>> ClassifyConjuncts(const AstExpr* where,
                                                Columns* columns) {
  std::vector<Conjunct> conjuncts;
  if (where == nullptr) return conjuncts;
  std::vector<const AstExpr*> flat;
  FlattenConjuncts(*where, &flat);
  for (const AstExpr* e : flat) {
    Conjunct c;
    c.ast = e;
    XO_RETURN_NOT_OK(columns->Resolve(*e, &c.columns));
    for (const Scope::Resolution& res : c.columns) c.items |= Bit(res.item);
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
                           const Columns& columns) {
  switch (e.kind) {
    case AstExpr::Kind::kCompare: {
      if (e.op != CompareOp::kEq) return 0.3;
      // col = literal: the literal's share of rows when stats exist.
      const AstExpr* col;
      const Value* literal;
      if (MatchColumnEqLiteral(e, &col, &literal) && table.stats.collected) {
        // A pushed-down filter names only `table`'s own columns.
        const ColumnStats& stats =
            table.stats.columns[columns.Find(*col)->column];
        if (stats.ndv > 0) {
          return stats.EqFraction(literal->Hash(), table.stats.row_count);
        }
      }
      return 0.05;
    }
    case AstExpr::Kind::kLike:
      return 0.25;
    case AstExpr::Kind::kAnd:
      return EstimateSelectivity(*e.children[0], table, columns) *
             EstimateSelectivity(*e.children[1], table, columns);
    case AstExpr::Kind::kOr:
      return std::min(1.0,
                      EstimateSelectivity(*e.children[0], table, columns) +
                          EstimateSelectivity(*e.children[1], table, columns));
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
};

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
/// One record fetched by rid through the buffer pool and decoded: a bit
/// more than a scanned row, though both pay one Fetch/Unpin pair (and its
/// bucket latch) per row: the sequential scanner re-fetches its page for
/// every record it returns.
constexpr double kHeapFetchCost = 1.05;
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
  /// `needs[i]`: the items whose columns lateral `i`'s arguments name.
  JoinSearch(const std::vector<FromItem>& items,
             std::vector<Conjunct>* conjuncts, std::vector<uint64_t> needs,
             const PlannerOptions& options)
      : items_(items),
        conjuncts_(*conjuncts),
        options_(options),
        needs_(std::move(needs)) {}

  /// The chosen order, one step per FROM item. Sets the selectivity of
  /// every base table filter.
  std::vector<SubPlan> Run(const Columns& columns);

  /// The index scan of table item `i`.
  const IndexChoice& index(size_t i) const { return index_[i]; }

 private:
  void Prepare(const Columns& columns);
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
  std::vector<Conjunct>& conjuncts_;
  const PlannerOptions& options_;
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
  std::vector<Edge> edges_;
  std::vector<double> rows_;         // per item, after its filters
  std::vector<double> scan_cost_;    // per item
  std::vector<IndexChoice> index_;   // per table item
  std::vector<uint64_t> needs_;      // per item: items it must follow
};

void JoinSearch::Prepare(const Columns& columns) {
  const size_t n = items_.size();
  rows_.resize(n);
  scan_cost_.resize(n);
  index_.resize(n);
  uint64_t laterals = 0;
  for (size_t i = 0; i < n; ++i) {
    const TableInfo* table = items_[i].table;
    if (table == nullptr) {
      rows_[i] = 4.0;  // a handful of rows per call
      // A lateral follows the items its arguments name, and the laterals
      // written before it: with no estimate of a table function's rows,
      // the written order is the only evidence for which to call first.
      needs_[i] |= laterals;
      laterals |= Bit(i);
      continue;
    }
    const double table_rows = static_cast<double>(table->heap->record_count());
    double rows = table_rows;
    IndexChoice& index = index_[i];
    for (Conjunct* c : BaseFilters(conjuncts_, i)) {
      c->selectivity = EstimateSelectivity(*c->ast, *table, columns);
      rows *= c->selectivity;
      const AstExpr* col;
      const Value* literal;
      if (!MatchColumnEqLiteral(*c->ast, &col, &literal)) continue;
      const IndexInfo* idx = table->FindIndex(c->columns[0].column);
      if (idx != nullptr && (index.index == nullptr ||
                             c->selectivity < index.filter->selectivity)) {
        index = {c, idx, literal};
      }
    }
    rows_[i] = std::max(rows, 1.0);
    scan_cost_[i] = index.index == nullptr
                        ? table_rows
                        : kIndexProbeCost + table_rows *
                                                index.filter->selectivity *
                                                kHeapFetchCost;
  }
  for (const Conjunct& c : conjuncts_) {
    if (std::popcount(c.items) < 2) continue;
    Edge edge{c.items, kResidualSelectivity, false, {0, 0}, {-1, -1}};
    if (std::popcount(c.items) == 2 && MatchEquiJoin(*c.ast)) {
      edge.key = true;
      double ndv = 1;
      for (size_t side = 0; side < 2; ++side) {
        const Scope::Resolution& key = c.columns[side];
        edge.item[side] = key.item;
        ndv = std::max(ndv, Ndv(key.item, key.column));
        const TableInfo* t = items_[key.item].table;
        if (t != nullptr && t->FindIndex(key.column) != nullptr) {
          edge.fanout[side] =
              std::max(1.0, static_cast<double>(t->heap->record_count()) /
                                Ndv(key.item, key.column));
        }
      }
      // |R >< S| = |R| |S| / max(ndv(R.a), ndv(S.b)).
      edge.selectivity = 1.0 / ndv;
    }
    edges_.push_back(edge);
  }
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

std::vector<SubPlan> JoinSearch::Run(const Columns& columns) {
  const size_t n = items_.size();
  Prepare(columns);
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
      if (found.has_value()) return AmbiguousColumn(name);
      found = Resolution{i, c, item.columns[c].type, item.columns[c].name};
    }
  }
  if (!found.has_value()) return UnknownColumn(name);
  return *found;
}

Result<std::vector<FromItem>> Planner::BindFrom(
    const sql::SelectStmt& stmt) const {
  std::vector<FromItem> items;
  items.reserve(stmt.from.size());
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
    items.push_back(std::move(item));
  }
  return items;
}

Result<double> Planner::EstimateCost(const sql::SelectStmt& stmt) {
  double cost = 0;
  XO_RETURN_NOT_OK(Plan(stmt, &cost).status());
  return cost;
}

Result<OperatorPtr> Planner::Plan(const sql::SelectStmt& stmt, double* cost) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM clause is required");
  }
  XO_ASSIGN_OR_RETURN(std::vector<FromItem> items, BindFrom(stmt));
  const size_t n = items.size();
  if (n > 64) return Status::InvalidArgument("more than 64 FROM items");

  // ---- Every column reference, resolved once. -----------------------------
  // Against the items as written, whose numbering the whole plan keeps. A
  // bad name is reported from the first clause that names it, in this
  // order: WHERE, table-function arguments, GROUP BY, the select list.
  const Scope scope(&items);
  Columns columns(scope);
  XO_ASSIGN_OR_RETURN(std::vector<Conjunct> conjuncts,
                      ClassifyConjuncts(stmt.where.get(), &columns));
  std::vector<std::vector<Scope::Resolution>> arg_columns(n);
  std::vector<uint64_t> needs(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (const auto& a : stmt.from[i].function_args) {
      XO_RETURN_NOT_OK(columns.Resolve(*a, &arg_columns[i]));
    }
    for (const Scope::Resolution& res : arg_columns[i]) {
      if (res.item >= i) {
        return Status::InvalidArgument(
            "table function argument references a later FROM item");
      }
      needs[i] |= Bit(res.item);
    }
  }
  bool has_aggregate = !stmt.group_by.empty();
  for (const sql::SelectItem& sel : stmt.items) {
    if (ContainsAggregate(*sel.expr)) has_aggregate = true;
  }
  std::vector<Scope::Resolution> top_columns;  // read above every join
  for (const auto& g : stmt.group_by) {
    XO_RETURN_NOT_OK(columns.Resolve(*g, &top_columns));
  }
  for (const sql::SelectItem& sel : stmt.items) {
    if (has_aggregate && !IsAggregate(*sel.expr)) {
      XO_DISCARD_STATUS(columns.Resolve(*sel.expr, &top_columns),
                        "an aggregate query's plain select item is only "
                        "matched against the GROUP BY keys, and one that "
                        "does not resolve fails that match below");
    } else {
      XO_RETURN_NOT_OK(columns.Resolve(*sel.expr, &top_columns));
    }
  }

  // ---- Join order by cost. ------------------------------------------------
  JoinSearch search(items, &conjuncts, std::move(needs), options_);
  const std::vector<SubPlan> steps = search.Run(columns);
  if (cost != nullptr) {
    *cost = steps.back().cost;
    return OperatorPtr();
  }
  // The combined row layout follows the chosen order.
  std::vector<size_t> position(n);  // by FROM item
  size_t width = 0;
  for (size_t p = 0; p < n; ++p) {
    FromItem& item = items[steps[p].last];
    position[steps[p].last] = p;
    item.offset = width;
    width += item.columns.size();
  }
  Binder binder(&items, &columns, functions_);

  // ---- Column liveness. ---------------------------------------------------
  // Records, per column of the combined layout, the latest plan stage that
  // reads it. Stage 2p is the lateral at position p evaluating its
  // arguments; stage 2p+1 is everything applied once position p is joined
  // (join keys, residuals, filters: a conjunct runs at the last position
  // among its items); the select list and GROUP BY read at the top. Scans
  // and the index join's inner side materialize the columns read at any
  // stage; a lateral at position p copies only the columns read after
  // stage 2p. Row layouts keep their width, so no expression is rebound.
  std::vector<int> last_read(width, -1);
  auto mark_read = [&](const Scope::Resolution& res, int stage) {
    int& last = last_read[LayoutIndex(items, res)];
    last = std::max(last, stage);
  };
  const int top_stage = static_cast<int>(2 * n);
  for (const Conjunct& c : conjuncts) {
    size_t last = 0;
    for (const Scope::Resolution& res : c.columns) {
      last = std::max(last, position[res.item]);
    }
    for (const Scope::Resolution& res : c.columns) {
      mark_read(res, static_cast<int>(2 * last + 1));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (const Scope::Resolution& res : arg_columns[i]) {
      mark_read(res, static_cast<int>(2 * position[i]));
    }
  }
  for (const Scope::Resolution& res : top_columns) mark_read(res, top_stage);
  for (const sql::SelectItem& sel : stmt.items) {
    if (sel.expr->kind == AstExpr::Kind::kStar) {
      std::fill(last_read.begin(), last_read.end(), top_stage);
    }
  }
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
  // The index scan and the estimates are the ones the search chose.
  auto build_base = [&](size_t i) -> Result<OperatorPtr> {
    const FromItem& item = items[i];
    const IndexChoice& index = search.index(i);
    OperatorPtr op;
    double rows = static_cast<double>(item.table->heap->record_count());
    if (index.index != nullptr) {
      op = std::make_unique<IndexScanOp>(item.table, index.index, *index.key,
                                         item.alias, scan_live(i));
      index.filter->consumed = true;
      rows *= index.filter->selectivity;
    } else {
      op = std::make_unique<SeqScanOp>(item.table, item.alias, scan_live(i));
    }
    op->set_estimate(Rows(rows));
    // Remaining pushed filters, bound against the item's own layout.
    for (Conjunct* c : BaseFilters(conjuncts, i)) {
      XO_ASSIGN_OR_RETURN(auto pred, binder.Bind(*c->ast, /*local=*/true));
      op = std::make_unique<FilterOp>(std::move(op), std::move(pred));
      rows *= c->selectivity;
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
  for (size_t p = 0; p < n; ++p) {
    const SubPlan& step = steps[p];
    const size_t i = step.last;
    const FromItem& item = items[i];
    if (item.function != nullptr) {
      // Lateral table function: arguments bound against the accumulated
      // layout (the search placed every item they name before it).
      std::vector<ExprPtr> args;
      for (const auto& a : stmt.from[i].function_args) {
        XO_ASSIGN_OR_RETURN(auto bound, binder.Bind(*a));
        args.push_back(std::move(bound));
      }
      plan = std::make_unique<LateralTableFuncOp>(
          std::move(plan), item.function, std::move(args), item.alias,
          live_after(0, item.offset + item.columns.size(),
                     static_cast<int>(2 * p)));
      plan->set_estimate(Rows(step.join_rows));
      // Fall through to apply any now-complete conjuncts below.
    } else if (plan == nullptr) {
      XO_ASSIGN_OR_RETURN(plan, build_base(i));
    } else {
      // Find equi-join conjuncts linking the accumulated set to item i.
      struct JoinKey {
        const AstExpr* acc_side;
        const AstExpr* item_side;
        size_t item_column;  // the column `item_side` names, within item i
        Conjunct* conjunct;
      };
      std::vector<JoinKey> keys;
      for (Conjunct& c : conjuncts) {
        if (c.consumed || !(c.items & Bit(i))) continue;
        if (std::popcount(c.items) != 2) continue;
        if (!(c.items & joined)) continue;
        if (!MatchEquiJoin(*c.ast)) continue;
        // columns[k] is the column children[k] names.
        const size_t side = c.columns[0].item == i ? 0 : 1;
        keys.push_back({c.ast->children[1 - side].get(),
                        c.ast->children[side].get(), c.columns[side].column,
                        &c});
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
        auto probe = std::find_if(keys.begin(), keys.end(), [&](
            const JoinKey& k) {
          return item.table->FindIndex(k.item_column) != nullptr;
        });
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
            std::move(plan), item.table,
            item.table->FindIndex(probe->item_column), std::move(outer_key),
            item.alias, std::move(residual), scan_live(i));
      } else {
        XO_ASSIGN_OR_RETURN(OperatorPtr right, build_base(i));
        std::vector<ExprPtr> left_keys;
        std::vector<ExprPtr> right_keys;
        for (JoinKey& k : keys) {
          XO_ASSIGN_OR_RETURN(auto l, binder.Bind(*k.acc_side));
          XO_ASSIGN_OR_RETURN(auto r,
                              binder.Bind(*k.item_side, /*local=*/true));
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

  auto item_name = [](const sql::SelectItem& item) {
    return item.alias.empty() ? item.expr->ToString() : item.alias;
  };

  // The projection in select order, and what each output column holds for
  // ORDER BY: a FROM column as its place in the combined layout, any other
  // value as a place past the layout.
  std::vector<ExprPtr> proj;
  std::vector<std::string> names;
  std::vector<size_t> holds;
  auto output = [&](ExprPtr expr, std::string name, size_t held) {
    proj.push_back(std::move(expr));
    names.push_back(std::move(name));
    holds.push_back(held);
  };
  auto held = [&](const AstExpr& e) {
    const Scope::Resolution* res = columns.Find(e);
    return res != nullptr ? LayoutIndex(items, *res) : width + holds.size();
  };

  double output_rows = joined_rows;
  if (has_aggregate) {
    // ---- Aggregation. -----------------------------------------------------
    std::vector<ExprPtr> group_keys;
    std::vector<std::string> group_names;
    for (const auto& g : stmt.group_by) {
      XO_ASSIGN_OR_RETURN(auto bound, binder.Bind(*g));
      group_names.push_back(g->ToString());
      group_keys.push_back(std::move(bound));
    }
    // The aggregate's rows are the group keys, then the aggregates.
    const size_t n_groups = group_keys.size();
    std::vector<AggregateSpec> aggs;
    for (const sql::SelectItem& sel : stmt.items) {
      const AstExpr& e = *sel.expr;
      if (IsAggregate(e)) {
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
          const TypeId arg_type = spec.arg->type();
          if (spec.kind == AggKind::kSum &&
              (arg_type == TypeId::kVarchar || arg_type == TypeId::kXadt)) {
            return Status::InvalidArgument("SUM takes a numeric argument");
          }
        }
        spec.name = item_name(sel);
        output(ExprPtr(new ColumnRefExpr(n_groups + aggs.size(), spec.name,
                                         spec.type())),
               spec.name, held(e));
        aggs.push_back(std::move(spec));
        continue;
      }
      // A plain select item must be a GROUP BY key: a column the key
      // resolves to, any other expression the key's text.
      const std::string text = e.ToString();
      const Scope::Resolution* column = columns.Find(e);
      auto is_key = [&](size_t g) {
        if (e.kind != AstExpr::Kind::kColumn) {
          return EqualsIgnoreCase(group_names[g], text);
        }
        const Scope::Resolution* key = columns.Find(*stmt.group_by[g]);
        return column != nullptr && key != nullptr &&
               key->item == column->item && key->column == column->column;
      };
      size_t g = 0;
      while (g < n_groups && !is_key(g)) ++g;
      if (g == n_groups) {
        return Status::InvalidArgument(
            "select item '" + text +
            "' must be an aggregate or appear in GROUP BY");
      }
      output(ExprPtr(new ColumnRefExpr(g, item_name(sel),
                                       group_keys[g]->type())),
             item_name(sel), held(e));
    }
    plan = std::make_unique<AggregateOp>(std::move(plan),
                                         std::move(group_keys), group_names,
                                         std::move(aggs));
    // At most one group per input row; one row without GROUP BY.
    output_rows = n_groups == 0 ? 1 : joined_rows;
    plan->set_estimate(Rows(output_rows));
  } else {
    for (const sql::SelectItem& sel : stmt.items) {
      if (sel.expr->kind == AstExpr::Kind::kStar) {
        // In written order, whatever order the items were joined in.
        for (const FromItem& item : items) {
          for (size_t c = 0; c < item.columns.size(); ++c) {
            output(ExprPtr(new ColumnRefExpr(item.offset + c,
                                             item.columns[c].name,
                                             item.columns[c].type)),
                   item.columns[c].name, item.offset + c);
          }
        }
        continue;
      }
      XO_ASSIGN_OR_RETURN(auto bound, binder.Bind(*sel.expr));
      output(std::move(bound), item_name(sel), held(*sel.expr));
    }
  }
  plan = std::make_unique<ProjectOp>(std::move(plan), std::move(proj),
                                     std::move(names));
  plan->set_estimate(Rows(output_rows));

  if (stmt.distinct) {
    // DISTINCT groups on every output column, without aggregates.
    std::vector<ExprPtr> keys;
    std::vector<std::string> key_names;
    for (const ColumnMeta& column : plan->columns()) {
      keys.push_back(
          ExprPtr(new ColumnRefExpr(keys.size(), column.name, column.type)));
      key_names.push_back(column.name);
    }
    plan = std::make_unique<AggregateOp>(std::move(plan), std::move(keys),
                                         std::move(key_names),
                                         std::vector<AggregateSpec>{});
    plan->set_estimate(Rows(output_rows));
  }

  // ---- ORDER BY over the projected output. --------------------------------
  // A name matches output columns as it matches FROM columns, and fails the
  // same way when it matches several that hold different values (`salary`
  // and `emp.salary` hold one). A name no output column bears matches the
  // output column that holds the FROM column it resolves to.
  if (!stmt.order_by.empty()) {
    const std::vector<ColumnMeta>& output = plan->columns();
    std::vector<ExprPtr> keys;
    std::vector<bool> asc;
    for (const sql::OrderItem& o : stmt.order_by) {
      const std::string text = o.expr->ToString();
      std::optional<size_t> found;
      for (size_t c = 0; c < output.size(); ++c) {
        if (!NameMatches(output[c].name, text)) continue;
        if (!found.has_value()) {
          found = c;
        } else if (holds[c] != holds[*found]) {
          return AmbiguousColumn(text);
        }
      }
      if (!found.has_value() && o.expr->kind == AstExpr::Kind::kColumn) {
        auto res = scope.Resolve(o.expr->name);
        const auto held =
            res.ok() ? std::find(holds.begin(), holds.end(),
                                 LayoutIndex(items, *res))
                     : holds.end();
        if (held != holds.end()) found = held - holds.begin();
      }
      if (!found.has_value()) return UnknownColumn(text);
      keys.push_back(ExprPtr(new ColumnRefExpr(*found, output[*found].name,
                                               output[*found].type)));
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
  const Scope scope(&items);
  Columns columns(scope);
  XO_RETURN_NOT_OK(columns.Resolve(predicate));
  return Binder(&items, &columns, functions_).Bind(predicate);
}

}  // namespace xorator::ordb
