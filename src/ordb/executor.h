#ifndef XORATOR_ORDB_EXECUTOR_H_
#define XORATOR_ORDB_EXECUTOR_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "ordb/catalog.h"
#include "ordb/exec_context.h"
#include "ordb/expr.h"

namespace xorator::ordb {

/// Output column of an operator: display name plus type.
struct ColumnMeta {
  std::string name;
  TypeId type = TypeId::kVarchar;
};

/// Volcano-style physical operator. Usage: Open, Next until false, Close,
/// all on the thread the statement is bound to (ExecContext::Current()).
///
/// Guard contract (DESIGN.md §12): every Next() implementation and every
/// loop that materializes child rows inside Open() polls CheckPoint() once
/// per row, so deadlines, cancellation and the memory budget are honored
/// mid-operator; every row an operator keeps after Open() or across Next()
/// calls lives in a RowStore, which charges it to the guard and which
/// Close() — and the destructor — releases. tools/lint enforces the
/// CheckPoint-in-Next half of the contract.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Opens the operator in the statement bound to the calling thread: its
  /// CheckPoint() polls that statement's guard until the next Open().
  [[nodiscard]] Status Open() {
    guard_ = ExecContext::CurrentQueryGuard();
    return DoOpen();
  }
  /// Produces the next row into `*out`; returns false at end of stream.
  [[nodiscard]] virtual Result<bool> Next(Tuple* out) = 0;
  virtual void Close() {}

  const std::vector<ColumnMeta>& columns() const { return columns_; }

  /// One-line operator label for EXPLAIN.
  virtual std::string Label() const = 0;
  virtual std::vector<const Operator*> Children() const { return {}; }

  /// Renders this subtree as an indented EXPLAIN plan: one line per
  /// operator, its label followed by the planner's estimates.
  std::string Explain(int indent = 0) const;

  /// What the planner estimated for this operator, printed after the
  /// label: `cost≈C (alternative≈A)` for a join, then `rows≈R`.
  struct Estimate {
    double rows = -1;  // < 0: no estimate
    double cost = -1;  // < 0: not a join
    /// The cheapest join algorithm the planner rejected, if any.
    const char* rejected = nullptr;
    double rejected_cost = 0;
  };
  void set_estimate(const Estimate& estimate) { estimate_ = estimate; }

 protected:
  /// The operator's own part of Open().
  [[nodiscard]] virtual Status DoOpen() = 0;

  /// Polls the guard of the statement the operator was opened in; OK when
  /// it runs unguarded.
  [[nodiscard]] Status CheckPoint() const {
    return guard_ == nullptr ? Status::OK() : guard_->CheckPoint();
  }

  std::vector<ColumnMeta> columns_;

 private:
  QueryGuard* guard_ = nullptr;  // read from the binding by Open()
  Estimate estimate_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// The rows an operator keeps (DESIGN.md §20): the nested-loop join's inner
/// side, the hash join's build side, the sorted inputs of SortOp and
/// SortMergeJoinOp, the aggregate's groups and a lateral's function rows.
/// Add() charges each row to the query's guard by one size function;
/// Clear(), which the owner's Close() calls, and the destructor release it.
///
/// Each row is stored under `key_width` key values. Rows added by
/// AddIndexed() are also filed in a hash index over their keys, which
/// Find() and NextMatch() walk in insertion order, rechecking each key with
/// Value::Compare. NULL keys are the caller's business: a join stores and
/// probes none, GROUP BY keeps one NULL group.
class RowStore {
 public:
  static constexpr size_t kNone = SIZE_MAX;

  /// Clear(), then binds the store to the guard of the statement bound to
  /// the calling thread; rows added after are stored under `key_width` key
  /// values.
  void Reset(size_t key_width);
  /// Drops every row and returns its charge to the guard.
  void Clear();

  /// Appends `row` under `key`, moving from both; kResourceExhausted when
  /// the query is over budget.
  [[nodiscard]] Status Add(std::span<Value> key, Tuple row);
  /// Add(), and files the row in the hash index under its key.
  [[nodiscard]] Status AddIndexed(std::span<Value> key, Tuple row);
  /// The first indexed row whose key equals `key`, or kNone.
  size_t Find(std::span<const Value> key) const;
  /// The next indexed row after row `i` with row i's key, or kNone.
  size_t NextMatch(size_t i) const;
  /// Stable-sorts an unindexed store by key, key i ascending when
  /// `ascending[i]`.
  void Sort(const std::vector<bool>& ascending);

  size_t size() const { return rows_.size(); }
  Tuple& row(size_t i) XO_LIFETIME_BOUND { return rows_[i]; }
  std::span<const Value> key(size_t i) const XO_LIFETIME_BOUND {
    return std::span<const Value>(keys_).subspan(i * key_width_, key_width_);
  }

 private:
  /// The indexed rows of one key hash: the first and the last.
  struct Chain {
    size_t first;
    size_t last;
  };

  TrackedArena arena_;
  size_t key_width_ = 0;
  std::vector<Value> keys_;  // row i's key is [i * key_width_, +key_width_)
  std::vector<Tuple> rows_;
  std::unordered_map<uint64_t, Chain> index_;
  std::vector<size_t> next_;  // per row: the next row of its chain, or kNone
};

/// `alias.name` for each of `columns`: how every FROM item, scan and table
/// function names its output columns.
std::vector<ColumnMeta> QualifiedColumns(const std::vector<ColumnDef>& columns,
                                         const std::string& alias);

/// Full-table scan. Only the columns `live` marks are materialized; the
/// others stay NULL (one entry per table column, see ColumnMask).
class SeqScanOp : public Operator {
 public:
  SeqScanOp(const TableInfo* table, const std::string& alias,
            ColumnMask live);

  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  std::string Label() const override;

 private:
  [[nodiscard]] Status DoOpen() override;
  const TableInfo* table_;
  std::string alias_;
  ColumnMask live_;
  std::unique_ptr<HeapFile::Scanner> scanner_;
  /// Reused record buffer: RowView parses it in place every Next(), so its
  /// capacity (and the output tuple's string capacity) is recycled across
  /// rows instead of reallocated per row (DESIGN.md section 14).
  std::string record_;
};

/// Point index scan: rows of `table` whose `index` column equals `key`.
/// String keys are hashed in the index, so each row's column is rechecked
/// in place before any string is copied out of the record; a NULL key
/// matches nothing. Materializes only the `live` columns, as SeqScanOp
/// does. It is also the index join's probe, re-aimed by Seek().
class IndexScanOp : public Operator {
 public:
  IndexScanOp(const TableInfo* table, const IndexInfo* index, Value key,
              const std::string& alias, ColumnMask live);

  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  std::string Label() const override;
  const TableInfo* table() const { return table_; }
  const IndexInfo* index() const { return index_; }

  /// Restarts the scan at the rows of `key`.
  [[nodiscard]] Status Seek(Value key);

 private:
  [[nodiscard]] Status DoOpen() override;
  const TableInfo* table_;
  const IndexInfo* index_;
  Value key_;
  std::string alias_;
  ColumnMask live_;
  std::vector<uint64_t> rids_;
  /// Reused record buffer for in-place key rechecks (see SeqScanOp).
  std::string record_;
  size_t pos_ = 0;
};

/// An operator over one input, which Open and Close pass through to (an
/// operator that drains its input in Open overrides both).
class UnaryOp : public Operator {
 public:
  void Close() override { child_->Close(); }
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

 protected:
  explicit UnaryOp(OperatorPtr child) : child_(std::move(child)) {}

  [[nodiscard]] Status DoOpen() override { return child_->Open(); }

  OperatorPtr child_;
};

/// Drops rows whose predicate does not evaluate to TRUE.
class FilterOp : public UnaryOp {
 public:
  FilterOp(OperatorPtr child, ExprPtr predicate);

  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  std::string Label() const override;

 private:
  ExprPtr predicate_;
};

/// Evaluates one output expression per projected column.
class ProjectOp : public UnaryOp {
 public:
  ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs,
            std::vector<std::string> names);

  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  std::string Label() const override;

 private:
  std::vector<ExprPtr> exprs_;
  /// The child's row, kept across calls so the scan below refills the same
  /// slots (and string capacity) every row.
  Tuple row_;
};

/// Nested-loop join; the right input is materialized on Open.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr predicate);

  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  void Close() override;
  std::string Label() const override;
  std::vector<const Operator*> Children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  [[nodiscard]] Status DoOpen() override;
  OperatorPtr left_;
  OperatorPtr right_;
  ExprPtr predicate_;  // may be null (cross product)
  RowStore right_rows_;
  Tuple left_row_;
  bool left_valid_ = false;
  size_t right_pos_ = 0;
};

/// Equi-join on key lists: `left_keys` are bound to the left input's row
/// layout, `right_keys` to the right's. A row with a NULL key joins
/// nothing, since NULL equals nothing (CompareExpr's rule).
class EquiJoinOp : public Operator {
 public:
  std::string Label() const override;
  std::vector<const Operator*> Children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  EquiJoinOp(std::string name, OperatorPtr left, OperatorPtr right,
             std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys);

  std::string name_;  // EXPLAIN label
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
};

/// Hash join; the left input is the build side, stored keyed on
/// `left_keys`.
class HashJoinOp : public EquiJoinOp {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right,
             std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys);

  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  void Close() override;

 private:
  [[nodiscard]] Status DoOpen() override;
  RowStore build_;
  Tuple probe_row_;
  std::vector<Value> probe_keys_;
  size_t match_ = RowStore::kNone;  // the build row joining probe_row_ next
};

/// Sort-merge join: both inputs are materialized and sorted on Open. The
/// planner picks it when it is the cheapest candidate, which takes hash
/// joins disabled or a build side over the sort heap, and no cheaper
/// index join: with the Fig. 13 advisor's indexes, Hybrid QG2 at 6,000
/// SIGMOD documents takes index joins instead (bench_join_crossover).
class SortMergeJoinOp : public EquiJoinOp {
 public:
  SortMergeJoinOp(OperatorPtr left, OperatorPtr right,
                  std::vector<ExprPtr> left_keys,
                  std::vector<ExprPtr> right_keys);

  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  void Close() override;

 private:
  [[nodiscard]] Status DoOpen() override;
  RowStore left_rows_;
  RowStore right_rows_;
  // The current runs of equal keys are [li_, run_l_end_) and
  // [ri_, run_r_end_); (cur_l_, cur_r_) is the next pair they emit.
  size_t li_ = 0, ri_ = 0;
  size_t run_l_end_ = 0, run_r_end_ = 0;
  size_t cur_l_ = 0, cur_r_ = 0;
};

/// Index nested-loop join: for each outer row, look up matching inner rows
/// through the inner table's index. Of each inner row only the
/// `inner_live` columns are materialized.
class IndexNestedLoopJoinOp : public Operator {
 public:
  IndexNestedLoopJoinOp(OperatorPtr left, const TableInfo* inner,
                        const IndexInfo* index, ExprPtr left_key,
                        const std::string& inner_alias, ExprPtr residual,
                        ColumnMask inner_live);

  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  void Close() override;
  std::string Label() const override;
  std::vector<const Operator*> Children() const override {
    return {left_.get()};
  }

 private:
  [[nodiscard]] Status DoOpen() override;
  OperatorPtr left_;
  ExprPtr left_key_;
  ExprPtr residual_;
  Tuple left_row_;
  bool left_valid_ = false;
  IndexScanOp inner_;  // Seek()s each outer row's key
  /// Reused inner tuple for capacity-recycling materialization.
  Tuple inner_row_;
};

/// ORDER BY: materializes and sorts on Open.
class SortOp : public UnaryOp {
 public:
  SortOp(OperatorPtr child, std::vector<ExprPtr> keys,
         std::vector<bool> ascending);

  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  void Close() override;
  std::string Label() const override;

 private:
  [[nodiscard]] Status DoOpen() override;
  std::vector<ExprPtr> keys_;
  std::vector<bool> ascending_;
  RowStore rows_;
  size_t pos_ = 0;
};

/// Supported aggregate functions.
enum class AggKind { kCountStar, kCount, kSum, kMin, kMax };

/// One aggregate in a GROUP BY plan: function + argument + label.
struct AggregateSpec {
  AggKind kind = AggKind::kCountStar;
  ExprPtr arg;  // null for COUNT(*)
  std::string name;

  /// MIN and MAX keep their argument's type and SUM over a DOUBLE sums as
  /// a DOUBLE; the rest are INTEGER.
  TypeId type() const;
};

/// Hash aggregation: GROUP BY keys + aggregates, in first-seen group order.
/// DISTINCT is the same operator over every output column, without
/// aggregates.
class AggregateOp : public UnaryOp {
 public:
  AggregateOp(OperatorPtr child, std::vector<ExprPtr> group_keys,
              std::vector<std::string> group_names,
              std::vector<AggregateSpec> aggs);

  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  void Close() override;
  std::string Label() const override;

 private:
  [[nodiscard]] Status DoOpen() override;
  std::vector<ExprPtr> group_keys_;
  std::vector<AggregateSpec> aggs_;
  /// Each group's row holds one value per aggregate: a count, or NULL
  /// until the first non-NULL argument.
  RowStore groups_;
  size_t pos_ = 0;
};

/// Lateral table-function application: for each input row (or exactly one
/// empty row if `child` is null), evaluates the argument expressions against
/// it, invokes the table function, and emits input ++ function columns.
/// This implements the paper's `FROM speakers, table(unnest(...)) u` form.
/// `live` covers the output layout: a dead input column is not copied into
/// the output rows, and the function is told which of its columns are dead.
class LateralTableFuncOp : public Operator {
 public:
  LateralTableFuncOp(OperatorPtr child, const TableFunction* fn,
                     std::vector<ExprPtr> args, const std::string& alias,
                     ColumnMask live);

  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  void Close() override;
  std::string Label() const override;
  std::vector<const Operator*> Children() const override {
    if (child_ == nullptr) return {};
    return {child_.get()};
  }

 private:
  [[nodiscard]] Status DoOpen() override;
  OperatorPtr child_;  // may be null
  const TableFunction* fn_;
  std::vector<ExprPtr> args_;
  size_t input_width_ = 0;  // child columns, before the function's
  ColumnMask input_live_;
  ColumnMask output_live_;  // the function's own columns
  Tuple input_row_;
  bool input_valid_ = false;
  bool emitted_single_ = false;
  RowStore fn_rows_;  // the current input row's function results
  size_t fn_pos_ = 0;
};

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_EXECUTOR_H_
