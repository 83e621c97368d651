#ifndef XORATOR_ORDB_EXECUTOR_H_
#define XORATOR_ORDB_EXECUTOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
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

/// Volcano-style physical operator. Usage: Open, Next until false, Close.
///
/// Guard contract (DESIGN.md §12): every Next() implementation and every
/// loop that materializes child rows inside Open() polls
/// `ctx->CheckPoint()` once per row, so deadlines, cancellation and the
/// memory budget are honored mid-operator; materialized state (hash
/// tables, sort buffers, ...) is charged to the guard via a TrackedArena
/// that Close() — and the destructor — releases. tools/lint enforces the
/// CheckPoint-in-Next half of the contract.
class Operator {
 public:
  virtual ~Operator() = default;

  [[nodiscard]] virtual Status Open(ExecContext* ctx) = 0;
  /// Produces the next row into `*out`; returns false at end of stream.
  [[nodiscard]] virtual Result<bool> Next(Tuple* out) = 0;
  virtual void Close() {}

  const std::vector<ColumnMeta>& columns() const { return columns_; }

  /// One-line operator label for EXPLAIN.
  virtual std::string Label() const = 0;
  virtual std::vector<const Operator*> Children() const { return {}; }

  /// Renders this subtree as an indented EXPLAIN plan.
  std::string Explain(int indent = 0) const;

 protected:
  std::vector<ColumnMeta> columns_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Full-table scan. Only the columns `live` marks are materialized; the
/// others stay NULL (one entry per table column, see ColumnMask).
class SeqScanOp : public Operator {
 public:
  SeqScanOp(const TableInfo* table, const std::string& alias,
            ColumnMask live);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  std::string Label() const override;

 private:
  const TableInfo* table_;
  std::string alias_;
  ColumnMask live_;
  ExecContext* ctx_ = nullptr;
  std::unique_ptr<HeapFile::Scanner> scanner_;
  /// Reused record buffer: RowView parses it in place every Next(), so its
  /// capacity (and the output tuple's string capacity) is recycled across
  /// rows instead of reallocated per row (DESIGN.md section 14).
  std::string record_;
};

/// Point index scan: rows of `table` whose `index` column equals `key`.
/// String keys are hashed in the index, so the column value is rechecked.
/// Materializes only the `live` columns, as SeqScanOp does.
class IndexScanOp : public Operator {
 public:
  IndexScanOp(const TableInfo* table, const IndexInfo* index, Value key,
              const std::string& alias, ColumnMask live);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  std::string Label() const override;
  const IndexInfo* index() const { return index_; }

 private:
  const TableInfo* table_;
  const IndexInfo* index_;
  Value key_;
  std::string alias_;
  ColumnMask live_;
  ExecContext* ctx_ = nullptr;
  std::vector<uint64_t> rids_;
  /// Reused record buffer for in-place key rechecks (see SeqScanOp).
  std::string record_;
  size_t pos_ = 0;
};

/// Drops rows whose predicate does not evaluate to TRUE.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, ExprPtr predicate);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  void Close() override { child_->Close(); }
  std::string Label() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
  ExecContext* ctx_ = nullptr;
};

/// Evaluates one output expression per projected column.
class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs,
            std::vector<std::string> names);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  void Close() override { child_->Close(); }
  std::string Label() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  ExecContext* ctx_ = nullptr;
  /// The child's row, kept across calls so the scan below refills the same
  /// slots (and string capacity) every row.
  Tuple row_;
};

/// Nested-loop join; the right input is materialized on Open.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr predicate);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  void Close() override;
  std::string Label() const override;
  std::vector<const Operator*> Children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  ExprPtr predicate_;  // may be null (cross product)
  ExecContext* ctx_ = nullptr;
  TrackedArena arena_;  // accounts the materialized right side
  std::vector<Tuple> right_rows_;
  Tuple left_row_;
  bool left_valid_ = false;
  size_t right_pos_ = 0;
};

/// Hash join on equi-key lists; the left input is the build side.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right,
             std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
             ExprPtr residual);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  void Close() override;
  std::string Label() const override;
  std::vector<const Operator*> Children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  ExprPtr residual_;  // may be null
  ExecContext* ctx_ = nullptr;
  TrackedArena arena_;  // accounts the build-side hash table
  std::unordered_map<uint64_t, std::vector<Tuple>> table_;
  Tuple probe_row_;
  const std::vector<Tuple>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

/// Sort-merge join: both inputs are materialized and sorted on Open. This
/// is the join the planner picks when the build side exceeds the sort heap
/// (mirroring DB2's behaviour the paper observes at larger scale factors).
class SortMergeJoinOp : public Operator {
 public:
  SortMergeJoinOp(OperatorPtr left, OperatorPtr right,
                  std::vector<ExprPtr> left_keys,
                  std::vector<ExprPtr> right_keys, ExprPtr residual);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  void Close() override;
  std::string Label() const override;
  std::vector<const Operator*> Children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  [[nodiscard]] Result<bool> AdvanceRuns();

  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  ExprPtr residual_;
  ExecContext* ctx_ = nullptr;
  TrackedArena arena_;  // accounts both materialized, sorted inputs
  std::vector<std::pair<std::vector<Value>, Tuple>> left_rows_;
  std::vector<std::pair<std::vector<Value>, Tuple>> right_rows_;
  size_t li_ = 0, ri_ = 0;
  size_t run_l_end_ = 0, run_r_end_ = 0;
  size_t cur_l_ = 0, cur_r_ = 0;
  bool in_run_ = false;
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

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  void Close() override;
  std::string Label() const override;
  std::vector<const Operator*> Children() const override {
    return {left_.get()};
  }

 private:
  OperatorPtr left_;
  const TableInfo* inner_;
  const IndexInfo* index_;
  ExprPtr left_key_;
  ExprPtr residual_;
  ColumnMask inner_live_;
  ExecContext* ctx_ = nullptr;
  Tuple left_row_;
  bool left_valid_ = false;
  std::vector<uint64_t> rids_;
  /// Reused record buffer / inner tuple for in-place rechecks and
  /// capacity-recycling materialization (see SeqScanOp).
  std::string record_;
  Tuple inner_row_;
  size_t rid_pos_ = 0;
};

/// ORDER BY: materializes and sorts on Open.
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<ExprPtr> keys,
         std::vector<bool> ascending);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  void Close() override;
  std::string Label() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> keys_;
  std::vector<bool> ascending_;
  ExecContext* ctx_ = nullptr;
  TrackedArena arena_;  // accounts the materialized sort input
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

/// Hash-based DISTINCT over whole rows.
class DistinctOp : public Operator {
 public:
  explicit DistinctOp(OperatorPtr child);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  void Close() override;
  std::string Label() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

 private:
  OperatorPtr child_;
  ExecContext* ctx_ = nullptr;
  TrackedArena arena_;  // accounts the seen-row fingerprint set
  std::unordered_set<std::string> seen_;
};

/// Supported aggregate functions.
enum class AggKind { kCountStar, kCount, kSum, kMin, kMax };

/// One aggregate in a GROUP BY plan: function + argument + label.
struct AggregateSpec {
  AggKind kind = AggKind::kCountStar;
  ExprPtr arg;  // null for COUNT(*)
  std::string name;
};

/// Hash aggregation: GROUP BY keys + aggregates.
class AggregateOp : public Operator {
 public:
  AggregateOp(OperatorPtr child, std::vector<ExprPtr> group_keys,
              std::vector<std::string> group_names,
              std::vector<AggregateSpec> aggs);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  void Close() override;
  std::string Label() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> group_keys_;
  std::vector<AggregateSpec> aggs_;
  ExecContext* ctx_ = nullptr;
  TrackedArena arena_;  // accounts the group hash table / result rows
  std::vector<Tuple> results_;
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

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  [[nodiscard]] Result<bool> Next(Tuple* out) override;
  void Close() override;
  std::string Label() const override;
  std::vector<const Operator*> Children() const override {
    if (child_ == nullptr) return {};
    return {child_.get()};
  }

 private:
  OperatorPtr child_;  // may be null
  const TableFunction* fn_;
  std::vector<ExprPtr> args_;
  size_t input_width_ = 0;  // child columns, before the function's
  ColumnMask input_live_;
  ColumnMask output_live_;  // the function's own columns
  ExecContext* ctx_ = nullptr;
  TrackedArena arena_;  // accounts the per-input-row function results
  Tuple input_row_;
  bool input_valid_ = false;
  bool emitted_single_ = false;
  std::vector<Tuple> fn_rows_;
  size_t fn_pos_ = 0;
};

/// Hashes a key-value list for join/distinct bookkeeping.
uint64_t HashValues(const std::vector<Value>& values);

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_EXECUTOR_H_
