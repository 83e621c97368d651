#include "ordb/executor.h"

#include <algorithm>
#include <cmath>

#include "common/span.h"
#include "common/str_util.h"
#include "common/varint.h"
#include "ordb/row_codec.h"

namespace xorator::ordb {

namespace {

Result<bool> EvalPredicate(const Expr* pred, const Tuple& row,
                           ExecContext* ctx) {
  if (pred == nullptr) return true;
  XO_ASSIGN_OR_RETURN(Value v, pred->Eval(row, ctx));
  return !v.is_null() && v.AsBool();
}

/// Evaluates `keys` over `row` into `*out`, reusing its capacity.
Status EvalKeys(const std::vector<ExprPtr>& keys, const Tuple& row,
                ExecContext* ctx, std::vector<Value>* out) {
  out->clear();
  out->reserve(keys.size());
  for (const ExprPtr& k : keys) {
    XO_ASSIGN_OR_RETURN(Value v, k->Eval(row, ctx));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

/// The join-key path: EvalKeys, then whether the row can join at all. NULL
/// equals nothing (CompareExpr's rule, and IndexScanOp::Seek's), so a row
/// with a NULL key is neither stored nor probed by any join.
Result<bool> EvalJoinKeys(const std::vector<ExprPtr>& keys, const Tuple& row,
                          ExecContext* ctx, std::vector<Value>* out) {
  RETURN_IF_ERROR(EvalKeys(keys, row, ctx, out));
  return std::none_of(out->begin(), out->end(),
                      [](const Value& v) { return v.is_null(); });
}

int CompareValueLists(const std::vector<Value>& a,
                      const std::vector<Value>& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  return 0;
}

/// The end of the run of rows sharing the key of `rows[begin]`.
size_t RunEnd(const std::vector<KeyedRow>& rows, size_t begin) {
  size_t end = begin + 1;
  while (end < rows.size() &&
         CompareValueLists(rows[end].first, rows[begin].first) == 0) {
    ++end;
  }
  return end;
}

void AppendRow(const Tuple& left, const Tuple& right, Tuple* out) {
  out->clear();
  out->reserve(left.size() + right.size());
  out->insert(out->end(), left.begin(), left.end());
  out->insert(out->end(), right.begin(), right.end());
}

// Equality between an in-place column view and an owning key Value without
// materializing the view: string payloads compare as views, numerics via a
// (copy-free) Value. Used for the index-key rechecks, which are expected
// to reject rows (hashed string keys), so a miss costs no allocation.
bool ViewEqualsValue(const ValueView& view, const Value& key) {
  if (view.is_null()) return false;
  if ((view.type() == TypeId::kVarchar || view.type() == TypeId::kXadt) &&
      (key.type() == TypeId::kVarchar || key.type() == TypeId::kXadt)) {
    return view.bytes() == key.AsString();
  }
  return view.ToValue().Equals(key);
}

// Cheap size estimate used to charge materialized tuples against the
// query's memory budget (ExecContext::guard). Counts the inline Value slots
// plus out-of-line string payloads; deliberately ignores allocator slack.
uint64_t ApproxTupleBytes(const Tuple& row) {
  uint64_t bytes = sizeof(Tuple) + row.size() * sizeof(Value);
  for (const Value& v : row) {
    if (v.type() == TypeId::kVarchar || v.type() == TypeId::kXadt) {
      bytes += v.AsString().size();
    }
  }
  return bytes;
}

/// Opens `child`, hands each of its rows to `consume` (a `Status(Tuple&)`
/// callable that may move from the row) and closes the child: the one loop
/// by which an operator materializes an input in Open(). Polls the guard
/// once per row.
template <typename Consume>
Status Drain(Operator* child, ExecContext* ctx, Consume&& consume) {
  XO_RETURN_NOT_OK(child->Open(ctx));
  Tuple row;
  while (true) {
    RETURN_IF_ERROR(ctx->CheckPoint());
    XO_ASSIGN_OR_RETURN(bool ok, child->Next(&row));
    if (!ok) break;
    XO_RETURN_NOT_OK(consume(row));
  }
  child->Close();
  return Status::OK();
}

/// The keyed sort of SortOp and SortMergeJoinOp: drains `input` into
/// (key values, row) pairs charged to `arena` and stable-sorts them, key i
/// ascending when `ascending[i]`. With `drop_null_keys` (a join's inputs),
/// rows with a NULL key are dropped before they are stored (EvalJoinKeys).
Status SortInput(Operator* input, const std::vector<ExprPtr>& keys,
                 const std::vector<bool>& ascending, bool drop_null_keys,
                 ExecContext* ctx, TrackedArena* arena,
                 std::vector<KeyedRow>* rows) {
  rows->clear();
  std::vector<Value> k;
  RETURN_IF_ERROR(Drain(input, ctx, [&](Tuple& row) -> Status {
    if (drop_null_keys) {
      XO_ASSIGN_OR_RETURN(bool joins, EvalJoinKeys(keys, row, ctx, &k));
      if (!joins) return Status::OK();
    } else {
      RETURN_IF_ERROR(EvalKeys(keys, row, ctx, &k));
    }
    RETURN_IF_ERROR(arena->Charge(ApproxTupleBytes(row)));
    rows->emplace_back(std::move(k), std::move(row));
    return Status::OK();
  }));
  std::stable_sort(rows->begin(), rows->end(),
                   [&](const KeyedRow& a, const KeyedRow& b) {
                     for (size_t i = 0; i < a.first.size(); ++i) {
                       int c = a.first[i].Compare(b.first[i]);
                       if (c != 0) return ascending[i] ? c < 0 : c > 0;
                     }
                     return false;
                   });
  return Status::OK();
}

std::string RowFingerprint(const Tuple& row) {
  std::string key;
  for (const Value& v : row) {
    key.push_back(static_cast<char>(v.type()));
    switch (v.type()) {
      case TypeId::kNull:
        break;
      case TypeId::kBoolean:
      case TypeId::kInteger: {
        uint64_t raw = ZigZagEncode(v.AsInt());
        PutVarint(&key, raw);
        break;
      }
      case TypeId::kDouble: {
        xo::AppendFixed(&key, v.AsDouble());
        break;
      }
      case TypeId::kVarchar:
      case TypeId::kXadt:
        PutVarint(&key, v.AsString().size());
        key.append(v.AsString());
        break;
    }
  }
  return key;
}

uint64_t HashValues(const std::vector<Value>& values) {
  uint64_t h = 0x9ae16a3b2f90404fULL;
  for (const Value& v : values) {
    h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace

std::vector<ColumnMeta> QualifiedColumns(const std::vector<ColumnDef>& columns,
                                         const std::string& alias) {
  std::vector<ColumnMeta> out;
  out.reserve(columns.size());
  for (const ColumnDef& c : columns) {
    out.push_back({alias + "." + c.name, c.type});
  }
  return out;
}

std::string Operator::Explain(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += Label();
  auto approx = [&](double v) { out += std::to_string(std::llround(v)); };
  if (estimate_.cost >= 0) {
    out += "  cost≈";
    approx(estimate_.cost);
    if (estimate_.rejected != nullptr) {
      out += " (";
      out += estimate_.rejected;
      out += "≈";
      approx(estimate_.rejected_cost);
      out += ")";
    }
  }
  if (estimate_.rows >= 0) {
    out += estimate_.cost >= 0 ? " rows≈" : "  rows≈";
    approx(estimate_.rows);
  }
  out += "\n";
  for (const Operator* c : Children()) {
    out += c->Explain(indent + 1);
  }
  return out;
}

// ---------------------------------------------------------------------- scan

SeqScanOp::SeqScanOp(const TableInfo* table, const std::string& alias,
                     ColumnMask live)
    : table_(table), alias_(alias), live_(std::move(live)) {
  columns_ = QualifiedColumns(table->schema.columns, alias);
}

Status SeqScanOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  scanner_ = std::make_unique<HeapFile::Scanner>(
      table_->heap->Scan(ctx->degraded));
  return Status::OK();
}

Result<bool> SeqScanOp::Next(Tuple* out) {
  RETURN_IF_ERROR(ctx_->CheckPoint());
  Rid rid;
  XO_ASSIGN_OR_RETURN(bool ok, scanner_->Next(&rid, &record_));
  if (!ok) return false;
  // In-place decode (row_codec.h): `record_` is a member, so its capacity
  // — and, via Materialize's slot reuse, the output tuple's string
  // capacity — is recycled across rows. Dead columns are never copied.
  XO_ASSIGN_OR_RETURN(RowView row, RowView::Parse(table_->schema, record_));
  row.Materialize(out, live_);
  return true;
}

std::string SeqScanOp::Label() const {
  return "SeqScan(" + table_->name + " AS " + alias_ + ")";
}

IndexScanOp::IndexScanOp(const TableInfo* table, const IndexInfo* index,
                         Value key, const std::string& alias, ColumnMask live)
    : table_(table),
      index_(index),
      key_(std::move(key)),
      alias_(alias),
      live_(std::move(live)) {
  columns_ = QualifiedColumns(table->schema.columns, alias);
}

Status IndexScanOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  return Seek(key_);
}

Status IndexScanOp::Seek(Value key) {
  key_ = std::move(key);
  rids_.clear();
  pos_ = 0;
  if (key_.is_null()) return Status::OK();
  XO_ASSIGN_OR_RETURN(rids_,
                      index_->tree->Find(IndexKey(index_->key_type, key_)));
  return Status::OK();
}

Result<bool> IndexScanOp::Next(Tuple* out) {
  while (pos_ < rids_.size()) {
    RETURN_IF_ERROR(ctx_->CheckPoint());
    Rid rid = Rid::Decode(rids_[pos_++]);
    XO_ASSIGN_OR_RETURN(record_, table_->heap->Get(rid));
    XO_ASSIGN_OR_RETURN(RowView row, RowView::Parse(table_->schema, record_));
    // Recheck the key in place before materializing anything: a
    // mismatched row is skipped without a single string copy.
    if (!ViewEqualsValue(row.column(static_cast<size_t>(index_->column_index)),
                         key_)) {
      continue;
    }
    row.Materialize(out, live_);
    return true;
  }
  return false;
}

std::string IndexScanOp::Label() const {
  return "IndexScan(" + table_->name + " AS " + alias_ + " ON " +
         index_->column + " = " + key_.ToString() + ")";
}

// -------------------------------------------------------------- filter etc.

FilterOp::FilterOp(OperatorPtr child, ExprPtr predicate)
    : UnaryOp(std::move(child)), predicate_(std::move(predicate)) {
  columns_ = child_->columns();
}

Result<bool> FilterOp::Next(Tuple* out) {
  while (true) {
    RETURN_IF_ERROR(ctx_->CheckPoint());
    XO_ASSIGN_OR_RETURN(bool ok, child_->Next(out));
    if (!ok) return false;
    XO_ASSIGN_OR_RETURN(bool pass, EvalPredicate(predicate_.get(), *out, ctx_));
    if (pass) return true;
  }
}

std::string FilterOp::Label() const {
  return "Filter(" + predicate_->ToString() + ")";
}

ProjectOp::ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs,
                     std::vector<std::string> names)
    : UnaryOp(std::move(child)), exprs_(std::move(exprs)) {
  for (size_t i = 0; i < exprs_.size(); ++i) {
    columns_.push_back({names[i], exprs_[i]->type()});
  }
}

Result<bool> ProjectOp::Next(Tuple* out) {
  RETURN_IF_ERROR(ctx_->CheckPoint());
  XO_ASSIGN_OR_RETURN(bool ok, child_->Next(&row_));
  if (!ok) return false;
  out->clear();
  out->reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    XO_ASSIGN_OR_RETURN(Value v, e->Eval(row_, ctx_));
    out->push_back(std::move(v));
  }
  return true;
}

std::string ProjectOp::Label() const {
  std::string out = "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i]->ToString();
  }
  return out + ")";
}

// --------------------------------------------------------------------- joins

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   ExprPtr predicate)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)) {
  columns_ = left_->columns();
  for (const ColumnMeta& c : right_->columns()) columns_.push_back(c);
}

Status NestedLoopJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  arena_.Rebind(ctx->guard);
  XO_RETURN_NOT_OK(left_->Open(ctx));
  right_rows_.clear();
  XO_RETURN_NOT_OK(Drain(right_.get(), ctx, [&](Tuple& row) -> Status {
    RETURN_IF_ERROR(arena_.Charge(ApproxTupleBytes(row)));
    right_rows_.push_back(std::move(row));
    return Status::OK();
  }));
  left_valid_ = false;
  right_pos_ = 0;
  return Status::OK();
}

Result<bool> NestedLoopJoinOp::Next(Tuple* out) {
  while (true) {
    RETURN_IF_ERROR(ctx_->CheckPoint());
    if (!left_valid_) {
      XO_ASSIGN_OR_RETURN(bool ok, left_->Next(&left_row_));
      if (!ok) return false;
      left_valid_ = true;
      right_pos_ = 0;
    }
    while (right_pos_ < right_rows_.size()) {
      const Tuple& r = right_rows_[right_pos_++];
      AppendRow(left_row_, r, out);
      XO_ASSIGN_OR_RETURN(bool pass,
                          EvalPredicate(predicate_.get(), *out, ctx_));
      if (pass) return true;
    }
    left_valid_ = false;
  }
}

void NestedLoopJoinOp::Close() {
  left_->Close();
  right_rows_.clear();
  arena_.Release();
}

std::string NestedLoopJoinOp::Label() const {
  return "NestedLoopJoin(" +
         (predicate_ != nullptr ? predicate_->ToString() : "true") + ")";
}

EquiJoinOp::EquiJoinOp(std::string name, OperatorPtr left, OperatorPtr right,
                       std::vector<ExprPtr> left_keys,
                       std::vector<ExprPtr> right_keys)
    : name_(std::move(name)),
      left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)) {
  columns_ = left_->columns();
  for (const ColumnMeta& c : right_->columns()) columns_.push_back(c);
}

std::string EquiJoinOp::Label() const {
  std::string out = name_ + "(";
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += left_keys_[i]->ToString() + " = " + right_keys_[i]->ToString();
  }
  return out + ")";
}

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::vector<ExprPtr> left_keys,
                       std::vector<ExprPtr> right_keys)
    : EquiJoinOp("HashJoin", std::move(left), std::move(right),
                 std::move(left_keys), std::move(right_keys)) {}

Status HashJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  arena_.Rebind(ctx->guard);
  table_.clear();
  XO_RETURN_NOT_OK(Drain(left_.get(), ctx, [&](Tuple& row) -> Status {
    XO_ASSIGN_OR_RETURN(bool joins,
                        EvalJoinKeys(left_keys_, row, ctx, &build_keys_));
    if (!joins) return Status::OK();
    RETURN_IF_ERROR(arena_.Charge(ApproxTupleBytes(row)));
    table_[HashValues(build_keys_)].push_back(std::move(row));
    return Status::OK();
  }));
  XO_RETURN_NOT_OK(right_->Open(ctx));
  matches_ = nullptr;
  match_pos_ = 0;
  return Status::OK();
}

Result<bool> HashJoinOp::Next(Tuple* out) {
  while (true) {
    RETURN_IF_ERROR(ctx_->CheckPoint());
    if (matches_ != nullptr) {
      while (match_pos_ < matches_->size()) {
        const Tuple& l = (*matches_)[match_pos_++];
        // Recheck key equality (hash collisions).
        RETURN_IF_ERROR(EvalKeys(left_keys_, l, ctx_, &build_keys_));
        if (CompareValueLists(build_keys_, probe_keys_) != 0) continue;
        AppendRow(l, probe_row_, out);
        return true;
      }
      matches_ = nullptr;
    }
    XO_ASSIGN_OR_RETURN(bool ok, right_->Next(&probe_row_));
    if (!ok) return false;
    XO_ASSIGN_OR_RETURN(bool joins, EvalJoinKeys(right_keys_, probe_row_, ctx_,
                                                 &probe_keys_));
    if (!joins) continue;
    auto it = table_.find(HashValues(probe_keys_));
    if (it == table_.end()) continue;
    matches_ = &it->second;
    match_pos_ = 0;
  }
}

void HashJoinOp::Close() {
  right_->Close();
  table_.clear();
  arena_.Release();
}

SortMergeJoinOp::SortMergeJoinOp(OperatorPtr left, OperatorPtr right,
                                 std::vector<ExprPtr> left_keys,
                                 std::vector<ExprPtr> right_keys)
    : EquiJoinOp("SortMergeJoin", std::move(left), std::move(right),
                 std::move(left_keys), std::move(right_keys)) {}

Status SortMergeJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  arena_.Rebind(ctx->guard);
  const std::vector<bool> ascending(left_keys_.size(), true);
  XO_RETURN_NOT_OK(SortInput(left_.get(), left_keys_, ascending,
                             /*drop_null_keys=*/true, ctx, &arena_,
                             &left_rows_));
  XO_RETURN_NOT_OK(SortInput(right_.get(), right_keys_, ascending,
                             /*drop_null_keys=*/true, ctx, &arena_,
                             &right_rows_));
  li_ = ri_ = run_l_end_ = run_r_end_ = cur_l_ = cur_r_ = 0;
  return Status::OK();
}

Result<bool> SortMergeJoinOp::Next(Tuple* out) {
  while (true) {
    RETURN_IF_ERROR(ctx_->CheckPoint());
    if (cur_l_ < run_l_end_) {
      if (cur_r_ < run_r_end_) {
        AppendRow(left_rows_[cur_l_].second, right_rows_[cur_r_++].second,
                  out);
        return true;
      }
      ++cur_l_;
      cur_r_ = ri_;
      continue;
    }
    // Both runs are spent: merge forward to the next pair of equal keys.
    li_ = run_l_end_;
    ri_ = run_r_end_;
    while (li_ < left_rows_.size() && ri_ < right_rows_.size()) {
      int c = CompareValueLists(left_rows_[li_].first, right_rows_[ri_].first);
      if (c == 0) break;
      if (c < 0) {
        ++li_;
      } else {
        ++ri_;
      }
    }
    if (li_ >= left_rows_.size() || ri_ >= right_rows_.size()) return false;
    run_l_end_ = RunEnd(left_rows_, li_);
    run_r_end_ = RunEnd(right_rows_, ri_);
    cur_l_ = li_;
    cur_r_ = ri_;
  }
}

void SortMergeJoinOp::Close() {
  left_rows_.clear();
  right_rows_.clear();
  arena_.Release();
}

IndexNestedLoopJoinOp::IndexNestedLoopJoinOp(
    OperatorPtr left, const TableInfo* inner, const IndexInfo* index,
    ExprPtr left_key, const std::string& inner_alias, ExprPtr residual,
    ColumnMask inner_live)
    : left_(std::move(left)),
      left_key_(std::move(left_key)),
      residual_(std::move(residual)),
      inner_(inner, index, Value::Null(), inner_alias, std::move(inner_live)) {
  columns_ = left_->columns();
  for (const ColumnMeta& c : inner_.columns()) columns_.push_back(c);
}

Status IndexNestedLoopJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  XO_RETURN_NOT_OK(left_->Open(ctx));
  XO_RETURN_NOT_OK(inner_.Open(ctx));
  left_valid_ = false;
  return Status::OK();
}

Result<bool> IndexNestedLoopJoinOp::Next(Tuple* out) {
  while (true) {
    RETURN_IF_ERROR(ctx_->CheckPoint());
    if (!left_valid_) {
      XO_ASSIGN_OR_RETURN(bool ok, left_->Next(&left_row_));
      if (!ok) return false;
      left_valid_ = true;
      XO_ASSIGN_OR_RETURN(Value key, left_key_->Eval(left_row_, ctx_));
      XO_RETURN_NOT_OK(inner_.Seek(std::move(key)));
    }
    while (true) {
      XO_ASSIGN_OR_RETURN(bool found, inner_.Next(&inner_row_));
      if (!found) break;
      AppendRow(left_row_, inner_row_, out);
      XO_ASSIGN_OR_RETURN(bool pass, EvalPredicate(residual_.get(), *out, ctx_));
      if (pass) return true;
    }
    left_valid_ = false;
  }
}

void IndexNestedLoopJoinOp::Close() { left_->Close(); }

std::string IndexNestedLoopJoinOp::Label() const {
  return "IndexNLJoin(" + inner_.table()->name + "." +
         inner_.index()->column + " = " + left_key_->ToString() + ")";
}

// ---------------------------------------------------------- sort / distinct

SortOp::SortOp(OperatorPtr child, std::vector<ExprPtr> keys,
               std::vector<bool> ascending)
    : UnaryOp(std::move(child)),
      keys_(std::move(keys)),
      ascending_(std::move(ascending)) {
  columns_ = child_->columns();
}

Status SortOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  arena_.Rebind(ctx->guard);
  XO_RETURN_NOT_OK(SortInput(child_.get(), keys_, ascending_,
                             /*drop_null_keys=*/false, ctx, &arena_, &rows_));
  pos_ = 0;
  return Status::OK();
}

Result<bool> SortOp::Next(Tuple* out) {
  RETURN_IF_ERROR(ctx_->CheckPoint());
  if (pos_ >= rows_.size()) return false;
  *out = rows_[pos_++].second;
  return true;
}

void SortOp::Close() {
  rows_.clear();
  arena_.Release();
}

std::string SortOp::Label() const {
  std::string out = "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys_[i]->ToString();
    out += ascending_[i] ? " ASC" : " DESC";
  }
  return out + ")";
}

DistinctOp::DistinctOp(OperatorPtr child) : UnaryOp(std::move(child)) {
  columns_ = child_->columns();
}

Status DistinctOp::Open(ExecContext* ctx) {
  arena_.Rebind(ctx->guard);
  seen_.clear();
  return UnaryOp::Open(ctx);
}

Result<bool> DistinctOp::Next(Tuple* out) {
  while (true) {
    RETURN_IF_ERROR(ctx_->CheckPoint());
    XO_ASSIGN_OR_RETURN(bool ok, child_->Next(out));
    if (!ok) return false;
    std::string fp = RowFingerprint(*out);
    if (!seen_.contains(fp)) {
      RETURN_IF_ERROR(arena_.Charge(fp.size() + sizeof(std::string)));
      seen_.insert(std::move(fp));
      return true;
    }
  }
}

void DistinctOp::Close() {
  child_->Close();
  seen_.clear();
  arena_.Release();
}

std::string DistinctOp::Label() const { return "Distinct"; }

// ----------------------------------------------------------------- aggregate

AggregateOp::AggregateOp(OperatorPtr child, std::vector<ExprPtr> group_keys,
                         std::vector<std::string> group_names,
                         std::vector<AggregateSpec> aggs)
    : UnaryOp(std::move(child)),
      group_keys_(std::move(group_keys)),
      aggs_(std::move(aggs)) {
  for (size_t i = 0; i < group_keys_.size(); ++i) {
    columns_.push_back({group_names[i], group_keys_[i]->type()});
  }
  for (const AggregateSpec& a : aggs_) {
    TypeId t = TypeId::kInteger;
    if ((a.kind == AggKind::kMin || a.kind == AggKind::kMax) &&
        a.arg != nullptr) {
      t = a.arg->type();
    }
    columns_.push_back({a.name, t});
  }
}

Status AggregateOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  arena_.Rebind(ctx->guard);
  struct GroupState {
    Tuple keys;
    std::vector<Value> accumulators;  // NULL until a value arrives
    std::vector<int64_t> counts;
  };
  auto new_group = [&](Tuple keys) {
    return GroupState{std::move(keys), std::vector<Value>(aggs_.size()),
                      std::vector<int64_t>(aggs_.size(), 0)};
  };
  std::unordered_map<std::string, size_t> group_of;  // fingerprint -> index
  std::vector<GroupState> groups;                    // first-seen order
  std::vector<Value> keys;
  XO_RETURN_NOT_OK(Drain(child_.get(), ctx, [&](const Tuple& row) -> Status {
    RETURN_IF_ERROR(EvalKeys(group_keys_, row, ctx, &keys));
    std::string fp = RowFingerprint(keys);
    auto [it, inserted] = group_of.emplace(fp, groups.size());
    if (inserted) {
      groups.push_back(new_group(keys));
      RETURN_IF_ERROR(arena_.Charge(ApproxTupleBytes(keys) + fp.size() +
                                    aggs_.size() *
                                        (sizeof(Value) + sizeof(int64_t))));
    }
    GroupState& g = groups[it->second];
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const AggregateSpec& a = aggs_[i];
      if (a.kind == AggKind::kCountStar) {
        ++g.counts[i];
        continue;
      }
      auto v = a.arg->Eval(row, ctx);
      XO_RETURN_NOT_OK(v.status());
      if (v->is_null()) continue;
      switch (a.kind) {
        case AggKind::kCount:
          ++g.counts[i];
          break;
        case AggKind::kSum:
          g.accumulators[i] =
              Value::Int(g.accumulators[i].is_null()
                             ? v->AsInt()
                             : g.accumulators[i].AsInt() + v->AsInt());
          break;
        case AggKind::kMin:
          if (g.accumulators[i].is_null() ||
              v->Compare(g.accumulators[i]) < 0) {
            g.accumulators[i] = *v;
          }
          break;
        case AggKind::kMax:
          if (g.accumulators[i].is_null() ||
              v->Compare(g.accumulators[i]) > 0) {
            g.accumulators[i] = *v;
          }
          break;
        case AggKind::kCountStar:
          break;
      }
    }
    return Status::OK();
  }));
  // A global aggregate (no GROUP BY) over zero rows still yields one row:
  // counts 0, the rest NULL.
  if (groups.empty() && group_keys_.empty()) groups.push_back(new_group({}));
  results_.clear();
  for (GroupState& g : groups) {
    Tuple out = std::move(g.keys);
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const bool count = aggs_[i].kind == AggKind::kCountStar ||
                         aggs_[i].kind == AggKind::kCount;
      out.push_back(count ? Value::Int(g.counts[i]) : g.accumulators[i]);
    }
    results_.push_back(std::move(out));
  }
  pos_ = 0;
  return Status::OK();
}

Result<bool> AggregateOp::Next(Tuple* out) {
  RETURN_IF_ERROR(ctx_->CheckPoint());
  if (pos_ >= results_.size()) return false;
  *out = results_[pos_++];
  return true;
}

void AggregateOp::Close() {
  results_.clear();
  arena_.Release();
}

std::string AggregateOp::Label() const {
  std::string out = "Aggregate(groups=";
  out += std::to_string(group_keys_.size());
  out += ", aggs=" + std::to_string(aggs_.size()) + ")";
  return out;
}

// ------------------------------------------------------ table function scan

LateralTableFuncOp::LateralTableFuncOp(OperatorPtr child,
                                       const TableFunction* fn,
                                       std::vector<ExprPtr> args,
                                       const std::string& alias,
                                       ColumnMask live)
    : child_(std::move(child)), fn_(fn), args_(std::move(args)) {
  if (child_ != nullptr) columns_ = child_->columns();
  input_width_ = columns_.size();
  for (const ColumnMeta& c : QualifiedColumns(fn_->output, alias)) {
    columns_.push_back(c);
  }
  input_live_.assign(live.begin(), live.begin() + input_width_);
  output_live_.assign(live.begin() + input_width_, live.end());
}

Status LateralTableFuncOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  arena_.Rebind(ctx->guard);
  input_valid_ = false;
  emitted_single_ = false;
  fn_rows_.clear();
  fn_pos_ = 0;
  if (child_ != nullptr) return child_->Open(ctx);
  return Status::OK();
}

Result<bool> LateralTableFuncOp::Next(Tuple* out) {
  while (true) {
    RETURN_IF_ERROR(ctx_->CheckPoint());
    if (!input_valid_) {
      if (child_ == nullptr) {
        if (emitted_single_) return false;
        emitted_single_ = true;
        input_row_.clear();
      } else {
        XO_ASSIGN_OR_RETURN(bool ok, child_->Next(&input_row_));
        if (!ok) return false;
      }
      input_valid_ = true;
      std::vector<Value> args;
      RETURN_IF_ERROR(EvalKeys(args_, input_row_, ctx_, &args));
      // Each input row's function results replace the previous row's:
      // re-account the batch rather than accumulating charges forever.
      arena_.Release();
      XO_ASSIGN_OR_RETURN(fn_rows_, InvokeTable(*fn_, args, output_live_,
                                                &ctx_->udf_stats));
      for (const Tuple& r : fn_rows_) {
        RETURN_IF_ERROR(arena_.Charge(ApproxTupleBytes(r)));
      }
      fn_pos_ = 0;
    }
    if (fn_pos_ < fn_rows_.size()) {
      // Only the input columns read above this operator are copied; each
      // function row is emitted once, so its values move.
      Tuple& fn_row = fn_rows_[fn_pos_++];
      out->resize(columns_.size());
      for (size_t c = 0; c < input_width_; ++c) {
        if (input_live_[c]) {
          (*out)[c] = input_row_[c];
        } else {
          (*out)[c].SetNull();
        }
      }
      for (size_t c = 0; c < fn_row.size(); ++c) {
        (*out)[input_width_ + c] = std::move(fn_row[c]);
      }
      return true;
    }
    input_valid_ = false;
  }
}

void LateralTableFuncOp::Close() {
  if (child_ != nullptr) child_->Close();
  fn_rows_.clear();
  arena_.Release();
}

std::string LateralTableFuncOp::Label() const {
  std::string out = "TableFunction(" + fn_->name + "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  return out + "))";
}

}  // namespace xorator::ordb
