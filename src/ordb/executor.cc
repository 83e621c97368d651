#include "ordb/executor.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>

#include "common/safe_math.h"
#include "ordb/row_codec.h"

namespace xorator::ordb {

namespace {

Result<bool> EvalPredicate(const Expr* pred, const Tuple& row) {
  if (pred == nullptr) return true;
  XO_ASSIGN_OR_RETURN(Value v, pred->Eval(row));
  return !v.is_null() && v.AsBool();
}

/// Evaluates `keys` over `row` into `*out`, reusing its capacity.
Status EvalKeys(const std::vector<ExprPtr>& keys, const Tuple& row,
                std::vector<Value>* out) {
  out->clear();
  out->reserve(keys.size());
  for (const ExprPtr& k : keys) {
    XO_ASSIGN_OR_RETURN(Value v, k->Eval(row));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

/// The join-key path: EvalKeys, then whether the row can join at all. NULL
/// equals nothing (CompareExpr's rule, and IndexScanOp::Seek's), so a row
/// with a NULL key is neither stored nor probed by any join.
Result<bool> EvalJoinKeys(const std::vector<ExprPtr>& keys, const Tuple& row,
                          std::vector<Value>* out) {
  RETURN_IF_ERROR(EvalKeys(keys, row, out));
  return std::none_of(out->begin(), out->end(),
                      [](const Value& v) { return v.is_null(); });
}

int CompareKeys(std::span<const Value> a, std::span<const Value> b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  return 0;
}

uint64_t HashKey(std::span<const Value> key) {
  uint64_t h = 0x9ae16a3b2f90404fULL;
  for (const Value& v : key) {
    h = xo::WrapMul(h ^ v.Hash(), 0x9e3779b97f4a7c15ULL);
  }
  return h;
}

/// The end of the run of rows sharing the key of row `begin`.
size_t RunEnd(const RowStore& rows, size_t begin) {
  size_t end = begin + 1;
  while (end < rows.size() &&
         CompareKeys(rows.key(end), rows.key(begin)) == 0) {
    ++end;
  }
  return end;
}

void AppendRow(std::span<const Value> left, std::span<const Value> right,
               Tuple* out) {
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

/// Opens `child`, hands each of its rows to `consume` (a `Status(Tuple&)`
/// callable that may move from the row) and closes the child: the one loop
/// by which an operator materializes an input in Open(). Polls the bound
/// statement's guard once per row.
template <typename Consume>
Status Drain(Operator* child, Consume&& consume) {
  QueryGuard* const guard = ExecContext::CurrentQueryGuard();
  XO_RETURN_NOT_OK(child->Open());
  Tuple row;
  while (true) {
    RETURN_IF_ERROR(guard == nullptr ? Status::OK() : guard->CheckPoint());
    XO_ASSIGN_OR_RETURN(bool ok, child->Next(&row));
    if (!ok) break;
    XO_RETURN_NOT_OK(consume(row));
  }
  child->Close();
  return Status::OK();
}

/// The keyed sort of SortOp and SortMergeJoinOp: drains `input` into
/// `rows`, each row keyed on `keys`, and sorts it, key i ascending when
/// `ascending[i]`. With `drop_null_keys` (a join's inputs), rows with a
/// NULL key are dropped before they are stored (EvalJoinKeys).
Status SortInput(Operator* input, const std::vector<ExprPtr>& keys,
                 const std::vector<bool>& ascending, bool drop_null_keys,
                 RowStore* rows) {
  rows->Reset(keys.size());
  std::vector<Value> k;
  RETURN_IF_ERROR(Drain(input, [&](Tuple& row) -> Status {
    if (drop_null_keys) {
      XO_ASSIGN_OR_RETURN(bool joins, EvalJoinKeys(keys, row, &k));
      if (!joins) return Status::OK();
    } else {
      RETURN_IF_ERROR(EvalKeys(keys, row, &k));
    }
    return rows->Add(k, std::move(row));
  }));
  rows->Sort(ascending);
  return Status::OK();
}

/// SUM's step: a DOUBLE sums as a double, an integer through CheckedAdd.
Status AddToSum(const Value& v, Value* sum) {
  if (v.type() == TypeId::kDouble || sum->type() == TypeId::kDouble) {
    sum->SetDouble(sum->is_null() ? v.AsDouble()
                                  : sum->AsDouble() + v.AsDouble());
    return Status::OK();
  }
  int64_t total = v.AsInt();
  if (!sum->is_null()) {
    Result<int64_t> added = xo::CheckedAdd(sum->AsInt(), total);
    if (!added.ok()) return Status::OutOfRange("SUM overflows INTEGER");
    total = *added;
  }
  sum->SetInt(total);
  return Status::OK();
}

}  // namespace

// ----------------------------------------------------------------- row store

void RowStore::Reset(size_t key_width) {
  Clear();
  arena_.Rebind(ExecContext::CurrentQueryGuard());
  key_width_ = key_width;
}

void RowStore::Clear() {
  keys_.clear();
  rows_.clear();
  index_.clear();
  next_.clear();
  arena_.Release();
}

Status RowStore::Add(std::span<Value> key, Tuple row) {
  // The one size function: the key's and the row's Value slots plus their
  // out-of-line string payloads, ignoring allocator slack.
  uint64_t bytes = sizeof(Tuple) + (key.size() + row.size()) * sizeof(Value);
  for (std::span<Value> values : {key, std::span<Value>(row)}) {
    for (const Value& v : values) {
      if (v.type() == TypeId::kVarchar || v.type() == TypeId::kXadt) {
        bytes += v.AsString().size();
      }
    }
  }
  RETURN_IF_ERROR(arena_.Charge(bytes));
  std::move(key.begin(), key.end(), std::back_inserter(keys_));
  rows_.push_back(std::move(row));
  return Status::OK();
}

Status RowStore::AddIndexed(std::span<Value> key, Tuple row) {
  RETURN_IF_ERROR(Add(key, std::move(row)));
  const size_t i = rows_.size() - 1;
  next_.resize(i, kNone);
  next_.push_back(kNone);
  auto [chain, inserted] =
      index_.try_emplace(HashKey(this->key(i)), Chain{i, i});
  if (!inserted) {
    next_[chain->second.last] = i;
    chain->second.last = i;
  }
  return Status::OK();
}

size_t RowStore::Find(std::span<const Value> key) const {
  auto chain = index_.find(HashKey(key));
  if (chain == index_.end()) return kNone;
  size_t i = chain->second.first;
  while (i != kNone && CompareKeys(this->key(i), key) != 0) i = next_[i];
  return i;
}

size_t RowStore::NextMatch(size_t i) const {
  size_t j = next_[i];
  while (j != kNone && CompareKeys(key(j), key(i)) != 0) j = next_[j];
  return j;
}

void RowStore::Sort(const std::vector<bool>& ascending) {
  std::vector<size_t> order(rows_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t i = 0; i < key_width_; ++i) {
      int c = key(a)[i].Compare(key(b)[i]);
      if (c != 0) return ascending[i] ? c < 0 : c > 0;
    }
    return false;
  });
  std::vector<Value> keys;
  std::vector<Tuple> rows;
  keys.reserve(keys_.size());
  rows.reserve(rows_.size());
  for (size_t i : order) {
    const auto first = keys_.begin() + static_cast<ptrdiff_t>(i * key_width_);
    std::move(first, first + static_cast<ptrdiff_t>(key_width_),
              std::back_inserter(keys));
    rows.push_back(std::move(rows_[i]));
  }
  keys_.swap(keys);
  rows_.swap(rows);
}

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

Status SeqScanOp::DoOpen() {
  scanner_ = std::make_unique<HeapFile::Scanner>(table_->heap->Scan());
  return Status::OK();
}

Result<bool> SeqScanOp::Next(Tuple* out) {
  RETURN_IF_ERROR(CheckPoint());
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

Status IndexScanOp::DoOpen() { return Seek(key_); }

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
    RETURN_IF_ERROR(CheckPoint());
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
    RETURN_IF_ERROR(CheckPoint());
    XO_ASSIGN_OR_RETURN(bool ok, child_->Next(out));
    if (!ok) return false;
    XO_ASSIGN_OR_RETURN(bool pass, EvalPredicate(predicate_.get(), *out));
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
  RETURN_IF_ERROR(CheckPoint());
  XO_ASSIGN_OR_RETURN(bool ok, child_->Next(&row_));
  if (!ok) return false;
  out->clear();
  out->reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    XO_ASSIGN_OR_RETURN(Value v, e->Eval(row_));
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

Status NestedLoopJoinOp::DoOpen() {
  right_rows_.Reset(0);
  XO_RETURN_NOT_OK(left_->Open());
  XO_RETURN_NOT_OK(Drain(right_.get(), [&](Tuple& row) -> Status {
    return right_rows_.Add({}, std::move(row));
  }));
  left_valid_ = false;
  right_pos_ = 0;
  return Status::OK();
}

Result<bool> NestedLoopJoinOp::Next(Tuple* out) {
  while (true) {
    RETURN_IF_ERROR(CheckPoint());
    if (!left_valid_) {
      XO_ASSIGN_OR_RETURN(bool ok, left_->Next(&left_row_));
      if (!ok) return false;
      left_valid_ = true;
      right_pos_ = 0;
    }
    while (right_pos_ < right_rows_.size()) {
      AppendRow(left_row_, right_rows_.row(right_pos_++), out);
      XO_ASSIGN_OR_RETURN(bool pass,
                          EvalPredicate(predicate_.get(), *out));
      if (pass) return true;
    }
    left_valid_ = false;
  }
}

void NestedLoopJoinOp::Close() {
  left_->Close();
  right_rows_.Clear();
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

Status HashJoinOp::DoOpen() {
  build_.Reset(left_keys_.size());
  std::vector<Value> keys;
  XO_RETURN_NOT_OK(Drain(left_.get(), [&](Tuple& row) -> Status {
    XO_ASSIGN_OR_RETURN(bool joins, EvalJoinKeys(left_keys_, row, &keys));
    if (!joins) return Status::OK();
    return build_.AddIndexed(keys, std::move(row));
  }));
  XO_RETURN_NOT_OK(right_->Open());
  match_ = RowStore::kNone;
  return Status::OK();
}

Result<bool> HashJoinOp::Next(Tuple* out) {
  while (true) {
    RETURN_IF_ERROR(CheckPoint());
    if (match_ != RowStore::kNone) {
      AppendRow(build_.row(match_), probe_row_, out);
      match_ = build_.NextMatch(match_);
      return true;
    }
    XO_ASSIGN_OR_RETURN(bool ok, right_->Next(&probe_row_));
    if (!ok) return false;
    XO_ASSIGN_OR_RETURN(bool joins,
                        EvalJoinKeys(right_keys_, probe_row_, &probe_keys_));
    if (joins) match_ = build_.Find(probe_keys_);
  }
}

void HashJoinOp::Close() {
  right_->Close();
  build_.Clear();
}

SortMergeJoinOp::SortMergeJoinOp(OperatorPtr left, OperatorPtr right,
                                 std::vector<ExprPtr> left_keys,
                                 std::vector<ExprPtr> right_keys)
    : EquiJoinOp("SortMergeJoin", std::move(left), std::move(right),
                 std::move(left_keys), std::move(right_keys)) {}

Status SortMergeJoinOp::DoOpen() {
  const std::vector<bool> ascending(left_keys_.size(), true);
  XO_RETURN_NOT_OK(SortInput(left_.get(), left_keys_, ascending,
                             /*drop_null_keys=*/true, &left_rows_));
  XO_RETURN_NOT_OK(SortInput(right_.get(), right_keys_, ascending,
                             /*drop_null_keys=*/true, &right_rows_));
  li_ = ri_ = run_l_end_ = run_r_end_ = cur_l_ = cur_r_ = 0;
  return Status::OK();
}

Result<bool> SortMergeJoinOp::Next(Tuple* out) {
  while (true) {
    RETURN_IF_ERROR(CheckPoint());
    if (cur_l_ < run_l_end_) {
      if (cur_r_ < run_r_end_) {
        AppendRow(left_rows_.row(cur_l_), right_rows_.row(cur_r_++), out);
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
      int c = CompareKeys(left_rows_.key(li_), right_rows_.key(ri_));
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
  left_rows_.Clear();
  right_rows_.Clear();
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

Status IndexNestedLoopJoinOp::DoOpen() {
  XO_RETURN_NOT_OK(left_->Open());
  XO_RETURN_NOT_OK(inner_.Open());
  left_valid_ = false;
  return Status::OK();
}

Result<bool> IndexNestedLoopJoinOp::Next(Tuple* out) {
  while (true) {
    RETURN_IF_ERROR(CheckPoint());
    if (!left_valid_) {
      XO_ASSIGN_OR_RETURN(bool ok, left_->Next(&left_row_));
      if (!ok) return false;
      left_valid_ = true;
      XO_ASSIGN_OR_RETURN(Value key, left_key_->Eval(left_row_));
      XO_RETURN_NOT_OK(inner_.Seek(std::move(key)));
    }
    while (true) {
      XO_ASSIGN_OR_RETURN(bool found, inner_.Next(&inner_row_));
      if (!found) break;
      AppendRow(left_row_, inner_row_, out);
      XO_ASSIGN_OR_RETURN(bool pass, EvalPredicate(residual_.get(), *out));
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

// ---------------------------------------------------------------------- sort

SortOp::SortOp(OperatorPtr child, std::vector<ExprPtr> keys,
               std::vector<bool> ascending)
    : UnaryOp(std::move(child)),
      keys_(std::move(keys)),
      ascending_(std::move(ascending)) {
  columns_ = child_->columns();
}

Status SortOp::DoOpen() {
  XO_RETURN_NOT_OK(SortInput(child_.get(), keys_, ascending_,
                             /*drop_null_keys=*/false, &rows_));
  pos_ = 0;
  return Status::OK();
}

Result<bool> SortOp::Next(Tuple* out) {
  RETURN_IF_ERROR(CheckPoint());
  if (pos_ >= rows_.size()) return false;
  *out = rows_.row(pos_++);
  return true;
}

void SortOp::Close() { rows_.Clear(); }

std::string SortOp::Label() const {
  std::string out = "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys_[i]->ToString();
    out += ascending_[i] ? " ASC" : " DESC";
  }
  return out + ")";
}

// ----------------------------------------------------------------- aggregate

TypeId AggregateSpec::type() const {
  if (arg == nullptr) return TypeId::kInteger;
  const bool keeps = kind == AggKind::kMin || kind == AggKind::kMax ||
                     (kind == AggKind::kSum && arg->type() == TypeId::kDouble);
  return keeps ? arg->type() : TypeId::kInteger;
}

AggregateOp::AggregateOp(OperatorPtr child, std::vector<ExprPtr> group_keys,
                         std::vector<std::string> group_names,
                         std::vector<AggregateSpec> aggs)
    : UnaryOp(std::move(child)),
      group_keys_(std::move(group_keys)),
      aggs_(std::move(aggs)) {
  for (size_t i = 0; i < group_keys_.size(); ++i) {
    columns_.push_back({group_names[i], group_keys_[i]->type()});
  }
  for (const AggregateSpec& a : aggs_) columns_.push_back({a.name, a.type()});
}

Status AggregateOp::DoOpen() {
  const size_t n = group_keys_.size();
  groups_.Reset(n);
  std::vector<Value> keys;
  auto add_group = [&]() -> Status {
    Tuple group;
    group.reserve(aggs_.size());
    for (const AggregateSpec& a : aggs_) {
      const bool count =
          a.kind == AggKind::kCountStar || a.kind == AggKind::kCount;
      group.push_back(count ? Value::Int(0) : Value::Null());
    }
    return groups_.AddIndexed(keys, std::move(group));
  };
  XO_RETURN_NOT_OK(Drain(child_.get(), [&](const Tuple& row) -> Status {
    RETURN_IF_ERROR(EvalKeys(group_keys_, row, &keys));
    size_t g = groups_.Find(keys);
    if (g == RowStore::kNone) {
      RETURN_IF_ERROR(add_group());
      g = groups_.size() - 1;
    }
    Tuple& group = groups_.row(g);
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const AggregateSpec& a = aggs_[i];
      Value v;  // stays NULL for COUNT(*), which counts every row
      if (a.arg != nullptr) {
        XO_ASSIGN_OR_RETURN(v, a.arg->Eval(row));
        if (v.is_null()) continue;
      }
      Value& acc = group[i];
      switch (a.kind) {
        case AggKind::kCountStar:
        case AggKind::kCount:
          acc.SetInt(acc.AsInt() + 1);
          break;
        case AggKind::kSum:
          RETURN_IF_ERROR(AddToSum(v, &acc));
          break;
        case AggKind::kMin:
          if (acc.is_null() || v.Compare(acc) < 0) acc = std::move(v);
          break;
        case AggKind::kMax:
          if (acc.is_null() || v.Compare(acc) > 0) acc = std::move(v);
          break;
      }
    }
    return Status::OK();
  }));
  // A global aggregate (no GROUP BY) over zero rows still yields one row:
  // counts 0, the rest NULL.
  if (groups_.size() == 0 && n == 0) XO_RETURN_NOT_OK(add_group());
  pos_ = 0;
  return Status::OK();
}

Result<bool> AggregateOp::Next(Tuple* out) {
  RETURN_IF_ERROR(CheckPoint());
  if (pos_ >= groups_.size()) return false;
  AppendRow(groups_.key(pos_), groups_.row(pos_), out);
  ++pos_;
  return true;
}

void AggregateOp::Close() { groups_.Clear(); }

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

Status LateralTableFuncOp::DoOpen() {
  fn_rows_.Reset(0);
  input_valid_ = false;
  emitted_single_ = false;
  fn_pos_ = 0;
  if (child_ != nullptr) return child_->Open();
  return Status::OK();
}

Result<bool> LateralTableFuncOp::Next(Tuple* out) {
  while (true) {
    RETURN_IF_ERROR(CheckPoint());
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
      RETURN_IF_ERROR(EvalKeys(args_, input_row_, &args));
      // Each input row's function results replace the previous row's.
      fn_rows_.Clear();
      XO_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                          InvokeTable(*fn_, args, output_live_));
      for (Tuple& r : rows) RETURN_IF_ERROR(fn_rows_.Add({}, std::move(r)));
      fn_pos_ = 0;
    }
    if (fn_pos_ < fn_rows_.size()) {
      // Only the input columns read above this operator are copied; each
      // function row is emitted once, so its values move.
      Tuple& fn_row = fn_rows_.row(fn_pos_++);
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
  fn_rows_.Clear();
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
