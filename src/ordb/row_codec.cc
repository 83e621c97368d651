#include "ordb/row_codec.h"

#include "common/span.h"

namespace xorator::ordb {

namespace {

// Post-validation varint read: RowView::Parse already proved the buffer
// holds a complete, in-range varint at `*pos`, so the hot decode path can
// skip the bounds checks and Result plumbing of common/varint.h.
uint64_t GetVarintUnchecked(std::string_view s, size_t* pos) {
  uint64_t value = 0;
  int shift = 0;
  size_t p = *pos;
  while (true) {
    uint8_t byte = static_cast<uint8_t>(s[p++]);
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *pos = p;
  return value;
}

}  // namespace

Value ValueView::ToValue() const {
  if (null_) return Value::Null();
  switch (type_) {
    case TypeId::kBoolean:
      return Value::Bool(int_ != 0);
    case TypeId::kInteger:
      return Value::Int(int_);
    case TypeId::kDouble:
      return Value::Double(double_);
    case TypeId::kVarchar:
      return Value::Varchar(std::string(bytes_));
    case TypeId::kXadt:
      return Value::Xadt(std::string(bytes_));
    case TypeId::kNull:
      break;
  }
  return Value::Null();
}

Result<RowView> RowView::Parse(const TableSchema& schema,
                               std::string_view row) {
  // This is the validating pass the unchecked accessors below rely on:
  // the BoundedReader proves every field — bitmap, numerics, varint
  // lengths, string payloads — lies inside `row` before any view is
  // handed out. Corrupt records fail closed with kCorruption here.
  RowView v;
  v.schema_ = &schema;
  v.row_ = row;
  v.ncols_ = schema.columns.size();
  const size_t bitmap_bytes = (v.ncols_ + 7) / 8;
  xo::BoundedReader reader(row);
  if (!reader.Skip(bitmap_bytes).ok()) {
    return Status::Corruption("row shorter than its null bitmap");
  }
  for (size_t i = 0; i < v.ncols_; ++i) {
    if (i < kInlineOffsets) {
      v.offsets_[i] = static_cast<uint32_t>(reader.position());
    }
    if (v.IsNull(i)) continue;
    switch (schema.columns[i].type) {
      case TypeId::kBoolean:
        if (!reader.Skip(1).ok()) {
          return Status::Corruption("truncated boolean in row");
        }
        break;
      case TypeId::kInteger:
      case TypeId::kDouble:
        if (!reader.Skip(8).ok()) {
          return Status::Corruption("truncated numeric in row");
        }
        break;
      case TypeId::kVarchar:
      case TypeId::kXadt: {
        if (!reader.ReadLengthPrefixedBytes().ok()) {
          return Status::Corruption("string length overflows row");
        }
        break;
      }
      case TypeId::kNull:
        break;
    }
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after the last column");
  }
  return v;
}

size_t RowView::Skip(size_t pos, size_t col) const {
  switch (schema_->columns[col].type) {
    case TypeId::kBoolean:
      return pos + 1;
    case TypeId::kInteger:
    case TypeId::kDouble:
      return pos + 8;
    case TypeId::kVarchar:
    case TypeId::kXadt: {
      uint64_t len = GetVarintUnchecked(row_, &pos);
      return pos + static_cast<size_t>(len);
    }
    case TypeId::kNull:
      break;
  }
  return pos;
}

size_t RowView::OffsetOf(size_t i) const {
  if (i < kInlineOffsets) return offsets_[i];
  size_t pos = offsets_[kInlineOffsets - 1];
  for (size_t c = kInlineOffsets - 1; c < i; ++c) {
    if (!IsNull(c)) pos = Skip(pos, c);
  }
  return pos;
}

ValueView RowView::DecodeAt(size_t pos, size_t col) const {
  ValueView v;
  v.type_ = schema_->columns[col].type;
  v.null_ = false;
  switch (v.type_) {
    case TypeId::kBoolean:
      v.int_ = row_[pos] != 0 ? 1 : 0;
      break;
    case TypeId::kInteger: {
      v.int_ = xo::LoadFixedUnchecked<int64_t>(row_, pos);
      break;
    }
    case TypeId::kDouble: {
      v.double_ = xo::LoadFixedUnchecked<double>(row_, pos);
      break;
    }
    case TypeId::kVarchar:
    case TypeId::kXadt: {
      uint64_t len = GetVarintUnchecked(row_, &pos);
      v.bytes_ = row_.substr(pos, static_cast<size_t>(len));
      break;
    }
    case TypeId::kNull:
      v.null_ = true;
      break;
  }
  return v;
}

ValueView RowView::column(size_t i) const {
  if (IsNull(i)) {
    ValueView v;
    v.type_ = schema_->columns[i].type;
    v.null_ = true;
    return v;
  }
  return DecodeAt(OffsetOf(i), i);
}

void RowView::Materialize(Tuple* out) const {
  MaterializeColumns(out, nullptr);
}

void RowView::Materialize(Tuple* out, const ColumnMask& live) const {
  MaterializeColumns(out, &live);
}

void RowView::MaterializeColumns(Tuple* out, const ColumnMask* live) const {
  if (out->size() != ncols_) out->resize(ncols_);
  size_t pos = (ncols_ + 7) / 8;
  for (size_t i = 0; i < ncols_; ++i) {
    Value& slot = (*out)[i];
    if (IsNull(i)) {
      slot.SetNull();
      continue;
    }
    if (live != nullptr && !(*live)[i]) {
      slot.SetNull();
      pos = Skip(pos, i);
      continue;
    }
    switch (schema_->columns[i].type) {
      case TypeId::kBoolean:
        slot.SetBool(row_[pos] != 0);
        pos += 1;
        break;
      case TypeId::kInteger: {
        slot.SetInt(xo::LoadFixedUnchecked<int64_t>(row_, pos));
        pos += 8;
        break;
      }
      case TypeId::kDouble: {
        slot.SetDouble(xo::LoadFixedUnchecked<double>(row_, pos));
        pos += 8;
        break;
      }
      case TypeId::kVarchar:
      case TypeId::kXadt: {
        uint64_t len = GetVarintUnchecked(row_, &pos);
        std::string_view payload = row_.substr(pos, static_cast<size_t>(len));
        if (schema_->columns[i].type == TypeId::kVarchar) {
          slot.SetVarchar(payload);
        } else {
          slot.SetXadt(payload);
        }
        pos += static_cast<size_t>(len);
        break;
      }
      case TypeId::kNull:
        slot.SetNull();
        break;
    }
  }
}

}  // namespace xorator::ordb
