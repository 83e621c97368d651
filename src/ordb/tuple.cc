#include "ordb/tuple.h"

#include "common/span.h"
#include "common/varint.h"
#include "ordb/row_codec.h"

namespace xorator::ordb {

int TableSchema::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void EncodeTuple(const TableSchema& schema, const Tuple& tuple,
                 std::string* out) {
  size_t n = schema.columns.size();
  size_t bitmap_bytes = (n + 7) / 8;
  size_t bitmap_at = out->size();
  out->append(bitmap_bytes, '\0');
  for (size_t i = 0; i < n; ++i) {
    const Value& v = i < tuple.size() ? tuple[i] : Value::Null();
    if (v.is_null()) {
      (*out)[bitmap_at + i / 8] |= static_cast<char>(1 << (i % 8));
      continue;
    }
    switch (schema.columns[i].type) {
      case TypeId::kBoolean:
        out->push_back(v.AsBool() ? 1 : 0);
        break;
      case TypeId::kInteger: {
        // Integers are stored fixed-width (like a real engine's BIGINT
        // column); the paper's storage-size comparison depends on the
        // relational baseline paying normal per-column costs.
        xo::AppendFixed(out, v.AsInt());
        break;
      }
      case TypeId::kDouble: {
        xo::AppendFixed(out, v.AsDouble());
        break;
      }
      case TypeId::kVarchar:
      case TypeId::kXadt:
        PutVarint(out, v.AsString().size());
        out->append(v.AsString());
        break;
      case TypeId::kNull:
        break;
    }
  }
}

Result<Tuple> DecodeTuple(const TableSchema& schema, std::string_view bytes) {
  // One validating pass, then an in-place materialization — the string
  // copies happen once, straight from the encoded record into the tuple's
  // Value slots (row_codec.h; DESIGN.md section 14). Callers that can keep
  // the record buffer alive should parse a RowView themselves and skip the
  // materialization entirely.
  XO_ASSIGN_OR_RETURN(RowView row, RowView::Parse(schema, bytes));
  Tuple tuple;
  row.Materialize(&tuple);
  return tuple;
}

}  // namespace xorator::ordb
