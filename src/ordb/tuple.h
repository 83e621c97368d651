#ifndef XORATOR_ORDB_TUPLE_H_
#define XORATOR_ORDB_TUPLE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "ordb/value.h"

namespace xorator::ordb {

/// A row: one `Value` per column.
using Tuple = std::vector<Value>;

/// Per-column liveness over a row layout, computed once per statement by
/// the planner: `live[i]` is false when no operator reads column i, so the
/// operator that creates the row leaves NULL in that slot instead of
/// copying the value (DESIGN.md section 14, "live columns").
using ColumnMask = std::vector<bool>;

/// Declared column of a stored table.
struct ColumnDef {
  std::string name;
  TypeId type = TypeId::kVarchar;
};

/// Declared schema of a stored table.
struct TableSchema {
  std::vector<ColumnDef> columns;

  int ColumnIndex(std::string_view name) const;
  size_t size() const { return columns.size(); }
};

/// Serializes `tuple` (which must match `schema`) into `*out`: a null
/// bitmap, then fixed 8-byte integers/doubles, 1-byte booleans, and varint
/// length-prefixed bytes for strings/XADT (the RowView wire format,
/// row_codec.h).
void EncodeTuple(const TableSchema& schema, const Tuple& tuple,
                 std::string* out);

/// Decodes a tuple previously produced by EncodeTuple into owning Values.
/// Strict: malformed records (truncated prefixes, overflowing lengths,
/// trailing bytes) are rejected. Zero-copy readers should use
/// RowView::Parse (row_codec.h) directly instead.
[[nodiscard]] Result<Tuple> DecodeTuple(const TableSchema& schema, std::string_view bytes);

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_TUPLE_H_
