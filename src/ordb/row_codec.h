#ifndef XORATOR_ORDB_ROW_CODEC_H_
#define XORATOR_ORDB_ROW_CODEC_H_

#include <cstdint>
#include <string_view>

#include "common/lifetime.h"
#include "common/result.h"
#include "ordb/tuple.h"

namespace xorator::ordb {

/// A decoded column of a `RowView`: the schema type, the null flag, and the
/// value — numerics inline, string/XADT payloads as a view into the encoded
/// row (zero copies). A `ValueView` borrows from the buffer its `RowView`
/// was parsed over; it must not outlive that buffer (statically checked
/// under Clang via the XO_GSL_POINTER / XO_LIFETIME_BOUND annotations,
/// DESIGN.md section 14).
class XO_GSL_POINTER(char) ValueView {
 public:
  ValueView() = default;

  /// The column's *declared* type (a null value keeps its column type).
  TypeId type() const { return type_; }
  bool is_null() const { return null_; }

  bool AsBool() const { return int_ != 0; }
  int64_t AsInt() const { return int_; }
  double AsDouble() const {
    return type_ == TypeId::kDouble ? double_ : static_cast<double>(int_);
  }
  /// VARCHAR text or raw XADT bytes, viewing the encoded row in place;
  /// empty for other types.
  std::string_view bytes() const XO_LIFETIME_BOUND { return bytes_; }

  /// Materializes an owning `Value` (this is where the string copy, if
  /// any, finally happens).
  Value ToValue() const;

  /// Equals `ToValue().Hash()`, without the copy.
  uint64_t Hash() const {
    return HashValue(null_ ? TypeId::kNull : type_, int_, double_, bytes_);
  }

 private:
  friend class RowView;

  TypeId type_ = TypeId::kNull;
  bool null_ = true;
  int64_t int_ = 0;
  double double_ = 0;
  std::string_view bytes_;
};

/// A validated, in-place view of one encoded row (the EncodeTuple wire
/// format: null bitmap, fixed-width numerics, varint length-prefixed
/// strings — DESIGN.md section 14). `Parse` checks the whole record up
/// front — truncated prefixes, overflowing lengths and trailing garbage
/// are all rejected — so accessors cannot fail and never copy: `column(i)`
/// decodes in place, and string payloads come back as views into the
/// original buffer.
///
/// A `RowView` borrows both the row bytes and the schema; neither may be
/// destroyed while the view (or any `ValueView` taken from it) is alive.
/// Under Clang the XO_LIFETIME_BOUND annotations on `Parse` make a view
/// that outlives either owner a compile error; the scan path therefore
/// parses each record into a buffer that lives for the whole iteration
/// (see SeqScanOp::Next).
class XO_GSL_POINTER(char) RowView {
 public:
  RowView() = default;

  /// Validates `row` against `schema` and returns an in-place view over
  /// it. The view borrows `schema` and `row`: both must outlive it.
  [[nodiscard]] static Result<RowView> Parse(
      const TableSchema& schema XO_LIFETIME_BOUND,
      std::string_view row XO_LIFETIME_BOUND);

  /// Number of columns (== the schema's).
  size_t columns() const { return ncols_; }

  /// Decodes column `i` (which must be < columns()) in place. The returned
  /// view borrows from the same buffers as this RowView.
  ValueView column(size_t i) const XO_LIFETIME_BOUND;

  /// The encoded bytes this view was parsed over.
  std::string_view raw() const XO_LIFETIME_BOUND { return row_; }

  /// Materializes every column into `*out`, reusing its existing Value
  /// slots (and their string capacity) in place — the steady-state scan
  /// loop allocates nothing once the tuple's strings have grown to the
  /// table's row sizes.
  void Materialize(Tuple* out) const;

  /// Like Materialize(out), but a column whose `live` entry is false is
  /// skipped without touching its payload and left NULL in its slot.
  /// `live` must have one entry per column.
  void Materialize(Tuple* out, const ColumnMask& live) const;

 private:
  /// Column start offsets are cached for the first kInlineOffsets columns;
  /// wider schemas fall back to skipping forward from the last cached one.
  static constexpr size_t kInlineOffsets = 16;

  bool IsNull(size_t i) const {
    return (static_cast<uint8_t>(row_[i / 8]) >> (i % 8)) & 1;
  }
  /// Offset of column `i`'s payload (its would-be position if null).
  size_t OffsetOf(size_t i) const;
  /// Advances past (non-null) column `col`'s payload at `pos`.
  size_t Skip(size_t pos, size_t col) const;
  /// Decodes the (non-null) column `col` at byte offset `pos`.
  ValueView DecodeAt(size_t pos, size_t col) const XO_LIFETIME_BOUND;
  /// Both Materialize overloads; a null `live` means every column.
  void MaterializeColumns(Tuple* out, const ColumnMask* live) const;

  const TableSchema* schema_ = nullptr;
  std::string_view row_;
  size_t ncols_ = 0;
  uint32_t offsets_[kInlineOffsets] = {};
};

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_ROW_CODEC_H_
