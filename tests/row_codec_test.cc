// Tests for the in-place typed row codec (src/ordb/row_codec.h): RowView
// round-trips against EncodeTuple/DecodeTuple, in-place decoding semantics,
// Materialize capacity reuse, and strict rejection of malformed records.

#include "ordb/row_codec.h"

#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/varint.h"
#include "ordb/tuple.h"
#include "ordb/value.h"

namespace xorator::ordb {
namespace {

TableSchema AllTypesSchema() {
  TableSchema schema;
  schema.columns = {{"b", TypeId::kBoolean},
                    {"i", TypeId::kInteger},
                    {"d", TypeId::kDouble},
                    {"s", TypeId::kVarchar},
                    {"x", TypeId::kXadt}};
  return schema;
}

Tuple AllTypesTuple() {
  return {Value::Bool(true), Value::Int(-123456789), Value::Double(2.5),
          Value::Varchar("hello world"), Value::Xadt("R<LINE>hi</LINE>")};
}

void ExpectTupleEq(const Tuple& a, const Tuple& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type(), b[i].type()) << "column " << i;
    EXPECT_EQ(a[i].is_null(), b[i].is_null()) << "column " << i;
    if (!a[i].is_null()) {
      EXPECT_TRUE(a[i].Equals(b[i])) << "column " << i;
    }
  }
}

TEST(RowViewTest, RoundTripsAllTypes) {
  TableSchema schema = AllTypesSchema();
  Tuple in = AllTypesTuple();
  std::string bytes;
  EncodeTuple(schema, in, &bytes);

  auto row = RowView::Parse(schema, bytes);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  ASSERT_EQ(row->columns(), 5u);

  EXPECT_EQ(row->column(0).type(), TypeId::kBoolean);
  EXPECT_TRUE(row->column(0).AsBool());
  EXPECT_EQ(row->column(1).AsInt(), -123456789);
  EXPECT_EQ(row->column(2).AsDouble(), 2.5);
  EXPECT_EQ(row->column(3).bytes(), "hello world");
  EXPECT_EQ(row->column(4).bytes(), "R<LINE>hi</LINE>");

  Tuple out;
  row->Materialize(&out);
  ExpectTupleEq(in, out);
}

TEST(RowViewTest, StringPayloadsViewTheEncodedBufferInPlace) {
  TableSchema schema = AllTypesSchema();
  std::string bytes;
  EncodeTuple(schema, AllTypesTuple(), &bytes);

  auto row = RowView::Parse(schema, bytes);
  ASSERT_TRUE(row.ok());
  std::string_view payload = row->column(3).bytes();
  // Zero-copy: the view aims inside the encoded record, not at a copy.
  EXPECT_GE(payload.data(), bytes.data());
  EXPECT_LE(payload.data() + payload.size(), bytes.data() + bytes.size());
  EXPECT_EQ(row->raw(), std::string_view(bytes));
}

TEST(RowViewTest, NullsKeepTheirColumnTypeAndDecodeAsNull) {
  TableSchema schema = AllTypesSchema();
  Tuple in = {Value::Null(), Value::Null(), Value::Null(), Value::Null(),
              Value::Null()};
  std::string bytes;
  EncodeTuple(schema, in, &bytes);

  auto row = RowView::Parse(schema, bytes);
  ASSERT_TRUE(row.ok());
  for (size_t i = 0; i < row->columns(); ++i) {
    EXPECT_TRUE(row->column(i).is_null()) << "column " << i;
    EXPECT_EQ(row->column(i).type(), schema.columns[i].type) << "column " << i;
  }
  Tuple out;
  row->Materialize(&out);
  ExpectTupleEq(in, out);
}

// RunStats hashes columns in place, and the planner looks the literal's
// Value::Hash up in those statistics: the two hashes must agree.
TEST(RowViewTest, HashInPlaceEqualsTheDecodedValuesHash) {
  TableSchema schema;
  schema.columns = {{"n", TypeId::kInteger}, {"i", TypeId::kInteger},
                    {"b", TypeId::kBoolean}, {"f", TypeId::kBoolean},
                    {"s", TypeId::kVarchar}, {"e", TypeId::kVarchar},
                    {"d", TypeId::kDouble},  {"h", TypeId::kDouble},
                    {"x", TypeId::kXadt}};
  const Tuple in = {Value::Null(),       Value::Int(-42),
                    Value::Bool(true),   Value::Bool(false),
                    Value::Varchar("ROMEO"), Value::Varchar(""),
                    Value::Double(3.0),  Value::Double(2.5),
                    Value::Xadt("R<LINE>hi</LINE>")};
  std::string bytes;
  EncodeTuple(schema, in, &bytes);
  auto row = RowView::Parse(schema, bytes);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(row->column(i).Hash(), in[i].Hash()) << "column " << i;
    EXPECT_EQ(row->column(i).Hash(), row->column(i).ToValue().Hash())
        << "column " << i;
  }
  // An exact double hashes as the integer it equals, stored or literal.
  EXPECT_EQ(row->column(6).Hash(), Value::Int(3).Hash());
  EXPECT_NE(row->column(7).Hash(), Value::Int(2).Hash());
}

TEST(RowViewTest, EmptyAndLargeStrings) {
  TableSchema schema;
  schema.columns = {{"a", TypeId::kVarchar}, {"b", TypeId::kVarchar}};
  // A payload long enough to need a multi-byte varint length prefix.
  std::string big(100000, 'x');
  Tuple in = {Value::Varchar(""), Value::Varchar(big)};
  std::string bytes;
  EncodeTuple(schema, in, &bytes);

  auto row = RowView::Parse(schema, bytes);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->column(0).bytes(), "");
  EXPECT_FALSE(row->column(0).is_null());
  EXPECT_EQ(row->column(1).bytes().size(), big.size());
  Tuple out;
  row->Materialize(&out);
  ExpectTupleEq(in, out);
}

TEST(RowViewTest, ExtremeNumericsRoundTrip) {
  TableSchema schema;
  schema.columns = {{"lo", TypeId::kInteger},
                    {"hi", TypeId::kInteger},
                    {"inf", TypeId::kDouble},
                    {"tiny", TypeId::kDouble}};
  Tuple in = {Value::Int(std::numeric_limits<int64_t>::min()),
              Value::Int(std::numeric_limits<int64_t>::max()),
              Value::Double(std::numeric_limits<double>::infinity()),
              Value::Double(std::numeric_limits<double>::denorm_min())};
  std::string bytes;
  EncodeTuple(schema, in, &bytes);

  auto row = RowView::Parse(schema, bytes);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->column(0).AsInt(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(row->column(1).AsInt(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(row->column(2).AsDouble(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(row->column(3).AsDouble(),
            std::numeric_limits<double>::denorm_min());
}

TEST(RowViewTest, WideSchemaWalksPastTheInlineOffsetCache) {
  // More columns than RowView's 16 cached offsets: the tail columns take
  // the skip-forward path.
  TableSchema schema;
  Tuple in;
  for (int i = 0; i < 40; ++i) {
    std::string name(1, "isn"[i % 3]);
    name += std::to_string(i);
    if (i % 3 == 0) {
      schema.columns.push_back({name, TypeId::kInteger});
      in.push_back(Value::Int(i * 1000));
    } else if (i % 3 == 1) {
      schema.columns.push_back({name, TypeId::kVarchar});
      in.push_back(Value::Varchar(std::string(i, 'a')));
    } else {
      schema.columns.push_back({name, TypeId::kDouble});
      in.push_back(i % 6 == 2 ? Value::Null() : Value::Double(i * 0.5));
    }
  }
  std::string bytes;
  EncodeTuple(schema, in, &bytes);

  auto row = RowView::Parse(schema, bytes);
  ASSERT_TRUE(row.ok());
  // Random access across the cache boundary, in both directions.
  EXPECT_EQ(row->column(39).AsInt(), 39000);
  EXPECT_EQ(row->column(37).bytes(), std::string(37, 'a'));
  EXPECT_EQ(row->column(0).AsInt(), 0);
  Tuple out;
  row->Materialize(&out);
  ExpectTupleEq(in, out);
}

TEST(RowViewTest, MaterializeReusesTheTupleInPlace) {
  TableSchema schema = AllTypesSchema();
  std::string bytes1, bytes2;
  EncodeTuple(schema, AllTypesTuple(), &bytes1);
  Tuple second = {Value::Bool(false), Value::Int(7), Value::Null(),
                  Value::Varchar("x"), Value::Null()};
  EncodeTuple(schema, second, &bytes2);

  Tuple out;
  auto row1 = RowView::Parse(schema, bytes1);
  ASSERT_TRUE(row1.ok());
  row1->Materialize(&out);
  ExpectTupleEq(AllTypesTuple(), out);

  // Refill the same tuple: values (and the stale string payloads) must be
  // fully replaced, including columns that became null.
  auto row2 = RowView::Parse(schema, bytes2);
  ASSERT_TRUE(row2.ok());
  row2->Materialize(&out);
  ExpectTupleEq(second, out);
  EXPECT_TRUE(out[4].AsString().empty()) << "stale XADT payload leaked";
}

TEST(RowViewTest, AgreesWithDecodeTuple) {
  TableSchema schema = AllTypesSchema();
  Tuple in = {Value::Bool(false), Value::Null(), Value::Double(-0.0),
              Value::Varchar("differential"), Value::Xadt("")};
  std::string bytes;
  EncodeTuple(schema, in, &bytes);

  auto via_decode = DecodeTuple(schema, bytes);
  ASSERT_TRUE(via_decode.ok());
  auto row = RowView::Parse(schema, bytes);
  ASSERT_TRUE(row.ok());
  Tuple via_view;
  row->Materialize(&via_view);
  ExpectTupleEq(*via_decode, via_view);
}

TEST(RowViewTest, RejectsTruncatedBitmap) {
  TableSchema schema = AllTypesSchema();
  EXPECT_FALSE(RowView::Parse(schema, "").ok());
}

TEST(RowViewTest, RejectsTruncatedFixedWidthColumn) {
  TableSchema schema;
  schema.columns = {{"i", TypeId::kInteger}};
  std::string bytes;
  EncodeTuple(schema, {Value::Int(42)}, &bytes);
  for (size_t cut = 1; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(RowView::Parse(schema, bytes.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(RowViewTest, RejectsOverflowingStringLength) {
  TableSchema schema;
  schema.columns = {{"s", TypeId::kVarchar}};
  std::string bytes;
  bytes.push_back('\0');          // null bitmap: not null
  PutVarint(&bytes, 1000);        // claims 1000 bytes...
  bytes.append("short", 5);       // ...delivers 5
  EXPECT_FALSE(RowView::Parse(schema, bytes).ok());
}

TEST(RowViewTest, RejectsTrailingBytes) {
  TableSchema schema = AllTypesSchema();
  std::string bytes;
  EncodeTuple(schema, AllTypesTuple(), &bytes);
  bytes.push_back('!');
  EXPECT_FALSE(RowView::Parse(schema, bytes).ok());
  // DecodeTuple shares the validator, so it is equally strict.
  EXPECT_FALSE(DecodeTuple(schema, bytes).ok());
}

TEST(RowViewTest, RejectsTruncatedVarintPrefix) {
  TableSchema schema;
  schema.columns = {{"s", TypeId::kVarchar}};
  std::string bytes;
  bytes.push_back('\0');
  bytes.push_back(static_cast<char>(0x80));  // continuation bit, no next byte
  EXPECT_FALSE(RowView::Parse(schema, bytes).ok());
}

}  // namespace
}  // namespace xorator::ordb
