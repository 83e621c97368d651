#ifndef XORATOR_ORDB_VALUE_H_
#define XORATOR_ORDB_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/lifetime.h"
#include "common/result.h"

namespace xorator::ordb {

/// Runtime type of a `Value`.
enum class TypeId : uint8_t {
  kNull = 0,
  kBoolean,
  kInteger,  // 64-bit signed
  kDouble,
  kVarchar,
  kXadt,  // encoded XADT bytes (see xadt/xadt.h)
};

std::string_view TypeName(TypeId t);

/// The hash of a value of `type` (kNull for NULL) whose numeric part is
/// `int_part` (integers, booleans) or `double_part` and whose string or
/// XADT payload is `bytes`. `Value::Hash` and `ValueView::Hash` both call
/// it, so a row hashed in place agrees with the Values it decodes to.
uint64_t HashValue(TypeId type, int64_t int_part, double double_part,
                   std::string_view bytes);

/// A dynamically-typed SQL value. Strings and XADT payloads share the string
/// storage; nulls are typed `kNull`.
class Value {
 public:
  Value() : type_(TypeId::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) {
    Value v;
    v.type_ = TypeId::kBoolean;
    v.int_ = b ? 1 : 0;
    return v;
  }
  static Value Int(int64_t i) {
    Value v;
    v.type_ = TypeId::kInteger;
    v.int_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.type_ = TypeId::kDouble;
    v.double_ = d;
    return v;
  }
  static Value Varchar(std::string s) {
    Value v;
    v.type_ = TypeId::kVarchar;
    v.str_ = std::move(s);
    return v;
  }
  static Value Xadt(std::string bytes) {
    Value v;
    v.type_ = TypeId::kXadt;
    v.str_ = std::move(bytes);
    return v;
  }

  // In-place re-assignment, used by RowView::Materialize (row_codec.h) so a
  // scan loop can refill the same Tuple row after row: the string setters
  // assign into str_, reusing its capacity, so the steady state allocates
  // nothing. SetNull() clears (but keeps) the string storage so a stale
  // payload can never leak through AsString().
  void SetNull() {
    type_ = TypeId::kNull;
    int_ = 0;
    double_ = 0;
    str_.clear();
  }
  void SetBool(bool b) {
    type_ = TypeId::kBoolean;
    int_ = b ? 1 : 0;
    double_ = 0;
    str_.clear();
  }
  void SetInt(int64_t i) {
    type_ = TypeId::kInteger;
    int_ = i;
    double_ = 0;
    str_.clear();
  }
  void SetDouble(double d) {
    type_ = TypeId::kDouble;
    int_ = 0;
    double_ = d;
    str_.clear();
  }
  void SetVarchar(std::string_view s) {
    type_ = TypeId::kVarchar;
    int_ = 0;
    double_ = 0;
    str_.assign(s);
  }
  void SetXadt(std::string_view bytes) {
    type_ = TypeId::kXadt;
    int_ = 0;
    double_ = 0;
    str_.assign(bytes);
  }

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  bool AsBool() const { return int_ != 0; }
  int64_t AsInt() const { return int_; }
  double AsDouble() const {
    return type_ == TypeId::kDouble ? double_ : static_cast<double>(int_);
  }
  /// VARCHAR text or raw XADT bytes. The reference borrows from this Value
  /// (statically checked under Clang, DESIGN.md section 14).
  const std::string& AsString() const XO_LIFETIME_BOUND { return str_; }
  std::string&& TakeString() XO_LIFETIME_BOUND { return std::move(str_); }

  /// Three-way comparison; requires comparable types (numeric/numeric or
  /// same type). Nulls compare less than everything (used only for sorting).
  int Compare(const Value& other) const;
  bool Equals(const Value& other) const { return Compare(other) == 0; }

  /// Hash consistent with Equals for join/group keys.
  uint64_t Hash() const;

  /// Display rendering ("NULL", integers, text; XADT as a size tag —
  /// callers that want XML should decode via xadt::ToXmlString).
  std::string ToString() const;

 private:
  TypeId type_;
  int64_t int_ = 0;
  double double_ = 0;
  std::string str_;
};

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_VALUE_H_
