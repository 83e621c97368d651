#include "ordb/value.h"

#include <bit>

#include "common/safe_math.h"
#include "common/str_util.h"

namespace xorator::ordb {

std::string_view TypeName(TypeId t) {
  switch (t) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kBoolean:
      return "BOOLEAN";
    case TypeId::kInteger:
      return "INTEGER";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kVarchar:
      return "VARCHAR";
    case TypeId::kXadt:
      return "XADT";
  }
  return "?";
}

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  auto numeric = [](TypeId t) {
    return t == TypeId::kInteger || t == TypeId::kDouble ||
           t == TypeId::kBoolean;
  };
  if (numeric(type_) && numeric(other.type_)) {
    if (type_ == TypeId::kInteger && other.type_ == TypeId::kInteger) {
      return int_ < other.int_ ? -1 : (int_ > other.int_ ? 1 : 0);
    }
    double a = AsDouble();
    double b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  // Strings and XADT payloads compare bytewise.
  return str_.compare(other.str_) < 0 ? -1 : (str_ == other.str_ ? 0 : 1);
}

uint64_t HashValue(TypeId type, int64_t int_part, double double_part,
                   std::string_view bytes) {
  switch (type) {
    case TypeId::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case TypeId::kBoolean:
    case TypeId::kInteger:
      return xo::WrapMul(static_cast<uint64_t>(int_part),
                         0x9e3779b97f4a7c15ULL);
    case TypeId::kDouble: {
      // Hash doubles through their integer value when exact so that
      // 1 == 1.0 hashes consistently.
      auto as_int = static_cast<int64_t>(double_part);
      if (static_cast<double>(as_int) == double_part) {
        return xo::WrapMul(static_cast<uint64_t>(as_int),
                           0x9e3779b97f4a7c15ULL);
      }
      return xo::WrapMul(std::bit_cast<uint64_t>(double_part),
                         0x9e3779b97f4a7c15ULL);
    }
    case TypeId::kVarchar:
    case TypeId::kXadt:
      return Hash64(bytes);
  }
  return 0;
}

uint64_t Value::Hash() const { return HashValue(type_, int_, double_, str_); }

std::string Value::ToString() const {
  switch (type_) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kBoolean:
      return int_ ? "TRUE" : "FALSE";
    case TypeId::kInteger:
      return std::to_string(int_);
    case TypeId::kDouble:
      return std::to_string(double_);
    case TypeId::kVarchar:
      return str_;
    case TypeId::kXadt:
      return "[XADT " + std::to_string(str_.size()) + " bytes]";
  }
  return "?";
}

}  // namespace xorator::ordb
