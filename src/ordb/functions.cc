#include "ordb/functions.h"

#include "common/str_util.h"

namespace xorator::ordb {

namespace {

Status CheckArity(std::string_view name, int arity, size_t given) {
  if (arity >= 0 && static_cast<size_t>(arity) != given) {
    return Status::InvalidArgument(std::string(name) + " expects " +
                                   std::to_string(arity) + " arguments, got " +
                                   std::to_string(given));
  }
  return Status::OK();
}

Result<Value> BuiltinLength(const std::vector<Value>& args) {
  if (args[0].is_null()) return Value::Null();
  return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
}

// substr(s, start [, len]) with 1-based start, like DB2's substr.
Result<Value> BuiltinSubstr(const std::vector<Value>& args) {
  if (args.size() < 2 || args.size() > 3) {
    return Status::InvalidArgument("substr expects 2 or 3 arguments");
  }
  if (args[0].is_null() || args[1].is_null()) return Value::Null();
  const std::string& s = args[0].AsString();
  int64_t start = args[1].AsInt();
  if (start < 1) start = 1;
  size_t from = static_cast<size_t>(start - 1);
  if (from >= s.size()) return Value::Varchar("");
  size_t len = s.size() - from;
  if (args.size() == 3 && !args[2].is_null()) {
    int64_t want = args[2].AsInt();
    if (want < 0) want = 0;
    len = std::min<size_t>(len, static_cast<size_t>(want));
  }
  return Value::Varchar(s.substr(from, len));
}

Result<Value> BuiltinUpper(const std::vector<Value>& args) {
  if (args[0].is_null()) return Value::Null();
  return Value::Varchar(ToUpper(args[0].AsString()));
}

Result<Value> BuiltinLower(const std::vector<Value>& args) {
  if (args[0].is_null()) return Value::Null();
  return Value::Varchar(ToLower(args[0].AsString()));
}

Result<Value> BuiltinConcat(const std::vector<Value>& args) {
  std::string out;
  for (const Value& v : args) {
    if (!v.is_null()) out += v.AsString();
  }
  return Value::Varchar(std::move(out));
}

}  // namespace

FunctionRegistry FunctionRegistry::WithBuiltins() {
  FunctionRegistry reg;
  auto add = [&reg](std::string name, TypeId ret, int arity, bool udf,
                    std::function<Result<Value>(const std::vector<Value>&)>
                        impl) {
    ScalarFunction fn;
    fn.name = std::move(name);
    fn.return_type = ret;
    fn.arity = arity;
    fn.is_udf = udf;
    fn.impl = std::move(impl);
    XO_DISCARD_STATUS(reg.RegisterScalar(std::move(fn)),
                      "the built-in names are unique by construction, so "
                      "kAlreadyExists cannot occur here");
  };
  add("length", TypeId::kInteger, 1, false, BuiltinLength);
  add("substr", TypeId::kVarchar, -1, false, BuiltinSubstr);
  add("upper", TypeId::kVarchar, 1, false, BuiltinUpper);
  add("lower", TypeId::kVarchar, 1, false, BuiltinLower);
  add("concat", TypeId::kVarchar, -1, false, BuiltinConcat);
  // UDF twins of the built-ins: identical logic, UDF dispatch path. These
  // back the paper's Figure 14 overhead experiment (QT1/QT2).
  add("udf_length", TypeId::kInteger, 1, true, BuiltinLength);
  add("udf_substr", TypeId::kVarchar, -1, true, BuiltinSubstr);
  return reg;
}

Status FunctionRegistry::RegisterScalar(ScalarFunction fn) {
  std::string key = ToLower(fn.name);
  fn.name = key;
  if (!scalar_.emplace(key, std::move(fn)).second) {
    return Status::AlreadyExists("scalar function '" + key + "' exists");
  }
  return Status::OK();
}

Status FunctionRegistry::RegisterTable(TableFunction fn) {
  std::string key = ToLower(fn.name);
  fn.name = key;
  if (!table_.emplace(key, std::move(fn)).second) {
    return Status::AlreadyExists("table function '" + key + "' exists");
  }
  return Status::OK();
}

const ScalarFunction* FunctionRegistry::FindScalar(
    std::string_view name) const {
  auto it = scalar_.find(ToLower(name));
  return it == scalar_.end() ? nullptr : &it->second;
}

const TableFunction* FunctionRegistry::FindTable(std::string_view name) const {
  auto it = table_.find(ToLower(name));
  return it == table_.end() ? nullptr : &it->second;
}

Result<Value> InvokeScalar(const ScalarFunction& fn,
                           const std::vector<Value>& args, UdfStats* stats) {
  XO_RETURN_NOT_OK(CheckArity(fn.name, fn.arity, args.size()));
  if (!fn.is_udf) {
    return fn.impl(args);
  }
  // UDF ABI emulation: marshal arguments into a private call frame. The
  // deep copies model crossing the engine/UDF boundary, where argument
  // storage is handed to the function by value (DB2 passes UDF arguments
  // in separate buffers even in NOT FENCED mode).
  std::vector<Value> frame;
  frame.reserve(args.size());
  uint64_t bytes = 0;
  for (const Value& v : args) {
    switch (v.type()) {
      case TypeId::kVarchar: {
        std::string copy(v.AsString().data(), v.AsString().size());
        bytes += copy.size();
        frame.push_back(Value::Varchar(std::move(copy)));
        break;
      }
      case TypeId::kXadt: {
        std::string copy(v.AsString().data(), v.AsString().size());
        bytes += copy.size();
        frame.push_back(Value::Xadt(std::move(copy)));
        break;
      }
      default:
        bytes += 8;
        frame.push_back(v);
    }
  }
  if (stats != nullptr) {
    ++stats->scalar_calls;
    stats->marshaled_bytes += bytes;
  }
  XO_ASSIGN_OR_RETURN(Value result, fn.impl(frame));
  // Marshal the result back out of the call frame.
  if (result.type() == TypeId::kVarchar) {
    std::string copy(result.AsString().data(), result.AsString().size());
    if (stats != nullptr) stats->marshaled_bytes += copy.size();
    return Value::Varchar(std::move(copy));
  }
  if (result.type() == TypeId::kXadt) {
    std::string copy(result.AsString().data(), result.AsString().size());
    if (stats != nullptr) stats->marshaled_bytes += copy.size();
    return Value::Xadt(std::move(copy));
  }
  return result;
}

Result<std::vector<Tuple>> InvokeTable(const TableFunction& fn,
                                       const std::vector<Value>& args,
                                       const ColumnMask& live,
                                       UdfStats* stats) {
  XO_RETURN_NOT_OK(CheckArity(fn.name, fn.arity, args.size()));
  if (stats != nullptr && fn.is_udf) ++stats->table_calls;
  return fn.impl(args, live);
}

}  // namespace xorator::ordb
