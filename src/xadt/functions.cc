#include "xadt/functions.h"

#include "ordb/health.h"
#include "ordb/query_guard.h"
#include "xadt/xadt.h"

namespace xorator::xadt {

namespace {

using ordb::ScalarFunction;
using ordb::TableFunction;
using ordb::Tuple;
using ordb::TypeId;
using ordb::Value;

// Entry-point cancellation poll. UDF implementations receive only their
// marshaled arguments (no ExecContext — the UDF ABI, ordb/functions.h), so
// they consult the statement guard the Database layer binds thread-locally
// around execution (DESIGN.md §12); the fragment scanner then polls the
// same guard once per event for the duration of the scan.
Status GuardEntry() {
  ordb::QueryGuard* guard = ordb::CurrentGuard();
  return guard == nullptr ? Status::OK() : guard->CheckPoint();
}

Status ExpectXadt(const Value& v, std::string_view fn) {
  if (v.type() != TypeId::kXadt && v.type() != TypeId::kVarchar &&
      !v.is_null()) {
    return Status::InvalidArgument(std::string(fn) +
                                   ": first argument must be an XADT value");
  }
  return Status::OK();
}

Result<Value> GetElmImpl(const std::vector<Value>& args) {
  XO_RETURN_NOT_OK(GuardEntry());
  if (args.size() != 4 && args.size() != 5) {
    return Status::InvalidArgument("getElm expects 4 or 5 arguments");
  }
  XO_RETURN_NOT_OK(ExpectXadt(args[0], "getElm"));
  if (args[0].is_null()) return Value::Null();
  int level = 0;
  if (args.size() == 5 && !args[4].is_null()) {
    level = static_cast<int>(args[4].AsInt());
  }
  XO_ASSIGN_OR_RETURN(
      std::string out,
      GetElm(args[0].AsString(), args[1].AsString(), args[2].AsString(),
             args[3].AsString(), level));
  return Value::Xadt(std::move(out));
}

Result<Value> FindKeyInElmImpl(const std::vector<Value>& args) {
  XO_RETURN_NOT_OK(GuardEntry());
  XO_RETURN_NOT_OK(ExpectXadt(args[0], "findKeyInElm"));
  if (args[0].is_null()) return Value::Int(0);
  XO_ASSIGN_OR_RETURN(int64_t found,
                      FindKeyInElm(args[0].AsString(), args[1].AsString(),
                                   args[2].AsString()));
  return Value::Int(found);
}

Result<Value> GetElmIndexImpl(const std::vector<Value>& args) {
  XO_RETURN_NOT_OK(GuardEntry());
  XO_RETURN_NOT_OK(ExpectXadt(args[0], "getElmIndex"));
  if (args[0].is_null()) return Value::Null();
  XO_ASSIGN_OR_RETURN(
      std::string out,
      GetElmIndex(args[0].AsString(), args[1].AsString(), args[2].AsString(),
                  static_cast<int>(args[3].AsInt()),
                  static_cast<int>(args[4].AsInt())));
  return Value::Xadt(std::move(out));
}

Result<Value> ToXmlImpl(const std::vector<Value>& args) {
  XO_RETURN_NOT_OK(GuardEntry());
  if (args[0].is_null()) return Value::Null();
  XO_ASSIGN_OR_RETURN(std::string xml, ToXmlString(args[0].AsString()));
  return Value::Varchar(std::move(xml));
}

Result<Value> TextImpl(const std::vector<Value>& args) {
  XO_RETURN_NOT_OK(GuardEntry());
  if (args[0].is_null()) return Value::Null();
  XO_ASSIGN_OR_RETURN(std::string text, TextContent(args[0].AsString()));
  return Value::Varchar(std::move(text));
}

/// True when a kCorruption/kParseError failure on one fragment should be
/// skipped (and counted) rather than fail the whole unnest — the
/// degraded-scan contract (DESIGN.md §13): a damaged XADT value loses its
/// own fragments, not the query.
bool SkipFragmentFailure(const Status& s) {
  ordb::DegradedScan* scan = ordb::CurrentDegradedScan();
  if (scan == nullptr) return false;
  if (s.code() != StatusCode::kCorruption &&
      s.code() != StatusCode::kParseError) {
    return false;
  }
  ++scan->skipped_fragments;
  return true;
}

Result<std::vector<Tuple>> UnnestImpl(const std::vector<Value>& args,
                                      const ordb::ColumnMask& live) {
  XO_RETURN_NOT_OK(GuardEntry());
  std::vector<Tuple> out;
  if (args[0].is_null()) return out;
  // Output columns (out VARCHAR, frag XADT): a dead one stays NULL and is
  // never built.
  const bool want_text = live[0];
  const bool want_frag = live[1];
  Status scanned = UnnestElements(
      args[0].AsString(), args[1].AsString(), want_text, want_frag,
      [&](std::string text, std::string frag) {
        Tuple& row = out.emplace_back(2);
        if (want_text) row[0] = Value::Varchar(std::move(text));
        if (want_frag) row[1] = Value::Xadt(std::move(frag));
        return Status::OK();
      });
  if (!scanned.ok()) {
    // A damaged value loses all of its own rows, never part of them.
    if (SkipFragmentFailure(scanned)) return std::vector<Tuple>();
    return scanned;
  }
  return out;
}

}  // namespace

Status RegisterXadtFunctions(ordb::FunctionRegistry* registry) {
  auto scalar = [&](std::string name, TypeId ret, int arity,
                    std::function<Result<Value>(const std::vector<Value>&)>
                        impl) -> Status {
    ScalarFunction fn;
    fn.name = std::move(name);
    fn.return_type = ret;
    fn.arity = arity;
    fn.is_udf = true;
    fn.impl = std::move(impl);
    return registry->RegisterScalar(std::move(fn));
  };
  XO_RETURN_NOT_OK(scalar("getelm", TypeId::kXadt, -1, GetElmImpl));
  XO_RETURN_NOT_OK(
      scalar("findkeyinelm", TypeId::kInteger, 3, FindKeyInElmImpl));
  XO_RETURN_NOT_OK(scalar("getelmindex", TypeId::kXadt, 5, GetElmIndexImpl));
  XO_RETURN_NOT_OK(scalar("xadttoxml", TypeId::kVarchar, 1, ToXmlImpl));
  XO_RETURN_NOT_OK(scalar("xadttext", TypeId::kVarchar, 1, TextImpl));

  TableFunction unnest;
  unnest.name = "unnest";
  unnest.arity = 2;
  unnest.is_udf = true;
  unnest.output = {{"out", TypeId::kVarchar}, {"frag", TypeId::kXadt}};
  unnest.impl = UnnestImpl;
  XO_RETURN_NOT_OK(registry->RegisterTable(std::move(unnest)));
  return Status::OK();
}

}  // namespace xorator::xadt
