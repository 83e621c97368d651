#ifndef XORATOR_ORDB_FUNCTIONS_H_
#define XORATOR_ORDB_FUNCTIONS_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "ordb/tuple.h"
#include "ordb/value.h"

namespace xorator::ordb {

/// Counters on user-defined-function dispatch, used by the Figure 14
/// experiment to quantify UDF overhead.
struct UdfStats {
  uint64_t scalar_calls = 0;
  uint64_t table_calls = 0;
  uint64_t marshaled_bytes = 0;
};

/// A scalar function. Built-ins are evaluated directly on the argument
/// values; functions registered with `is_udf = true` go through the UDF
/// dispatch path, which (like a real engine's UDF ABI) deep-copies every
/// argument into a private call frame before invocation and copies the
/// result back out.
struct ScalarFunction {
  std::string name;  // lower-case
  TypeId return_type = TypeId::kVarchar;
  int arity = -1;  // -1: variadic
  bool is_udf = false;
  std::function<Result<Value>(const std::vector<Value>&)> impl;
};

/// A table function (e.g. the paper's `unnest`): takes scalar arguments,
/// returns rows of `output` columns. `live` has one entry per output
/// column; a column whose entry is false is read by no operator of the
/// plan, so the function may skip computing it and leave it NULL.
struct TableFunction {
  std::string name;  // lower-case
  std::vector<ColumnDef> output;
  int arity = -1;
  bool is_udf = true;  // table functions are external UDFs in the paper
  std::function<Result<std::vector<Tuple>>(const std::vector<Value>& args,
                                           const ColumnMask& live)>
      impl;
};

/// Name-keyed registry of scalar and table functions. Lookup is
/// case-insensitive (names are interned lower-case).
class FunctionRegistry {
 public:
  /// Creates a registry pre-populated with the SQL built-ins
  /// (length, substr, upper, lower, concat) and their UDF twins
  /// (udf_length, udf_substr) used by the Figure 14 experiment.
  static FunctionRegistry WithBuiltins();

  [[nodiscard]] Status RegisterScalar(ScalarFunction fn);
  [[nodiscard]] Status RegisterTable(TableFunction fn);

  const ScalarFunction* FindScalar(std::string_view name) const;
  const TableFunction* FindTable(std::string_view name) const;

 private:
  std::map<std::string, ScalarFunction> scalar_;
  std::map<std::string, TableFunction> table_;
};

/// Invokes `fn` through the appropriate dispatch path. A UDF call is
/// counted in the udf_stats of the statement bound to the calling thread
/// (ExecContext::Current()), if any.
[[nodiscard]] Result<Value> InvokeScalar(const ScalarFunction& fn,
                                         const std::vector<Value>& args);

[[nodiscard]] Result<std::vector<Tuple>> InvokeTable(
    const TableFunction& fn, const std::vector<Value>& args,
    const ColumnMask& live);

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_FUNCTIONS_H_
