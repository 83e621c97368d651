#include "ordb/expr.h"

#include "common/str_util.h"

namespace xorator::ordb {

std::string_view CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Result<Value> ColumnRefExpr::Eval(const Tuple& row, ExecContext*) const {
  if (index_ >= row.size()) {
    return Status::Internal("column index " + std::to_string(index_) +
                            " out of range for row of " +
                            std::to_string(row.size()));
  }
  return row[index_];
}

std::string LiteralExpr::ToString() const {
  if (value_.type() != TypeId::kVarchar) return value_.ToString();
  std::string out = "'";
  out += value_.ToString();
  out += "'";
  return out;
}

Result<Value> CompareExpr::Eval(const Tuple& row, ExecContext* ctx) const {
  XO_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, ctx));
  XO_ASSIGN_OR_RETURN(Value b, rhs_->Eval(row, ctx));
  if (a.is_null() || b.is_null()) return Value::Bool(false);
  int c = a.Compare(b);
  switch (op_) {
    case CompareOp::kEq:
      return Value::Bool(c == 0);
    case CompareOp::kNe:
      return Value::Bool(c != 0);
    case CompareOp::kLt:
      return Value::Bool(c < 0);
    case CompareOp::kLe:
      return Value::Bool(c <= 0);
    case CompareOp::kGt:
      return Value::Bool(c > 0);
    case CompareOp::kGe:
      return Value::Bool(c >= 0);
  }
  return Status::Internal("bad compare op");
}

std::string CompareExpr::ToString() const {
  return lhs_->ToString() + " " + std::string(CompareOpName(op_)) + " " +
         rhs_->ToString();
}

Result<Value> LogicExpr::Eval(const Tuple& row, ExecContext* ctx) const {
  XO_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, ctx));
  bool av = !a.is_null() && a.AsBool();
  switch (kind_) {
    case Kind::kNot:
      return Value::Bool(!av);
    case Kind::kAnd: {
      if (!av) return Value::Bool(false);
      XO_ASSIGN_OR_RETURN(Value b, rhs_->Eval(row, ctx));
      return Value::Bool(!b.is_null() && b.AsBool());
    }
    case Kind::kOr: {
      if (av) return Value::Bool(true);
      XO_ASSIGN_OR_RETURN(Value b, rhs_->Eval(row, ctx));
      return Value::Bool(!b.is_null() && b.AsBool());
    }
  }
  return Status::Internal("bad logic op");
}

std::string LogicExpr::ToString() const {
  switch (kind_) {
    case Kind::kNot: {
      std::string out = "NOT (";
      out += lhs_->ToString();
      out += ")";
      return out;
    }
    case Kind::kAnd:
    case Kind::kOr: {
      std::string out = "(";
      out += lhs_->ToString();
      out += kind_ == Kind::kAnd ? " AND " : " OR ";
      out += rhs_->ToString();
      out += ")";
      return out;
    }
  }
  return "?";
}

Result<Value> LikeExpr::Eval(const Tuple& row, ExecContext* ctx) const {
  XO_ASSIGN_OR_RETURN(Value v, input_->Eval(row, ctx));
  if (v.is_null()) return Value::Bool(false);
  return Value::Bool(LikeMatch(v.AsString(), pattern_));
}

std::string LikeExpr::ToString() const {
  return input_->ToString() + " LIKE '" + pattern_ + "'";
}

Result<Value> IsNullExpr::Eval(const Tuple& row, ExecContext* ctx) const {
  XO_ASSIGN_OR_RETURN(Value v, input_->Eval(row, ctx));
  return Value::Bool(negated_ ? !v.is_null() : v.is_null());
}

std::string IsNullExpr::ToString() const {
  return input_->ToString() + (negated_ ? " IS NOT NULL" : " IS NULL");
}

Result<Value> FunctionExpr::Eval(const Tuple& row, ExecContext* ctx) const {
  std::vector<Value> args;
  args.reserve(args_.size());
  for (const ExprPtr& a : args_) {
    XO_ASSIGN_OR_RETURN(Value v, a->Eval(row, ctx));
    args.push_back(std::move(v));
  }
  return InvokeScalar(*fn_, args, ctx != nullptr ? &ctx->udf_stats : nullptr);
}

std::string FunctionExpr::ToString() const {
  std::string out = fn_->name + "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  return out + ")";
}

}  // namespace xorator::ordb
