#ifndef XORATOR_ORDB_EXPR_H_
#define XORATOR_ORDB_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "ordb/functions.h"
#include "ordb/tuple.h"

namespace xorator::ordb {

/// Comparison operators.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
std::string_view CompareOpName(CompareOp op);

/// A bound, executable expression tree evaluated against a row.
class Expr {
 public:
  virtual ~Expr() = default;
  [[nodiscard]] virtual Result<Value> Eval(const Tuple& row) const = 0;
  virtual TypeId type() const = 0;
  virtual std::string ToString() const = 0;
};

using ExprPtr = std::unique_ptr<Expr>;

/// Reference to column `index` of the operator's output row.
class ColumnRefExpr : public Expr {
 public:
  ColumnRefExpr(size_t index, std::string name, TypeId type)
      : index_(index), name_(std::move(name)), type_(type) {}

  size_t index() const { return index_; }
  const std::string& name() const { return name_; }

  [[nodiscard]] Result<Value> Eval(const Tuple& row) const override;
  TypeId type() const override { return type_; }
  std::string ToString() const override { return name_; }

 private:
  size_t index_;
  std::string name_;
  TypeId type_;
};

/// A constant value.
class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {}

  const Value& value() const { return value_; }

  [[nodiscard]] Result<Value> Eval(const Tuple&) const override {
    return value_;
  }
  TypeId type() const override { return value_.type(); }
  std::string ToString() const override;

 private:
  Value value_;
};

/// Binary comparison (=, <>, <, <=, >, >=) with SQL NULL semantics.
class CompareExpr : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  CompareOp op() const { return op_; }
  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

  [[nodiscard]] Result<Value> Eval(const Tuple& row) const override;
  TypeId type() const override { return TypeId::kBoolean; }
  std::string ToString() const override;

 private:
  CompareOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// AND / OR with short-circuit evaluation; NOT has a single child.
class LogicExpr : public Expr {
 public:
  enum class Kind { kAnd, kOr, kNot };

  LogicExpr(Kind kind, ExprPtr lhs, ExprPtr rhs)
      : kind_(kind), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  [[nodiscard]] Result<Value> Eval(const Tuple& row) const override;
  TypeId type() const override { return TypeId::kBoolean; }
  std::string ToString() const override;

 private:
  Kind kind_;
  ExprPtr lhs_;
  ExprPtr rhs_;  // null for kNot
};

/// SQL LIKE with a constant pattern.
class LikeExpr : public Expr {
 public:
  LikeExpr(ExprPtr input, std::string pattern)
      : input_(std::move(input)), pattern_(std::move(pattern)) {}

  [[nodiscard]] Result<Value> Eval(const Tuple& row) const override;
  TypeId type() const override { return TypeId::kBoolean; }
  std::string ToString() const override;

 private:
  ExprPtr input_;
  std::string pattern_;
};

/// IS NULL / IS NOT NULL.
class IsNullExpr : public Expr {
 public:
  IsNullExpr(ExprPtr input, bool negated)
      : input_(std::move(input)), negated_(negated) {}

  [[nodiscard]] Result<Value> Eval(const Tuple& row) const override;
  TypeId type() const override { return TypeId::kBoolean; }
  std::string ToString() const override;

 private:
  ExprPtr input_;
  bool negated_;
};

/// A call to a registered scalar function; UDFs go through the marshaling
/// dispatch in InvokeScalar.
class FunctionExpr : public Expr {
 public:
  FunctionExpr(const ScalarFunction* fn, std::vector<ExprPtr> args)
      : fn_(fn), args_(std::move(args)) {}

  const ScalarFunction& fn() const { return *fn_; }

  [[nodiscard]] Result<Value> Eval(const Tuple& row) const override;
  TypeId type() const override { return fn_->return_type; }
  std::string ToString() const override;

 private:
  const ScalarFunction* fn_;
  std::vector<ExprPtr> args_;
};

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_EXPR_H_
