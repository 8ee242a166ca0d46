#ifndef MDJOIN_EXPR_EVAL_OPS_H_
#define MDJOIN_EXPR_EVAL_OPS_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "expr/expr.h"
#include "types/value.h"

namespace mdjoin {
namespace expr_internal {

/// The Value × Value operator semantics, defined once. The bytecode
/// interpreter (expr/bytecode.cc), the predicate kernels' per-cell fallbacks
/// (expr/kernels.cc) and the Definition 3.1 oracle's tree walker
/// (core/reference.cc) all call these, so an expression means the same thing
/// on every path; the fuzz suites check the engine against the oracle.

/// Arithmetic. NULL, ALL or a non-numeric operand gives NULL. int64 ∘ int64
/// stays int64 (except `/`) and never overflows: a result outside int64 is
/// NULL, like division by zero, and `x % -1` is 0 for every x (computing it
/// would trap on INT64_MIN).
inline Value EvalArith(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null() || a.is_all() || b.is_all()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) return Value::Null();
  if (a.is_int64() && b.is_int64() && op != BinaryOp::kDiv) {
    const int64_t x = a.int64(), y = b.int64();
    int64_t r = 0;
    switch (op) {
      case BinaryOp::kAdd:
        return __builtin_add_overflow(x, y, &r) ? Value::Null() : Value::Int64(r);
      case BinaryOp::kSub:
        return __builtin_sub_overflow(x, y, &r) ? Value::Null() : Value::Int64(r);
      case BinaryOp::kMul:
        return __builtin_mul_overflow(x, y, &r) ? Value::Null() : Value::Int64(r);
      case BinaryOp::kMod:
        if (y == 0) return Value::Null();
        return Value::Int64(y == -1 ? 0 : x % y);
      default:
        break;
    }
  }
  double x = a.AsDouble(), y = b.AsDouble();
  switch (op) {
    case BinaryOp::kAdd:
      return Value::Float64(x + y);
    case BinaryOp::kSub:
      return Value::Float64(x - y);
    case BinaryOp::kMul:
      return Value::Float64(x * y);
    case BinaryOp::kDiv:
      return y == 0 ? Value::Null() : Value::Float64(x / y);
    case BinaryOp::kMod:
      return y == 0 ? Value::Null() : Value::Float64(std::fmod(x, y));
    default:
      break;
  }
  return Value::Null();
}

/// Unary minus: -int / -float, NULL for anything else and for INT64_MIN,
/// whose negation does not fit.
inline Value EvalNegate(const Value& v) {
  if (v.is_int64()) {
    if (v.int64() == std::numeric_limits<int64_t>::min()) return Value::Null();
    return Value::Int64(-v.int64());
  }
  if (v.is_float64()) return Value::Float64(-v.float64());
  return Value::Null();
}

/// NOT: NULL → false, else the negated truthiness.
inline Value EvalNot(const Value& v) {
  return Value::Bool(!v.is_null() && !v.IsTruthy());
}

/// IN-list membership under θ-equality (an ALL candidate or cell matches any
/// non-NULL value).
inline bool MatchesAny(const Value& v, const std::vector<Value>& candidates) {
  for (const Value& c : candidates) {
    if (v.MatchesEq(c)) return true;
  }
  return false;
}

/// Comparison verdict. `=` is θ-equality (ALL wildcard); `<>` is false on
/// NULL; ordered comparisons are false on NULL or ALL and for mixed
/// string/numeric operands, and otherwise go through Value::Compare (which
/// orders NaN "equal" to every number, so NaN <= x and NaN >= x hold).
inline bool CompareHolds(BinaryOp op, const Value& a, const Value& b) {
  if (op == BinaryOp::kEq) return a.MatchesEq(b);
  if (op == BinaryOp::kNe) {
    if (a.is_null() || b.is_null()) return false;
    return !a.MatchesEq(b);
  }
  if (a.is_null() || b.is_null() || a.is_all() || b.is_all()) return false;
  // Mixed numeric/string comparison is false rather than an error: θ-conditions
  // meet heterogeneous data during exploratory queries.
  bool comparable = (a.is_numeric() && b.is_numeric()) || (a.is_string() && b.is_string());
  if (!comparable) return false;
  int c = a.Compare(b);
  switch (op) {
    case BinaryOp::kLt:
      return c < 0;
    case BinaryOp::kLe:
      return c <= 0;
    case BinaryOp::kGt:
      return c > 0;
    case BinaryOp::kGe:
      return c >= 0;
    default:
      break;
  }
  return false;
}

inline Value EvalCompare(BinaryOp op, const Value& a, const Value& b) {
  return Value::Bool(CompareHolds(op, a, b));
}

}  // namespace expr_internal
}  // namespace mdjoin

#endif  // MDJOIN_EXPR_EVAL_OPS_H_
