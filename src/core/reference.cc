#include "core/reference.h"

#include "common/logging.h"
#include "expr/compile.h"
#include "expr/eval_ops.h"

namespace mdjoin {

Value EvalReference(const Expr& expr, const RowCtx& ctx) {
  using namespace expr_internal;  // NOLINT
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return expr.literal();
    case ExprKind::kColumnRef: {
      const bool base = expr.side() == Side::kBase;
      const Table* table = base ? ctx.base : ctx.detail;
      MDJ_CHECK(table != nullptr) << "no table for " << expr.ToString();
      std::optional<int> col = table->schema().FindField(expr.column_name());
      MDJ_CHECK(col.has_value()) << "unknown column " << expr.ToString();
      return table->Get(base ? ctx.base_row : ctx.detail_row, *col);
    }
    case ExprKind::kUnary: {
      const Value v = EvalReference(*expr.operand(), ctx);
      switch (expr.unary_op()) {
        case UnaryOp::kNot:
          return EvalNot(v);
        case UnaryOp::kNegate:
          return EvalNegate(v);
        case UnaryOp::kIsNull:
          return Value::Bool(v.is_null());
      }
      break;
    }
    case ExprKind::kIn:
      return Value::Bool(MatchesAny(EvalReference(*expr.operand(), ctx), expr.candidates()));
    case ExprKind::kCase:
      for (const auto& [when, then] : expr.when_then()) {
        if (EvalReference(*when, ctx).IsTruthy()) return EvalReference(*then, ctx);
      }
      return expr.else_expr() != nullptr ? EvalReference(*expr.else_expr(), ctx)
                                         : Value::Null();
    case ExprKind::kBinary: {
      const BinaryOp op = expr.binary_op();
      // AND / OR short-circuit: the right operand is not evaluated once the
      // left decides.
      if (op == BinaryOp::kAnd) {
        return Value::Bool(EvalReference(*expr.left(), ctx).IsTruthy() &&
                           EvalReference(*expr.right(), ctx).IsTruthy());
      }
      if (op == BinaryOp::kOr) {
        return Value::Bool(EvalReference(*expr.left(), ctx).IsTruthy() ||
                           EvalReference(*expr.right(), ctx).IsTruthy());
      }
      const Value a = EvalReference(*expr.left(), ctx);
      const Value b = EvalReference(*expr.right(), ctx);
      switch (op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          return EvalArith(op, a, b);
        default:
          return EvalCompare(op, a, b);
      }
    }
  }
  MDJ_CHECK(false) << "unreachable expression node " << expr.ToString();
  return Value::Null();
}

Result<Table> MdJoinReference(const Table& base, const Table& detail,
                              const std::vector<AggSpec>& aggs, const ExprPtr& theta) {
  if (theta == nullptr) {
    return Status::InvalidArgument("MdJoinReference: θ-condition must not be null");
  }
  // Binding reports unknown columns, absent sides and type errors as a
  // Status; the scan below only evaluates through EvalReference.
  MDJ_ASSIGN_OR_RETURN(std::vector<BoundAgg> bound,
                       BindAggs(aggs, &base.schema(), &detail.schema()));
  MDJ_RETURN_NOT_OK(CompileExpr(theta, &base.schema(), &detail.schema()).status());

  std::vector<Field> fields = base.schema().fields();
  for (const BoundAgg& b : bound) fields.push_back(b.output_field);
  Table out{Schema(std::move(fields))};
  out.Reserve(base.num_rows());

  RowCtx ctx;
  ctx.base = &base;
  ctx.detail = &detail;
  for (int64_t b = 0; b < base.num_rows(); ++b) {
    ctx.base_row = b;
    std::vector<std::unique_ptr<AggregateState>> states;
    states.reserve(bound.size());
    for (const BoundAgg& agg : bound) states.push_back(agg.fn->MakeState());
    for (int64_t t = 0; t < detail.num_rows(); ++t) {
      ctx.detail_row = t;
      if (!EvalReference(*theta, ctx).IsTruthy()) continue;
      for (size_t i = 0; i < bound.size(); ++i) {
        // count(*) counts every match; feed it a non-NULL token.
        const ExprPtr& arg = aggs[i].argument;
        bound[i].fn->Update(states[i].get(),
                            arg != nullptr ? EvalReference(*arg, ctx) : Value::Int64(1));
      }
    }
    std::vector<Value> row = base.GetRow(b);
    for (size_t i = 0; i < bound.size(); ++i) {
      row.push_back(bound[i].fn->Finalize(*states[i]));
    }
    out.AppendRowUnchecked(std::move(row));
  }
  return out;
}

}  // namespace mdjoin
