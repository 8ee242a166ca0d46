#include "expr/bytecode.h"

#include <utility>

#include "common/logging.h"
#include "expr/eval_ops.h"
#include "table/table.h"

namespace mdjoin {

namespace {

using OpCode = BytecodeExpr::OpCode;
using Instr = BytecodeExpr::Instr;

const char* OpName(OpCode op) {
  switch (op) {
    case OpCode::kPushLit:
      return "push_lit";
    case OpCode::kPushNull:
      return "push_null";
    case OpCode::kLoadBase:
      return "load_base";
    case OpCode::kLoadDetail:
      return "load_detail";
    case OpCode::kNot:
      return "not";
    case OpCode::kNegate:
      return "negate";
    case OpCode::kIsNull:
      return "is_null";
    case OpCode::kIn:
      return "in";
    case OpCode::kCompare:
      return "compare";
    case OpCode::kArith:
      return "arith";
    case OpCode::kAndJump:
      return "and_jump";
    case OpCode::kOrJump:
      return "or_jump";
    case OpCode::kToBool:
      return "to_bool";
    case OpCode::kJump:
      return "jump";
    case OpCode::kJumpIfNotTruthy:
      return "jump_if_not";
  }
  return "?";
}

/// Recursive postfix emitter. Jump operands are patched as targets become
/// known; every case leaves exactly one more value on the evaluation stack
/// and returns the static type of that value.
struct Emitter {
  const Schema* base;
  const Schema* detail;
  std::vector<Instr> code;
  std::vector<Value> literals;
  std::vector<std::vector<Value>> in_lists;

  int32_t AddLiteral(Value v) {
    literals.push_back(std::move(v));
    return static_cast<int32_t>(literals.size()) - 1;
  }

  int32_t Here() const { return static_cast<int32_t>(code.size()); }

  Result<DataType> Emit(const ExprPtr& expr) {
    switch (expr->kind()) {
      case ExprKind::kLiteral: {
        const Value& v = expr->literal();
        code.push_back({OpCode::kPushLit, 0, AddLiteral(v)});
        Result<DataType> t = v.Type();  // NULL and ALL have none
        return t.ok() ? *t : DataType::kInt64;
      }
      case ExprKind::kColumnRef: {
        const Schema* schema = expr->side() == Side::kBase ? base : detail;
        const char* side_name = expr->side() == Side::kBase ? "base" : "detail";
        if (schema == nullptr) {
          return Status::BindError("column ", expr->ToString(), " references the ",
                                   side_name,
                                   " side, which is absent in this context");
        }
        MDJ_ASSIGN_OR_RETURN(int idx, schema->GetFieldIndex(expr->column_name()));
        code.push_back({expr->side() == Side::kBase ? OpCode::kLoadBase
                                                    : OpCode::kLoadDetail,
                        0, idx});
        return schema->field(idx).type;
      }
      case ExprKind::kUnary: {
        MDJ_ASSIGN_OR_RETURN(DataType in, Emit(expr->operand()));
        switch (expr->unary_op()) {
          case UnaryOp::kNot:
            code.push_back({OpCode::kNot, 0, 0});
            return DataType::kInt64;
          case UnaryOp::kNegate:
            code.push_back({OpCode::kNegate, 0, 0});
            return in;
          case UnaryOp::kIsNull:
            code.push_back({OpCode::kIsNull, 0, 0});
            return DataType::kInt64;
        }
        return Status::Internal("unreachable unary op");
      }
      case ExprKind::kIn: {
        MDJ_RETURN_NOT_OK(Emit(expr->operand()).status());
        in_lists.push_back(expr->candidates());
        code.push_back(
            {OpCode::kIn, 0, static_cast<int32_t>(in_lists.size()) - 1});
        return DataType::kInt64;
      }
      case ExprKind::kCase: {
        bool saw_float = false, saw_string = false, saw_numeric = false;
        auto note = [&](DataType t) {
          saw_float = saw_float || t == DataType::kFloat64;
          saw_numeric = saw_numeric || IsNumeric(t);
          saw_string = saw_string || t == DataType::kString;
        };
        std::vector<int32_t> arm_end_jumps;
        for (const auto& [when_ast, then_ast] : expr->when_then()) {
          MDJ_RETURN_NOT_OK(Emit(when_ast).status());
          const int32_t skip_arm = Here();
          code.push_back({OpCode::kJumpIfNotTruthy, 0, 0});
          MDJ_ASSIGN_OR_RETURN(DataType then_type, Emit(then_ast));
          note(then_type);
          arm_end_jumps.push_back(Here());
          code.push_back({OpCode::kJump, 0, 0});
          code[skip_arm].a = Here();
        }
        if (expr->else_expr() != nullptr) {
          MDJ_ASSIGN_OR_RETURN(DataType else_type, Emit(expr->else_expr()));
          note(else_type);
        } else {
          code.push_back({OpCode::kPushNull, 0, 0});
        }
        for (int32_t j : arm_end_jumps) code[j].a = Here();
        if (saw_string && saw_numeric) {
          return Status::TypeError("CASE arms mix string and numeric results");
        }
        if (saw_string) return DataType::kString;
        return saw_float ? DataType::kFloat64 : DataType::kInt64;
      }
      case ExprKind::kBinary: {
        const BinaryOp op = expr->binary_op();
        if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
          MDJ_RETURN_NOT_OK(Emit(expr->left()).status());
          const int32_t jump = Here();
          code.push_back(
              {op == BinaryOp::kAnd ? OpCode::kAndJump : OpCode::kOrJump, 0, 0});
          MDJ_RETURN_NOT_OK(Emit(expr->right()).status());
          code.push_back({OpCode::kToBool, 0, 0});
          code[jump].a = Here();
          return DataType::kInt64;
        }
        MDJ_ASSIGN_OR_RETURN(DataType lhs, Emit(expr->left()));
        MDJ_ASSIGN_OR_RETURN(DataType rhs, Emit(expr->right()));
        switch (op) {
          case BinaryOp::kEq:
          case BinaryOp::kNe:
          case BinaryOp::kLt:
          case BinaryOp::kLe:
          case BinaryOp::kGt:
          case BinaryOp::kGe:
            code.push_back({OpCode::kCompare, static_cast<uint8_t>(op), 0});
            return DataType::kInt64;
          case BinaryOp::kAdd:
          case BinaryOp::kSub:
          case BinaryOp::kMul:
          case BinaryOp::kDiv:
          case BinaryOp::kMod:
            code.push_back({OpCode::kArith, static_cast<uint8_t>(op), 0});
            if (IsNumeric(lhs) && IsNumeric(rhs) && op != BinaryOp::kDiv) {
              return CommonNumericType(lhs, rhs);
            }
            return DataType::kFloat64;
          default:
            return Status::Internal("unreachable binary op");
        }
      }
    }
    return Status::Internal("unreachable expr kind");
  }
};

}  // namespace

Result<BytecodeExpr> BytecodeExpr::Compile(const ExprPtr& expr,
                                           const Schema* base_schema,
                                           const Schema* detail_schema) {
  if (expr == nullptr) {
    return Status::InvalidArgument("BytecodeExpr: null expression");
  }
  Emitter em{base_schema, detail_schema, {}, {}, {}};
  MDJ_ASSIGN_OR_RETURN(DataType type, em.Emit(expr));
  BytecodeExpr out;
  out.code_ = std::move(em.code);
  out.literals_ = std::move(em.literals);
  out.in_lists_ = std::move(em.in_lists);
  out.result_type_ = type;
  return out;
}

Value BytecodeExpr::Eval(const RowCtx& ctx) const {
  // One reusable stack per thread: clear() keeps capacity, so steady-state
  // evaluation allocates nothing.
  thread_local std::vector<Value> stack;
  stack.clear();
  const Instr* code = code_.data();
  const int n = static_cast<int>(code_.size());
  for (int pc = 0; pc < n; ++pc) {
    const Instr& ins = code[pc];
    switch (ins.op) {
      case OpCode::kPushLit:
        stack.push_back(literals_[ins.a]);
        break;
      case OpCode::kPushNull:
        stack.push_back(Value::Null());
        break;
      case OpCode::kLoadBase:
        MDJ_DCHECK(ctx.base != nullptr);
        stack.push_back(ctx.base->Get(ctx.base_row, ins.a));
        break;
      case OpCode::kLoadDetail:
        MDJ_DCHECK(ctx.detail != nullptr);
        stack.push_back(ctx.detail->Get(ctx.detail_row, ins.a));
        break;
      case OpCode::kNot: {
        Value& top = stack.back();
        top = expr_internal::EvalNot(top);
        break;
      }
      case OpCode::kNegate: {
        Value& top = stack.back();
        top = expr_internal::EvalNegate(top);
        break;
      }
      case OpCode::kIsNull: {
        Value& top = stack.back();
        top = Value::Bool(top.is_null());
        break;
      }
      case OpCode::kIn: {
        Value& top = stack.back();
        top = Value::Bool(expr_internal::MatchesAny(top, in_lists_[ins.a]));
        break;
      }
      case OpCode::kCompare: {
        Value b = std::move(stack.back());
        stack.pop_back();
        Value& a = stack.back();
        a = expr_internal::EvalCompare(static_cast<BinaryOp>(ins.u8), a, b);
        break;
      }
      case OpCode::kArith: {
        Value b = std::move(stack.back());
        stack.pop_back();
        Value& a = stack.back();
        a = expr_internal::EvalArith(static_cast<BinaryOp>(ins.u8), a, b);
        break;
      }
      case OpCode::kAndJump: {
        Value& top = stack.back();
        if (!top.IsTruthy()) {
          top = Value::Bool(false);
          pc = ins.a - 1;
        } else {
          stack.pop_back();
        }
        break;
      }
      case OpCode::kOrJump: {
        Value& top = stack.back();
        if (top.IsTruthy()) {
          top = Value::Bool(true);
          pc = ins.a - 1;
        } else {
          stack.pop_back();
        }
        break;
      }
      case OpCode::kToBool: {
        Value& top = stack.back();
        top = Value::Bool(top.IsTruthy());
        break;
      }
      case OpCode::kJump:
        pc = ins.a - 1;
        break;
      case OpCode::kJumpIfNotTruthy: {
        Value v = std::move(stack.back());
        stack.pop_back();
        if (!v.IsTruthy()) pc = ins.a - 1;
        break;
      }
    }
  }
  MDJ_DCHECK(stack.size() == 1);
  return std::move(stack.back());
}

std::string BytecodeExpr::ToString() const {
  std::string out;
  for (size_t i = 0; i < code_.size(); ++i) {
    const Instr& ins = code_[i];
    out += std::to_string(i) + ": " + OpName(ins.op);
    switch (ins.op) {
      case OpCode::kPushLit:
        out += " " + literals_[ins.a].ToString();
        break;
      case OpCode::kLoadBase:
      case OpCode::kLoadDetail:
        out += " col=" + std::to_string(ins.a);
        break;
      case OpCode::kIn:
        out += " list=" + std::to_string(ins.a) + " (" +
               std::to_string(in_lists_[ins.a].size()) + " cands)";
        break;
      case OpCode::kCompare:
      case OpCode::kArith:
        out += " op=" + std::to_string(static_cast<int>(ins.u8));
        break;
      case OpCode::kAndJump:
      case OpCode::kOrJump:
      case OpCode::kJump:
      case OpCode::kJumpIfNotTruthy:
        out += " -> " + std::to_string(ins.a);
        break;
      default:
        break;
    }
    out.push_back('\n');
  }
  return out;
}

BytecodeExpr BytecodeExpr::FromParts(std::vector<Instr> code, std::vector<Value> literals,
                                     std::vector<std::vector<Value>> in_lists) {
  BytecodeExpr bc;
  bc.code_ = std::move(code);
  bc.literals_ = std::move(literals);
  bc.in_lists_ = std::move(in_lists);
  return bc;
}

}  // namespace mdjoin
