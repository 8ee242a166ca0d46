#include "expr/compile.h"

#include "expr/verifier.h"
#include "obs/metrics.h"

namespace mdjoin {

Result<CompiledExpr> CompileExpr(const ExprPtr& expr, const Schema* base_schema,
                                 const Schema* detail_schema) {
  if (expr == nullptr) return Status::InvalidArgument("CompileExpr: null expression");
  MDJ_ASSIGN_OR_RETURN(BytecodeExpr bc,
                       BytecodeExpr::Compile(expr, base_schema, detail_schema));
  // Every program is verified before it may execute: stack safety, operand
  // validity, forward-only jumps (termination). An emitter bug is a
  // load-time rejection, never a wrong answer.
  VerifierReport report = VerifyBytecode(bc, base_schema, detail_schema);
  if (!report.ok()) return report.ToStatus();
  static Counter* verified = MetricsRegistry::Global().GetCounter(
      "mdjoin_theta_verified_total", "θ bytecode programs that passed the static verifier");
  verified->Increment();
  CompiledExpr out;
  out.program_ = std::make_shared<const BytecodeExpr>(std::move(bc));
  return out;
}

Result<Value> EvalConstExpr(const ExprPtr& expr) {
  if (expr->ReferencesSide(Side::kBase) || expr->ReferencesSide(Side::kDetail)) {
    return Status::InvalidArgument("EvalConstExpr: expression references columns: ",
                                   expr->ToString());
  }
  MDJ_ASSIGN_OR_RETURN(CompiledExpr c, CompileExpr(expr, nullptr, nullptr));
  RowCtx ctx;
  return c.Eval(ctx);
}

}  // namespace mdjoin
