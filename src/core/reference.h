#ifndef MDJOIN_CORE_REFERENCE_H_
#define MDJOIN_CORE_REFERENCE_H_

#include <vector>

#include "agg/agg_spec.h"
#include "common/result.h"
#include "expr/expr.h"
#include "expr/row_ctx.h"
#include "table/table.h"

namespace mdjoin {

/// Literal transcription of Definition 3.1: for each base row b, scan all of
/// R, evaluate θ(b, t) in full, and aggregate the matches. O(|B|·|R|) with no
/// analysis, no index, no pushdown — deliberately the dumbest correct
/// evaluator. The property-test oracle every optimized path is checked
/// against. θ and the aggregate arguments are evaluated by EvalReference,
/// not by the engine's compiled programs.
Result<Table> MdJoinReference(const Table& base, const Table& detail,
                              const std::vector<AggSpec>& aggs, const ExprPtr& theta);

/// The oracle's expression evaluator: walks `expr` node by node and resolves
/// each column by name against `ctx`. It shares only the operator semantics
/// of expr/eval_ops.h with the engine (no compilation, no bytecode), so the
/// fuzz suites can check the engine's programs against it. Every column must
/// exist on its side of `ctx` (MdJoinReference binds θ before evaluating it).
Value EvalReference(const Expr& expr, const RowCtx& ctx);

}  // namespace mdjoin

#endif  // MDJOIN_CORE_REFERENCE_H_
