#ifndef MDJOIN_AGG_AGG_SPEC_H_
#define MDJOIN_AGG_AGG_SPEC_H_

#include <string>
#include <vector>

#include "agg/aggregate.h"
#include "agg/flat_state.h"
#include "expr/compile.h"
#include "expr/expr.h"
#include "types/schema.h"

namespace mdjoin {

/// One entry of the MD-join's aggregate list `l` (Definition 3.1): a function
/// f_i, its argument expression over the detail relation (nullptr means
/// count(*)), and the name of the output column it populates.
struct AggSpec {
  std::string function;
  ExprPtr argument;
  std::string output_name;

  std::string ToString() const;
};

/// Factory helpers, e.g. `Sum(RCol("sale"), "total_sale")`.
AggSpec Count(std::string output_name);
AggSpec Count(ExprPtr argument, std::string output_name);
AggSpec Sum(ExprPtr argument, std::string output_name);
AggSpec Avg(ExprPtr argument, std::string output_name);
AggSpec Min(ExprPtr argument, std::string output_name);
AggSpec Max(ExprPtr argument, std::string output_name);
AggSpec CountDistinct(ExprPtr argument, std::string output_name);

/// An AggSpec resolved against schemas: function implementation, compiled
/// argument, and the output field (name + inferred type).
struct BoundAgg {
  const AggregateFunction* fn = nullptr;
  bool has_arg = false;
  CompiledExpr arg;
  Field output_field;

  /// When the argument is a plain detail-column reference, its column index;
  /// -1 otherwise. The vectorized scan reads the cell straight out of the
  /// column instead of running the compiled program per matched pair.
  int detail_arg_col = -1;

  /// Evaluates the argument (if any) on `ctx` and folds it into `state`.
  void UpdateFromRow(AggregateState* state, const RowCtx& ctx) const {
    if (has_arg) {
      fn->Update(state, arg.Eval(ctx));
    } else {
      // count(*): every matching row counts; feed a non-NULL token.
      fn->Update(state, Value::Int64(1));
    }
  }

  /// Flat-state analogue of UpdateFromRow for scan loops that keep their
  /// accumulators in an AggStateColumn.
  void UpdateColumnFromRow(AggStateColumn* col, int64_t group, const RowCtx& ctx) const {
    if (has_arg) {
      col->Update(group, arg.Eval(ctx));
    } else {
      col->UpdateCountStar(group);
    }
  }
};

/// Binds `specs` against the given schemas (either may be nullptr when that
/// side is absent). Checks function existence, argument bindability, type
/// compatibility and output-name uniqueness against `existing` names.
Result<std::vector<BoundAgg>> BindAggs(const std::vector<AggSpec>& specs,
                                       const Schema* base_schema,
                                       const Schema* detail_schema);

/// Theorem 4.5 support: the spec that re-aggregates `spec`'s finalized
/// output when rolling up from a finer cuboid ("count becomes sum"). Errors
/// for non-distributive aggregates, for which the theorem does not apply.
Result<AggSpec> RollupSpec(const AggSpec& spec);

/// True if every spec's function is distributive (Theorem 4.5 precondition).
Result<bool> AllDistributive(const std::vector<AggSpec>& specs);

}  // namespace mdjoin

#endif  // MDJOIN_AGG_AGG_SPEC_H_
