#ifndef MDJOIN_ANALYZE_BINDER_H_
#define MDJOIN_ANALYZE_BINDER_H_

#include <string>
#include <vector>

#include "analyze/ast.h"
#include "common/result.h"
#include "optimizer/plan.h"

namespace mdjoin {
namespace analyze {

/// A bound query: an executable plan plus the user-visible output columns in
/// SELECT order (the plan's final projection).
struct BoundQuery {
  PlanPtr plan;
  std::vector<std::string> output_columns;
};

/// Lowers a parsed ANALYZE BY query to plan IR:
///  - the generator becomes the base-values subplan: one CuboidBase listing
///    its cuboids (a group list wider than a mask binds to Distinct), or a
///    catalog table;
///  - each grouping variable becomes one MD-join over the detail relation,
///    its SUCH THAT condition the θ (unqualified names resolve to base
///    attributes, `X.col` to the detail tuple);
///  - aggregate calls over a variable attach to that variable's MD-join;
///    aggregate calls inside a later variable's condition (e.g.
///    `avg(X.sale)`) become hidden output columns of the earlier MD-join,
///    giving the multi-pass dependency chains of Example 2.5;
///  - a final projection returns the SELECT list.
///
/// The emitted chain of MD-joins is deliberately unfused; run
/// FuseMdJoinSeries (Theorem 4.3) on `plan` to collapse independent
/// variables into generalized MD-joins.
Result<BoundQuery> BindQuery(const Query& query, const Catalog& catalog);

/// Convenience: parse + bind.
Result<BoundQuery> BindQueryString(const std::string& sql, const Catalog& catalog);

/// Parse + bind the EMF-SQL dialect (ParseEmfQuery).
Result<BoundQuery> BindEmfQueryString(const std::string& sql, const Catalog& catalog);

}  // namespace analyze
}  // namespace mdjoin

#endif  // MDJOIN_ANALYZE_BINDER_H_
