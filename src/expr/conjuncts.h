#ifndef MDJOIN_EXPR_CONJUNCTS_H_
#define MDJOIN_EXPR_CONJUNCTS_H_

#include <string>
#include <vector>

#include "expr/expr.h"

namespace mdjoin {

/// Flattens nested ANDs into a conjunct list. A trivially-true literal
/// produces an empty list.
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr);

/// ANDs `conjuncts` back together; empty input yields literal true.
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts);

/// A conjunct of the form (base-only expr) = (detail-only expr), normalized so
/// `base_expr` references only B and `detail_expr` only R. This is the join
/// structure the MD-join evaluator hashes B on (§4.5) and Observation 4.1
/// transfers selections through. Computed keys are allowed, e.g.
/// R.month = B.month + 1 yields base_expr = B.month + 1.
struct EquiPair {
  ExprPtr base_expr;
  ExprPtr detail_expr;
};

/// Classification of a θ-condition's conjuncts (paper §4.2, §4.5).
struct ThetaParts {
  std::vector<EquiPair> equi;         // B-key = R-key conjuncts
  std::vector<ExprPtr> detail_only;   // σ-pushable to R (Theorem 4.2)
  std::vector<ExprPtr> base_only;     // restrict B rows up front
  std::vector<ExprPtr> residual;      // everything else (mixed non-equi)
};

/// Splits and classifies `theta`. Never fails: unclassifiable pieces land in
/// `residual`, so evaluation is always possible (just less indexable).
ThetaParts AnalyzeTheta(const ExprPtr& theta);

/// Why `equi` is not the dimension-equality condition over `dims` — plain
/// B.d = R.d pairs, the same column on both sides, whose set of columns is
/// exactly `dims` — or null when it is. Under that condition a cuboid row
/// matches a detail tuple iff it agrees with it on the cuboid's grouped dims,
/// which is what roll-up (Theorem 4.5) and group-id relative sets rely on.
const char* DimensionEqualityFailure(const std::vector<EquiPair>& equi,
                                     const std::vector<std::string>& dims);

/// Reassembles the parts into a single condition (for round-trip testing).
ExprPtr CombineTheta(const ThetaParts& parts);

/// Bottom-up constant folding: any subtree free of column references is
/// replaced by its literal value, and boolean identities are simplified
/// (x AND true → x, x AND false → false, x OR true → true, x OR false → x).
/// Semantics-preserving for the engine's two-valued logic; applied by the
/// rewrite rules before conjunct classification so literal-heavy θs (e.g.
/// machine-generated ones) classify cleanly.
ExprPtr FoldConstants(const ExprPtr& expr);

}  // namespace mdjoin

#endif  // MDJOIN_EXPR_CONJUNCTS_H_
