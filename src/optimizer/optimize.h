#ifndef MDJOIN_OPTIMIZER_OPTIMIZE_H_
#define MDJOIN_OPTIMIZER_OPTIMIZE_H_

#include <string>
#include <vector>

#include "obs/query_profile.h"
#include "optimizer/plan.h"

namespace mdjoin {

/// Optimizer settings.
struct OptimizeOptions {
  /// Debug invariant mode: re-run the full PlanAnalyzer over the plan after
  /// every accepted rule application and fail fast with the analyzer's
  /// structured diagnostic if the rewrite produced an ill-formed plan. Also
  /// enabled (independently of this flag) by setting the MDJOIN_VERIFY_PLANS
  /// environment variable to a non-empty value other than "0".
  bool verify_plans = false;
};

/// What the driver did, for explainability and tests.
struct OptimizeReport {
  std::vector<std::string> applied;  // human-readable rule firings

  std::string ToString() const;
};

/// Rule-driven plan optimization: rewrites bottom-up, firing each rule
/// wherever its pattern matches, re-checking with the cost model that the
/// rewrite does not increase estimated work (a tiny cost-based optimizer in
/// the sense of §4: the transformations make MD-join plans "immediately
/// incorporable into present cost- and algebraic-based query optimizers").
/// At each MD-join the rules run in a fixed order — unsat-θ empty-result,
/// Theorem 4.3 fusion, Observation 4.1 transfer — for at most four rounds,
/// stopping at the first round where none fires. A chain of MD-joins fuses
/// top-down first. Theorem 4.2 is no driver rule: the executor folds every
/// selection on R into θ, where its R-only conjuncts run as kernels. Theorem 4.4's split is not a
/// driver rule: it pays off only when the split joins run at different
/// sites, so callers that want it apply SplitToEquiJoin themselves. The
/// cost model reads the catalog's statistics only: plan feedback informs
/// EXPLAIN ANALYZE estimates, never a rewrite choice. Result equivalence is
/// guaranteed by the rules' theorems and enforced by the property-test
/// suite.
/// `rewrite_log`, when non-null, receives one RewriteRecord per rule firing
/// that produced a candidate plan — accepted or rejected — carrying the
/// cost-model certificate (estimated work before/after). EXPLAIN ANALYZE
/// surfaces this log through QueryProfile::rewrites.
Result<PlanPtr> OptimizePlan(const PlanPtr& plan, const Catalog& catalog,
                             const OptimizeOptions& options = {},
                             OptimizeReport* report = nullptr,
                             std::vector<RewriteRecord>* rewrite_log = nullptr);

}  // namespace mdjoin

#endif  // MDJOIN_OPTIMIZER_OPTIMIZE_H_
