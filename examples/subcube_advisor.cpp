/// Subcube materialization advisor — the application the paper's conclusion
/// points at ("materializing an optimal set of subcubes"). Given a detail
/// relation and a view budget, the greedy selector picks which cuboids to
/// precompute; Theorem 4.5 roll-ups materialize them (only the full cuboid
/// ever reads the detail relation); any granularity is then answered from
/// its cheapest materialized ancestor. Includes an EXPLAIN ANALYZE-style
/// profile of an equivalent MD-join plan for comparison.

#include <cstdio>

#include "mdjoin/mdjoin.h"

using namespace mdjoin;       // NOLINT
using namespace mdjoin::dsl;  // NOLINT

int main() {
  SalesConfig config;
  config.num_rows = 100000;
  config.num_customers = 200;
  config.num_products = 50;
  config.num_months = 12;
  config.num_states = 10;
  Table sales = GenerateSales(config);

  CubeLattice lattice = *CubeLattice::Make({"prod", "month", "state"});
  auto cardinality = *CuboidCardinalities(sales, lattice);
  std::printf("cuboid cardinalities (|R| = %lld):\n",
              static_cast<long long>(sales.num_rows()));
  for (CuboidMask mask : lattice.AllCuboids()) {
    std::printf("  %-22s %8lld rows\n", lattice.CuboidName(mask).c_str(),
                static_cast<long long>(cardinality[mask]));
  }

  for (int budget : {1, 3, 5}) {
    SubcubeSelection sel = *SelectSubcubesGreedy(lattice, cardinality, budget);
    std::printf("\nbudget %d -> %s (benefit %.0f rows/query saved)\n", budget,
                sel.ToString(lattice).c_str(), sel.total_benefit);
  }

  // Materialize with budget 4 and answer every granularity.
  SubcubeSelection sel = *SelectSubcubesGreedy(lattice, cardinality, 4);
  std::vector<AggSpec> aggs = {Sum(RCol("sale"), "total"), Count("n")};
  Timer timer;
  auto materialized = *MaterializeSubcubes(sel, lattice, cardinality, sales, aggs);
  std::printf("\nmaterialized %zu cuboids in %.1f ms (one detail scan + roll-ups)\n",
              materialized.size(), timer.ElapsedMillis());

  timer.Reset();
  int64_t answered_rows = 0;
  for (CuboidMask target : lattice.AllCuboids()) {
    Table answer =
        *AnswerFromSubcubes(sel, lattice, cardinality, materialized, aggs, target);
    answered_rows += answer.num_rows();
  }
  double from_views_ms = timer.ElapsedMillis();

  timer.Reset();
  ExprPtr theta = CombineConjuncts({Eq(BCol("prod"), RCol("prod")),
                                    Eq(BCol("month"), RCol("month")),
                                    Eq(BCol("state"), RCol("state"))});
  for (CuboidMask target : lattice.AllCuboids()) {
    Table base = *CuboidBase(sales, lattice, target);
    Table answer = *MdJoin(base, sales, aggs, theta);
    answered_rows -= answer.num_rows();  // should cancel to 0
  }
  double from_detail_ms = timer.ElapsedMillis();
  std::printf("answering all %d granularities: %.1f ms from views vs %.1f ms from "
              "detail (%.0fx); row-count check: %lld (0 = identical)\n",
              1 << lattice.num_dims(), from_views_ms, from_detail_ms,
              from_detail_ms / from_views_ms, static_cast<long long>(answered_rows));

  // EXPLAIN ANALYZE of one equivalent MD-join plan, for the curious.
  Catalog catalog;
  if (!catalog.Register("sales", &sales).ok()) return 1;
  PlanPtr plan = MdJoinPlan(CuboidBasePlan(TableRef("sales"), lattice.dims(), 0b011),
                            TableRef("sales"), aggs, theta);
  QueryProfile profile;
  if (!ExplainAnalyze(plan, catalog, {}, &profile).ok()) return 1;
  std::printf("\nprofile of the direct (prod, month) cuboid MD-join:\n%s",
              profile.ToText().c_str());
  return 0;
}
