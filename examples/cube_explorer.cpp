/// Cube explorer (Example 2.1 / 2.3): builds a data cube with one MD-join,
/// then computes a *second-pass* statistic over the same cube base — the
/// count of above-average sales per cube cell — which CUBE BY syntax cannot
/// express because it ties grouping to aggregation. Also shows the PIPESORT
/// plan the optimizer would use for plain distributive cubes.

#include <cstdio>

#include "mdjoin/mdjoin.h"

using namespace mdjoin;       // NOLINT
using namespace mdjoin::dsl;  // NOLINT

int main() {
  SalesConfig config;
  config.num_rows = 20000;
  config.num_customers = 200;
  config.num_products = 8;
  config.num_months = 6;
  config.num_states = 4;
  Table sales = GenerateSales(config);

  const std::vector<std::string> dims = {"prod", "month"};
  ExprPtr theta = And(Eq(BCol("prod"), RCol("prod")), Eq(BCol("month"), RCol("month")));

  // Pass 1: the data cube of Sum(sale) — Example 2.1 as one MD-join.
  Table base = *CubeByBase(sales, dims);
  Table cube = *MdJoin(base, sales, {Sum(RCol("sale"), "sum_sale"),
                                     Avg(RCol("sale"), "avg_sale")},
                       theta);
  std::printf("Cube over (prod, month): %lld cells (head shown)\n%s\n",
              static_cast<long long>(cube.num_rows()), cube.ToString(10).c_str());

  // Pass 2 (Example 2.3): per cube cell, how many sales beat the cell's own
  // average? The first pass's avg_sale column is available to θ as a base
  // attribute — multi-pass aggregation without leaving the algebra.
  ExprPtr theta2 = And(Eq(BCol("prod"), RCol("prod")),
                       Eq(BCol("month"), RCol("month")),
                       Gt(RCol("sale"), BCol("avg_sale")));
  Table second = *MdJoin(cube, sales, {Count("above_avg")}, theta2);
  std::printf("With above-average counts (head):\n%s\n", second.ToString(10).c_str());

  // How a cost-based optimizer would compute the distributive part: the
  // PIPESORT plan (Figure 2 machinery), rolled up via Theorem 4.5.
  CubeLattice lattice = *CubeLattice::Make(dims);
  auto cardinality = *CuboidCardinalities(sales, lattice);
  PipesortPlan plan = *BuildPipesortPlan(lattice, cardinality);
  std::printf("PIPESORT pipelined paths for this cube:\n%s", plan.ToString().c_str());
  CubeExecStats stats;
  const std::vector<AggSpec> aggs = {Sum(RCol("sale"), "sum_sale"), Count("n")};
  Table pipesort_cube = *ExecutePipesortPlan(plan, sales, aggs, &stats);
  std::printf("pipesort execution: %d sorts, %lld rows scanned "
              "(vs %lld for recompute-from-detail)\n",
              static_cast<int>(stats.sorts),
              static_cast<long long>(stats.rows_scanned),
              static_cast<long long>(4 * sales.num_rows()));

  // Cross-check: both strategies agree with each other. Cube keys and
  // counts must match exactly. The sums may not: PIPESORT sums its finer
  // cuboids' sums (Theorem 4.5), so the additions of the non-integral sales
  // are reassociated. For n positive addends each order is within (n-1)·u
  // (u = 2^-53) of the exact sum, about 2.2e-12 relative at n = 20 000, so
  // the float cells compare within 1e-9 relative (integer cells exactly).
  Table direct = *MdJoin(base, sales, aggs, theta);
  std::printf("pipesort result == direct MD-join cube: %s\n",
              TablesApproxEqualUnordered(pipesort_cube, direct, 1e-9) ? "yes" : "NO (bug!)");
  return 0;
}
