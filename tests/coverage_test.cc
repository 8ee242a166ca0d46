/// Edge cases not reached by the mainline suites: every ANALYZE BY generator
/// end-to-end, optimizer-rule rejection paths, wider cube lattices, and
/// partitioned-cube variants.

#include <gtest/gtest.h>

#include "analyze/binder.h"
#include "core/mdjoin.h"
#include "cube/base_tables.h"
#include "cube/partitioned_cube.h"
#include "cube/pipesort.h"
#include "expr/conjuncts.h"
#include "optimizer/executor.h"
#include "optimizer/rules.h"
#include "ra/group_by.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

class GeneratorCoverage : public ::testing::Test {
 protected:
  void SetUp() override {
    sales_ = testutil::RandomSales(91, 200);
    ASSERT_TRUE(catalog_.Register("Sales", &sales_).ok());
  }

  Result<Table> Run(const std::string& sql) {
    Result<analyze::BoundQuery> bound = analyze::BindQueryString(sql, catalog_);
    if (!bound.ok()) return bound.status();
    return ExecutePlan(bound->plan, catalog_);
  }

  Table sales_;
  Catalog catalog_;
};

TEST_F(GeneratorCoverage, GroupingSetsQueryEndToEnd) {
  Result<Table> got = Run(
      "select prod, month, state, sum(sale) as total from Sales "
      "analyze by grouping_sets((prod, month), (state), ())");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Result<Table> base = GroupingSetsBase(sales_, {"prod", "month", "state"},
                                        {{"prod", "month"}, {"state"}, {}});
  EXPECT_EQ(got->num_rows(), base->num_rows());
  // The () set contributes exactly one grand-total row.
  int grand = 0;
  double grand_total = 0;
  for (int64_t r = 0; r < sales_.num_rows(); ++r) {
    grand_total += sales_.Get(r, 6).AsDouble();
  }
  for (int64_t r = 0; r < got->num_rows(); ++r) {
    if (got->Get(r, 0).is_all() && got->Get(r, 1).is_all() && got->Get(r, 2).is_all()) {
      ++grand;
      EXPECT_DOUBLE_EQ(got->Get(r, 3).AsDouble(), grand_total);
    }
  }
  EXPECT_EQ(grand, 1);
}

TEST_F(GeneratorCoverage, RollupQueryEndToEnd) {
  Result<Table> got = Run(
      "select prod, month, count(*) as n from Sales analyze by rollup(prod, month)");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // (ALL, month) must never appear in a rollup.
  for (int64_t r = 0; r < got->num_rows(); ++r) {
    EXPECT_FALSE(got->Get(r, 0).is_all() && !got->Get(r, 1).is_all());
  }
  Result<Table> base = RollupBase(sales_, {"prod", "month"});
  EXPECT_EQ(got->num_rows(), base->num_rows());
}

TEST_F(GeneratorCoverage, CubeQueryWithVariableAndHaving) {
  // Generators compose with grouping variables: per cube cell, the count of
  // above-500 sales, restricted to cells with any data at all.
  Result<Table> got = Run(
      "select prod, month, count(*) as n, count(X.sale) as big from Sales "
      "analyze by cube(prod, month) "
      "such that X: X.prod = prod and X.month = month and X.sale > 500 "
      "having n > 0 order by n desc");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (int64_t r = 0; r < got->num_rows(); ++r) {
    EXPECT_LE(got->Get(r, 3).int64(), got->Get(r, 2).int64());
  }
}

TEST(RuleRejectionCoverage, CommuteAndSplitPatternMismatches) {
  Table sales = testutil::SmallSales();
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("sales", &sales).ok());
  PlanPtr not_nested = MdJoinPlan(TableRef("sales"), TableRef("sales"), {Count("n")},
                                  Eq(RCol("cust"), BCol("cust")));
  EXPECT_FALSE(CommuteMdJoins(not_nested, catalog).ok());
  EXPECT_FALSE(SplitToEquiJoin(not_nested, catalog).ok());
  EXPECT_FALSE(CommuteMdJoins(TableRef("sales"), catalog).ok());
  EXPECT_FALSE(FuseMdJoinSeries(TableRef("sales")).ok());
  EXPECT_FALSE(ApplyRollup(TableRef("sales"), 0b1).ok());
  // Split rejects when the outer θ needs the inner's outputs.
  PlanPtr inner = MdJoinPlan(DistinctPlan(ProjectPlan(TableRef("sales"),
                                                      {{Col("cust"), "cust"}})),
                             TableRef("sales"), {Avg(RCol("sale"), "a")},
                             Eq(RCol("cust"), BCol("cust")));
  PlanPtr dependent = MdJoinPlan(inner, TableRef("sales"), {Count("n")},
                                 And(Eq(RCol("cust"), BCol("cust")),
                                     Gt(RCol("sale"), BCol("a"))));
  EXPECT_FALSE(SplitToEquiJoin(dependent, catalog).ok());
}

TEST(CubeWidthCoverage, FourDimensionalLattice) {
  Table sales = testutil::RandomSales(93, 150);
  std::vector<std::string> dims = {"prod", "month", "state", "year"};
  Result<CubeLattice> lattice = CubeLattice::Make(dims);
  ASSERT_TRUE(lattice.ok());
  EXPECT_EQ(lattice->AllCuboids().size(), 16u);
  // The direct MD-join over a 4-d cube still matches the oracle path:
  // spot-check totals through per-cuboid GROUP BYs of three granularities.
  Result<Table> base = CubeByBase(sales, dims);
  std::vector<ExprPtr> eqs;
  for (const std::string& d : dims) eqs.push_back(Eq(BCol(d), RCol(d)));
  Result<Table> cube = MdJoin(*base, sales, {Sum(RCol("sale"), "total")},
                              CombineConjuncts(std::move(eqs)));
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->num_rows(), base->num_rows());
  // PIPESORT plan covers all 16 cuboids with fewer than 16 sorts.
  auto cardinality = *CuboidCardinalities(sales, *lattice);
  Result<PipesortPlan> plan = BuildPipesortPlan(*lattice, cardinality);
  ASSERT_TRUE(plan.ok());
  size_t covered = 0;
  for (const auto& path : plan->paths) covered += path.size();
  EXPECT_EQ(covered, 16u);
  EXPECT_LT(plan->num_sorts(), 16);
  Result<Table> executed =
      ExecutePipesortPlan(*plan, sales, {Sum(RCol("sale"), "total")});
  ASSERT_TRUE(executed.ok());
  EXPECT_TRUE(TablesEqualUnordered(*executed, *cube));
}

TEST(PartitionedCubeCoverage, EveryDimensionAsPartitioner) {
  Table sales = testutil::RandomSales(95, 200);
  std::vector<std::string> dims = {"prod", "month"};
  Result<Table> base = CubeByBase(sales, dims);
  ExprPtr theta = And(Eq(BCol("prod"), RCol("prod")), Eq(BCol("month"), RCol("month")));
  Result<Table> direct = MdJoin(*base, sales, {Count("n")}, theta);
  ASSERT_TRUE(direct.ok());
  for (const std::string& partition_dim : dims) {
    PartitionedCubeStats stats;
    Result<Table> part =
        PartitionedCube(sales, dims, {Count("n")}, partition_dim, &stats);
    ASSERT_TRUE(part.ok()) << partition_dim;
    EXPECT_TRUE(TablesEqualUnordered(*part, *direct)) << partition_dim;
    EXPECT_EQ(stats.full_detail_scans, 1);
  }
}

TEST(PartitionedCubeCoverage, EmptyDetail) {
  Table empty{testutil::SalesSchema()};
  Result<Table> cube = PartitionedCube(empty, {"prod", "month"}, {Count("n")}, "prod");
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->num_rows(), 0);
}

TEST(EmptyInputCoverage, PipesortOnEmptyDetail) {
  Table empty{testutil::SalesSchema()};
  Result<CubeLattice> lattice = CubeLattice::Make({"prod", "month"});
  auto cardinality = *CuboidCardinalities(empty, *lattice);
  Result<PipesortPlan> plan = BuildPipesortPlan(*lattice, cardinality);
  ASSERT_TRUE(plan.ok());
  Result<Table> cube = ExecutePipesortPlan(*plan, empty, {Count("n")});
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_EQ(cube->num_rows(), 0);
}

TEST(GeneralizedCoverage, SharedDetailPredicateComponents) {
  // Components whose detail-only predicates overlap still evaluate each θ
  // independently (regression guard for the shared-scan early-continue).
  Table sales = testutil::RandomSales(97, 150);
  Result<Table> base = GroupByBase(sales, {"cust"});
  std::vector<MdJoinComponent> comps;
  comps.push_back({{Count("ny")},
                   And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("state"), Lit("NY")))});
  comps.push_back({{Count("all_states")}, Eq(RCol("cust"), BCol("cust"))});
  comps.push_back({{Count("expensive")},
                   And(Eq(RCol("cust"), BCol("cust")), Gt(RCol("sale"), Lit(450)))});
  Result<Table> fused = GeneralizedMdJoin(*base, sales, comps);
  ASSERT_TRUE(fused.ok());
  Table step = base->Clone();
  for (const MdJoinComponent& c : comps) {
    step = *MdJoin(step, sales, c.aggs, c.theta);
  }
  EXPECT_TRUE(TablesEqualOrdered(*fused, step));
  for (int64_t r = 0; r < fused->num_rows(); ++r) {
    EXPECT_LE(fused->Get(r, 1).int64(), fused->Get(r, 2).int64());
  }
}

}  // namespace
}  // namespace mdjoin
