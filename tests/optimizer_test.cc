#include <gtest/gtest.h>

#include "core/reference.h"
#include "expr/conjuncts.h"
#include "optimizer/cost.h"
#include "optimizer/executor.h"
#include "optimizer/plan.h"
#include "optimizer/rules.h"
#include "table/table_ops.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using testutil::I;

ExprPtr CustTheta() { return Eq(RCol("cust"), BCol("cust")); }

ExprPtr DimsTheta(const std::vector<std::string>& dims) {
  std::vector<ExprPtr> eqs;
  for (const std::string& d : dims) eqs.push_back(Eq(BCol(d), RCol(d)));
  return CombineConjuncts(std::move(eqs));
}

/// Fixture: Sales registered as "sales", base = distinct customers.
class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sales_ = testutil::SmallSales();
    ASSERT_TRUE(catalog_.Register("sales", &sales_).ok());
  }

  PlanPtr DistinctCustBase() {
    return DistinctPlan(
        ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}));
  }

  /// Executes both plans and expects identical multisets of rows.
  void ExpectSameResult(const PlanPtr& a, const PlanPtr& b) {
    Result<Table> ra = ExecutePlan(a, catalog_);
    Result<Table> rb = ExecutePlan(b, catalog_);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString() << "\n" << ExplainPlan(a);
    ASSERT_TRUE(rb.ok()) << rb.status().ToString() << "\n" << ExplainPlan(b);
    EXPECT_TRUE(TablesEqualUnordered(*ra, *rb))
        << "plan A:\n" << ExplainPlan(a) << "result A:\n" << ra->ToString()
        << "plan B:\n" << ExplainPlan(b) << "result B:\n" << rb->ToString();
  }

  Table sales_;
  Catalog catalog_;
};

TEST_F(OptimizerTest, ExecuteSimpleMdJoinPlan) {
  PlanPtr plan = MdJoinPlan(DistinctCustBase(), TableRef("sales"),
                            {Count("n"), Sum(RCol("sale"), "total")}, CustTheta());
  ExecStats stats;
  Result<Table> result = ExecutePlan(plan, catalog_, {}, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 4);
  EXPECT_EQ(stats.mdjoin_operators, 1);
  EXPECT_EQ(stats.detail_rows_scanned, sales_.num_rows());
  // Cross-check against the direct operator call.
  Result<Table> direct = MdJoinReference(
      *DistinctOn(sales_, {"cust"}), sales_, {Count("n"), Sum(RCol("sale"), "total")},
      CustTheta());
  EXPECT_TRUE(TablesEqualUnordered(*result, *direct));
}

TEST_F(OptimizerTest, SchemaInference) {
  PlanPtr plan = MdJoinPlan(DistinctCustBase(), TableRef("sales"),
                            {Count("n"), Avg(RCol("sale"), "a")}, CustTheta());
  Result<Schema> schema = InferSchema(plan, catalog_);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_EQ(schema->ToString(), "cust:int64, n:int64, a:float64");
  // Bad θ is caught without execution.
  PlanPtr bad = MdJoinPlan(DistinctCustBase(), TableRef("sales"), {Count("n")},
                           Eq(RCol("cust"), BCol("nope")));
  EXPECT_FALSE(InferSchema(bad, catalog_).ok());
}

TEST_F(OptimizerTest, ExplainRendersTree) {
  PlanPtr plan = MdJoinPlan(DistinctCustBase(), TableRef("sales"), {Count("n")},
                            CustTheta());
  std::string text = ExplainPlan(plan);
  EXPECT_NE(text.find("MdJoin"), std::string::npos);
  EXPECT_NE(text.find("  Distinct"), std::string::npos);
  EXPECT_NE(text.find("TableRef(sales)"), std::string::npos);
}

TEST_F(OptimizerTest, Theorem41PartitioningPreservesResults) {
  PlanPtr plan = MdJoinPlan(DistinctCustBase(), TableRef("sales"),
                            {Count("n"), Sum(RCol("sale"), "t")}, CustTheta());
  for (int m : {1, 2, 3, 7}) {
    Result<PlanPtr> split = ApplyBasePartitioning(plan, m);
    ASSERT_TRUE(split.ok()) << split.status().ToString();
    EXPECT_EQ((*split)->children().size(), static_cast<size_t>(m));
    ExpectSameResult(plan, *split);
  }
}

TEST_F(OptimizerTest, Theorem41RequiresMdJoinRoot) {
  EXPECT_FALSE(ApplyBasePartitioning(TableRef("sales"), 2).ok());
}

TEST_F(OptimizerTest, Observation41TransferPreservesResults) {
  // Base restricted to cust <= 2; the equi conjunct lets the restriction
  // transfer to the detail side.
  PlanPtr filtered_base = FilterPlan(DistinctCustBase(), Le(Col("cust"), Lit(2)));
  PlanPtr plan = MdJoinPlan(filtered_base, TableRef("sales"),
                            {Count("n"), Sum(RCol("sale"), "t")}, CustTheta());
  Result<PlanPtr> transferred = ApplyBaseSelectionTransfer(plan);
  ASSERT_TRUE(transferred.ok()) << transferred.status().ToString();
  EXPECT_EQ((*transferred)->child(1)->kind(), PlanKind::kFilter);
  ExpectSameResult(plan, *transferred);
}

TEST_F(OptimizerTest, Observation41RequiresCoveredColumns) {
  // Selection on month, but θ only binds cust: not transferable.
  PlanPtr base = FilterPlan(
      DistinctPlan(ProjectPlan(TableRef("sales"),
                               {{Col("cust"), "cust"}, {Col("month"), "month"}})),
      Le(Col("month"), Lit(2)));
  PlanPtr plan = MdJoinPlan(base, TableRef("sales"), {Count("n")}, CustTheta());
  EXPECT_FALSE(ApplyBaseSelectionTransfer(plan).ok());
}

TEST_F(OptimizerTest, Theorem43FusionCollapsesIndependentSeries) {
  // Example 2.2: three independent per-state averages.
  auto state_theta = [](const char* st) {
    return And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("state"), Lit(st)));
  };
  PlanPtr plan = DistinctCustBase();
  plan = MdJoinPlan(plan, TableRef("sales"), {Avg(RCol("sale"), "avg_ny")},
                    state_theta("NY"));
  plan = MdJoinPlan(plan, TableRef("sales"), {Avg(RCol("sale"), "avg_nj")},
                    state_theta("NJ"));
  plan = MdJoinPlan(plan, TableRef("sales"), {Avg(RCol("sale"), "avg_ct")},
                    state_theta("CT"));
  Result<PlanPtr> fused = FuseMdJoinSeries(plan);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_EQ((*fused)->kind(), PlanKind::kMdJoin);
  EXPECT_EQ((*fused)->components.size(), 3u);
  ExpectSameResult(plan, *fused);
  // One scan instead of three.
  ExecStats fused_stats, series_stats;
  ASSERT_TRUE(ExecutePlan(*fused, catalog_, {}, &fused_stats).ok());
  ASSERT_TRUE(ExecutePlan(plan, catalog_, {}, &series_stats).ok());
  EXPECT_EQ(fused_stats.detail_rows_scanned, sales_.num_rows());
  EXPECT_EQ(series_stats.detail_rows_scanned, 3 * sales_.num_rows());
}

TEST_F(OptimizerTest, Theorem43FusionRespectsDependencies) {
  // Example 2.3 shape: the second MD-join needs the first one's avg output.
  PlanPtr plan = DistinctCustBase();
  plan = MdJoinPlan(plan, TableRef("sales"), {Avg(RCol("sale"), "avg_sale")},
                    CustTheta());
  plan = MdJoinPlan(plan, TableRef("sales"), {Count("above")},
                    And(CustTheta(), Gt(RCol("sale"), BCol("avg_sale"))));
  // Dependent: cannot fuse into one generalized node.
  EXPECT_FALSE(FuseMdJoinSeries(plan).ok());
}

TEST_F(OptimizerTest, Theorem43FusionMixedDependencies) {
  // Four MD-joins: #1 and #2 independent (fusible), #3 depends on #1,
  // #4 depends on #3 — expect generations {1,2}, {3}, {4}.
  PlanPtr plan = DistinctCustBase();
  plan = MdJoinPlan(plan, TableRef("sales"), {Avg(RCol("sale"), "a1")}, CustTheta());
  plan = MdJoinPlan(plan, TableRef("sales"), {Min(RCol("sale"), "m1")}, CustTheta());
  plan = MdJoinPlan(plan, TableRef("sales"), {Count("c1")},
                    And(CustTheta(), Gt(RCol("sale"), BCol("a1"))));
  plan = MdJoinPlan(plan, TableRef("sales"), {Count("c2")},
                    And(CustTheta(), Gt(RCol("sale"), BCol("c1"))));
  Result<PlanPtr> fused = FuseMdJoinSeries(plan);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  ExpectSameResult(plan, *fused);
  ExecStats stats;
  ASSERT_TRUE(ExecutePlan(*fused, catalog_, {}, &stats).ok());
  // 3 scans (gen0 fused + gen1 + gen2) instead of 4.
  EXPECT_EQ(stats.detail_rows_scanned, 3 * sales_.num_rows());
}

TEST_F(OptimizerTest, Theorem43CommutePreservesResults) {
  Table payments = GeneratePayments({.num_rows = 60, .num_customers = 4, .seed = 7});
  ASSERT_TRUE(catalog_.Register("payments", &payments).ok());
  PlanPtr inner = MdJoinPlan(DistinctCustBase(), TableRef("sales"),
                             {Sum(RCol("sale"), "total_sales")}, CustTheta());
  PlanPtr outer = MdJoinPlan(inner, TableRef("payments"),
                             {Sum(RCol("amount"), "total_paid")}, CustTheta());
  Result<PlanPtr> commuted = CommuteMdJoins(outer, catalog_);
  ASSERT_TRUE(commuted.ok()) << commuted.status().ToString();
  // Column order differs after commuting; compare re-projected columns.
  Result<Table> a = ExecutePlan(outer, catalog_);
  Result<Table> b = ExecutePlan(*commuted, catalog_);
  ASSERT_TRUE(a.ok() && b.ok());
  Result<Table> a_proj = ProjectColumns(*a, {"cust", "total_sales", "total_paid"});
  Result<Table> b_proj = ProjectColumns(*b, {"cust", "total_sales", "total_paid"});
  EXPECT_TRUE(TablesEqualUnordered(*a_proj, *b_proj));
}

TEST_F(OptimizerTest, Theorem43CommuteRejectsDependent) {
  PlanPtr inner = MdJoinPlan(DistinctCustBase(), TableRef("sales"),
                             {Avg(RCol("sale"), "a")}, CustTheta());
  PlanPtr outer = MdJoinPlan(inner, TableRef("sales"), {Count("n")},
                             And(CustTheta(), Gt(RCol("sale"), BCol("a"))));
  EXPECT_FALSE(CommuteMdJoins(outer, catalog_).ok());
}

TEST_F(OptimizerTest, Theorem44SplitPreservesResults) {
  // Example 3.3: Sales and Payments per customer, as join of two MD-joins.
  Table payments = GeneratePayments({.num_rows = 80, .num_customers = 4, .seed = 9});
  ASSERT_TRUE(catalog_.Register("payments", &payments).ok());
  PlanPtr inner = MdJoinPlan(DistinctCustBase(), TableRef("sales"),
                             {Sum(RCol("sale"), "total_sales")}, CustTheta());
  PlanPtr outer = MdJoinPlan(inner, TableRef("payments"),
                             {Sum(RCol("amount"), "total_paid")}, CustTheta());
  Result<PlanPtr> split = SplitToEquiJoin(outer, catalog_);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_EQ((*split)->kind(), PlanKind::kHashJoin);
  ExpectSameResult(outer, *split);
}

TEST_F(OptimizerTest, Theorem45RollupPreservesResults) {
  std::vector<std::string> dims = {"prod", "month"};
  // Coarse cuboid: (prod, ALL).
  PlanPtr coarse = MdJoinPlan(CuboidBasePlan(TableRef("sales"), dims, 0b01),
                              TableRef("sales"),
                              {Sum(RCol("sale"), "total"), Count("n")}, DimsTheta(dims));
  Result<PlanPtr> rolled = ApplyRollup(coarse, 0b11);
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
  // The detail child became the finer cuboid's MD-join.
  EXPECT_EQ((*rolled)->child(1)->kind(), PlanKind::kMdJoin);
  ExpectSameResult(coarse, *rolled);
}

TEST_F(OptimizerTest, Theorem45Preconditions) {
  std::vector<std::string> dims = {"prod", "month"};
  PlanPtr coarse_avg = MdJoinPlan(CuboidBasePlan(TableRef("sales"), dims, 0b01),
                                  TableRef("sales"), {Avg(RCol("sale"), "a")},
                                  DimsTheta(dims));
  // avg is not distributive.
  EXPECT_FALSE(ApplyRollup(coarse_avg, 0b11).ok());
  PlanPtr coarse = MdJoinPlan(CuboidBasePlan(TableRef("sales"), dims, 0b01),
                              TableRef("sales"), {Count("n")}, DimsTheta(dims));
  // Finer mask must be a strict superset.
  EXPECT_FALSE(ApplyRollup(coarse, 0b01).ok());
  EXPECT_FALSE(ApplyRollup(coarse, 0b10).ok());
  // θ with an extra residual conjunct is not pure dimension equality.
  PlanPtr resid = MdJoinPlan(CuboidBasePlan(TableRef("sales"), dims, 0b01),
                             TableRef("sales"), {Count("n")},
                             And(DimsTheta(dims), Gt(RCol("sale"), Lit(10))));
  EXPECT_FALSE(ApplyRollup(resid, 0b11).ok());
}

TEST_F(OptimizerTest, CostModelRanksIndexableThetaCheaper) {
  PlanPtr indexable = MdJoinPlan(DistinctCustBase(), TableRef("sales"), {Count("n")},
                                 CustTheta());
  PlanPtr nested = MdJoinPlan(DistinctCustBase(), TableRef("sales"), {Count("n")},
                              Gt(RCol("sale"), BCol("cust")));
  Result<PlanCost> ci = EstimateCost(indexable, catalog_);
  Result<PlanCost> cn = EstimateCost(nested, catalog_);
  ASSERT_TRUE(ci.ok() && cn.ok());
  EXPECT_LT(ci->work, cn->work);
  Result<size_t> best = ChooseCheapestPlan({nested, indexable}, catalog_);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(*best, 1u);
}

TEST_F(OptimizerTest, CostModelPrefersFusedSeries) {
  auto state_theta = [](const char* st) {
    return And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("state"), Lit(st)));
  };
  PlanPtr series = DistinctCustBase();
  series = MdJoinPlan(series, TableRef("sales"), {Avg(RCol("sale"), "a1")},
                      state_theta("NY"));
  series = MdJoinPlan(series, TableRef("sales"), {Avg(RCol("sale"), "a2")},
                      state_theta("NJ"));
  Result<PlanPtr> fused = FuseMdJoinSeries(series);
  ASSERT_TRUE(fused.ok());
  Result<PlanCost> cs = EstimateCost(series, catalog_);
  Result<PlanCost> cf = EstimateCost(*fused, catalog_);
  ASSERT_TRUE(cs.ok() && cf.ok());
  EXPECT_LT(cf->work, cs->work);
}

TEST_F(OptimizerTest, CatalogErrors) {
  EXPECT_TRUE(catalog_.Lookup("nope").status().IsNotFound());
  Table other = testutil::SmallSales();
  EXPECT_EQ(catalog_.Register("sales", &other).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(ExecutePlan(TableRef("missing"), catalog_).ok());
}

}  // namespace
}  // namespace mdjoin
