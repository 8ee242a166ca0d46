/// Tests for the extension features beyond the paper's minimal surface:
/// holistic/approximate aggregates (footnote 2), the rule-driven optimizer
/// driver, and the HAVING / ORDER BY clauses of the ANALYZE BY dialect.

#include <gtest/gtest.h>

#include "agg/agg_spec.h"
#include "analyze/binder.h"
#include "core/mdjoin.h"
#include "cube/base_tables.h"
#include "optimizer/executor.h"
#include "optimizer/optimize.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using testutil::F;
using testutil::I;

Value RunAgg(const std::string& name, const std::vector<Value>& values) {
  const AggregateFunction* fn = *AggregateRegistry::Global()->Lookup(name);
  std::unique_ptr<AggregateState> state = fn->MakeState();
  for (const Value& v : values) fn->Update(state.get(), v);
  return fn->Finalize(*state);
}

TEST(HolisticAggTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(RunAgg("median", {I(5), I(1), I(3)}).float64(), 3.0);
  EXPECT_DOUBLE_EQ(RunAgg("median", {I(4), I(1), I(3), I(2)}).float64(), 2.5);
  EXPECT_TRUE(RunAgg("median", {}).is_null());
  EXPECT_DOUBLE_EQ(RunAgg("median", {I(7), Value::Null()}).float64(), 7.0);
}

TEST(HolisticAggTest, MedianMergeIsExact) {
  const AggregateFunction* fn = *AggregateRegistry::Global()->Lookup("median");
  std::unique_ptr<AggregateState> a = fn->MakeState();
  std::unique_ptr<AggregateState> b = fn->MakeState();
  for (int64_t v : {9, 2, 5}) fn->Update(a.get(), I(v));
  for (int64_t v : {7, 1}) fn->Update(b.get(), I(v));
  fn->Merge(a.get(), *b);
  EXPECT_DOUBLE_EQ(fn->Finalize(*a).float64(), 5.0);  // median of {1,2,5,7,9}
}

TEST(HolisticAggTest, ApproxMedianNearExactOnSkewlessData) {
  // 10k uniform values: the 256-sample reservoir median should land well
  // inside the interquartile range.
  Random rng(99);
  std::vector<Value> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(F(static_cast<double>(rng.UniformInt(0, 1000))));
  }
  double approx = RunAgg("approx_median", values).float64();
  EXPECT_GT(approx, 350.0);
  EXPECT_LT(approx, 650.0);
  // Small inputs are exact (sample not yet saturated).
  EXPECT_DOUBLE_EQ(RunAgg("approx_median", {I(1), I(2), I(3)}).float64(), 2.0);
}

TEST(HolisticAggTest, Mode) {
  EXPECT_EQ(RunAgg("mode", {I(2), I(1), I(2), I(3), I(2)}).int64(), 2);
  // Deterministic tie-break toward the smaller value.
  EXPECT_EQ(RunAgg("mode", {I(5), I(3), I(5), I(3)}).int64(), 3);
  EXPECT_EQ(RunAgg("mode", {Value::String("NY"), Value::String("NY"),
                            Value::String("CT")})
                .string(),
            "NY");
  EXPECT_TRUE(RunAgg("mode", {}).is_null());
}

TEST(HolisticAggTest, Classification) {
  auto cls = [](const char* n) {
    return (*AggregateRegistry::Global()->Lookup(n))->agg_class();
  };
  EXPECT_EQ(cls("median"), AggClass::kHolistic);
  EXPECT_EQ(cls("mode"), AggClass::kHolistic);
  // Footnote 2: approximation makes it algebraic (bounded state).
  EXPECT_EQ(cls("approx_median"), AggClass::kAlgebraic);
  // None of them support Theorem 4.5 roll-up.
  EXPECT_FALSE(RollupSpec(AggSpec{"median", RCol("sale"), "m"}).ok());
}

TEST(HolisticAggTest, MedianInsideMdJoin) {
  Table sales = testutil::SmallSales();
  Result<Table> base = GroupByBase(sales, {"cust"});
  Result<Table> md = MdJoin(*base, sales, {AggSpec{"median", RCol("sale"), "med"}},
                            Eq(RCol("cust"), BCol("cust")));
  ASSERT_TRUE(md.ok()) << md.status().ToString();
  // cust 1 sales: 100, 200, 50, 70 -> median (70+100)/2 = 85.
  EXPECT_DOUBLE_EQ(md->Get(0, 1).float64(), 85.0);
}

class OptimizeDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sales_ = testutil::RandomSales(71, 250);
    ASSERT_TRUE(catalog_.Register("sales", &sales_).ok());
  }

  PlanPtr CustBase() {
    return DistinctPlan(ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}));
  }

  Table sales_;
  Catalog catalog_;
};

TEST_F(OptimizeDriverTest, FusesSharedDetailSeries) {
  auto state_theta = [](const char* st) {
    return And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("state"), Lit(st)));
  };
  PlanPtr plan = CustBase();
  plan = MdJoinPlan(plan, TableRef("sales"), {Avg(RCol("sale"), "a_ny")},
                    state_theta("NY"));
  plan = MdJoinPlan(plan, TableRef("sales"), {Avg(RCol("sale"), "a_nj")},
                    state_theta("NJ"));
  OptimizeReport report;
  Result<PlanPtr> optimized = OptimizePlan(plan, catalog_, {}, &report);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  // Fusion fired: root is a generalized (two-component) MD-join.
  EXPECT_EQ((*optimized)->kind(), PlanKind::kMdJoin);
  EXPECT_EQ((*optimized)->components.size(), 2u);
  EXPECT_FALSE(report.applied.empty());
  // Results unchanged.
  Result<Table> before = ExecutePlan(plan, catalog_);
  Result<Table> after = ExecutePlan(*optimized, catalog_);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_TRUE(TablesEqualUnordered(*before, *after));
}

TEST_F(OptimizeDriverTest, TransferFiresUnderFilteredBase) {
  PlanPtr plan = MdJoinPlan(FilterPlan(CustBase(), Le(Col("cust"), Lit(3))),
                            TableRef("sales"), {Count("n")},
                            Eq(RCol("cust"), BCol("cust")));
  OptimizeReport report;
  Result<PlanPtr> optimized = OptimizePlan(plan, catalog_, {}, &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ((*optimized)->child(1)->kind(), PlanKind::kFilter);
  // Idempotence: the transferred σ must appear exactly once, not once per
  // driver round.
  EXPECT_EQ((*optimized)->child(1)->child(0)->kind(), PlanKind::kTableRef);
  Result<Table> before = ExecutePlan(plan, catalog_);
  Result<Table> after = ExecutePlan(*optimized, catalog_);
  EXPECT_TRUE(TablesEqualUnordered(*before, *after));
}

TEST_F(OptimizeDriverTest, DependentChainStaysChained) {
  PlanPtr plan = CustBase();
  plan = MdJoinPlan(plan, TableRef("sales"), {Avg(RCol("sale"), "a")},
                    Eq(RCol("cust"), BCol("cust")));
  plan = MdJoinPlan(plan, TableRef("sales"), {Count("n")},
                    And(Eq(RCol("cust"), BCol("cust")), Gt(RCol("sale"), BCol("a"))));
  Result<PlanPtr> optimized = OptimizePlan(plan, catalog_);
  ASSERT_TRUE(optimized.ok());
  // Still two stacked MD-joins (no illegal fusion), same results.
  EXPECT_EQ((*optimized)->kind(), PlanKind::kMdJoin);
  Result<Table> before = ExecutePlan(plan, catalog_);
  Result<Table> after = ExecutePlan(*optimized, catalog_);
  EXPECT_TRUE(TablesEqualUnordered(*before, *after));
}

class HavingOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sales_ = testutil::SmallSales();
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

TEST_F(HavingOrderTest, HavingFiltersOutputs) {
  Result<Table> all = Run(
      "select cust, sum(sale) as total from Sales analyze by group(cust)");
  Result<Table> big = Run(
      "select cust, sum(sale) as total from Sales analyze by group(cust) "
      "having total > 400");
  ASSERT_TRUE(all.ok() && big.ok()) << big.status().ToString();
  EXPECT_LT(big->num_rows(), all->num_rows());
  for (int64_t r = 0; r < big->num_rows(); ++r) {
    EXPECT_GT(big->Get(r, 1).AsDouble(), 400.0);
  }
}

TEST_F(HavingOrderTest, OrderBySortsOutputs) {
  Result<Table> got = Run(
      "select cust, sum(sale) as total from Sales analyze by group(cust) "
      "order by total desc");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (int64_t r = 1; r < got->num_rows(); ++r) {
    EXPECT_GE(got->Get(r - 1, 1).AsDouble(), got->Get(r, 1).AsDouble());
  }
}

TEST_F(HavingOrderTest, OrderByMultipleKeys) {
  Result<Table> got = Run(
      "select prod, month, count(*) as n from Sales "
      "analyze by group(prod, month) order by prod asc, month desc");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (int64_t r = 1; r < got->num_rows(); ++r) {
    int c = got->Get(r - 1, 0).Compare(got->Get(r, 0));
    EXPECT_LE(c, 0);
    if (c == 0) {
      EXPECT_GE(got->Get(r - 1, 1).int64(), got->Get(r, 1).int64());
    }
  }
}

TEST_F(HavingOrderTest, HavingThenOrderCombined) {
  Result<Table> got = Run(
      "select cust, count(*) as n from Sales analyze by group(cust) "
      "having n >= 2 order by n desc");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_GT(got->num_rows(), 0);
  EXPECT_GE(got->Get(got->num_rows() - 1, 1).int64(), 2);
}

TEST_F(HavingOrderTest, Errors) {
  EXPECT_FALSE(Run("select cust, count(*) as n from Sales analyze by group(cust) "
                   "having bogus > 1")
                   .ok());
  EXPECT_FALSE(Run("select cust from Sales analyze by group(cust) order by bogus")
                   .ok());
}

TEST_F(HavingOrderTest, MedianInQueryLanguage) {
  Result<Table> got = Run(
      "select cust, median(sale) as med from Sales analyze by group(cust) "
      "order by cust");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_DOUBLE_EQ(got->Get(0, 1).float64(), 85.0);  // cust 1: {50,70,100,200}
}

}  // namespace
}  // namespace mdjoin
