/// Whole-system integration: CSV in → ANALYZE BY query → optimizer →
/// executor → CSV out, cross-checked against hand-built relational plans.
/// This is the path a downstream user of the library actually takes.

#include <gtest/gtest.h>

#include "analyze/binder.h"
#include "optimizer/executor.h"
#include "optimizer/optimize.h"
#include "ra/filter.h"
#include "ra/group_by.h"
#include "ra/join.h"
#include "table/csv.h"
#include "table/table_ops.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Round-trip the data through CSV so the serialization path is part of
    // the pipeline under test.
    SalesConfig config;
    config.num_rows = 2000;
    config.num_customers = 40;
    config.num_products = 5;
    config.num_months = 6;
    config.num_states = 4;
    Table generated = GenerateSales(config);
    std::string csv = TableToCsv(generated);
    Result<Table> parsed = TableFromCsv(csv, generated.schema());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    sales_ = std::move(*parsed);
    ASSERT_TRUE(TablesEqualOrdered(generated, sales_));
    ASSERT_TRUE(catalog_.Register("Sales", &sales_).ok());
  }

  /// Parses, binds, optimizes, executes.
  Result<Table> RunOptimized(const std::string& sql) {
    Result<analyze::BoundQuery> bound = analyze::BindQueryString(sql, catalog_);
    if (!bound.ok()) return bound.status();
    MDJ_ASSIGN_OR_RETURN(PlanPtr optimized, OptimizePlan(bound->plan, catalog_));
    return ExecutePlanCse(optimized, catalog_);
  }

  Table sales_;
  Catalog catalog_;
};

TEST_F(EndToEndTest, OptimizedQueryMatchesUnoptimized) {
  const std::string sql =
      "select cust, sum(sale) as total, avg(X.sale) as avg_ny, "
      "count(Y.sale) as big_sales from Sales where year >= 1995 "
      "analyze by group(cust) "
      "such that X: X.cust = cust and X.state = 'NY', "
      "          Y: Y.cust = cust and Y.sale > 800 "
      "order by cust";
  Result<analyze::BoundQuery> bound = analyze::BindQueryString(sql, catalog_);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  OptimizeReport report;
  Result<PlanPtr> optimized = OptimizePlan(bound->plan, catalog_, {}, &report);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  EXPECT_FALSE(report.applied.empty()) << "expected at least one rule firing";
  Result<Table> plain = ExecutePlanCse(bound->plan, catalog_);
  Result<Table> opt = ExecutePlanCse(*optimized, catalog_);
  ASSERT_TRUE(plain.ok() && opt.ok());
  EXPECT_TRUE(TablesEqualOrdered(*plain, *opt));
}

TEST_F(EndToEndTest, CubeQueryAgainstPerCuboidGroupBys) {
  Result<Table> got = RunOptimized(
      "select prod, month, sum(sale) as total, count(*) as n from Sales "
      "analyze by cube(prod, month)");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // Spot-check three granularities against plain GROUP BYs.
  Result<Table> fine = GroupBy(sales_, {"prod", "month"},
                               {Sum(Col("sale"), "total"), Count("n")});
  Result<Table> coarse = GroupBy(sales_, {"prod"},
                                 {Sum(Col("sale"), "total"), Count("n")});
  Result<Table> total = AggregateAll(sales_, {Sum(Col("sale"), "total"), Count("n")});
  int matched_fine = 0, matched_coarse = 0, matched_total = 0;
  for (int64_t r = 0; r < got->num_rows(); ++r) {
    const Value& p = got->Get(r, 0);
    const Value& m = got->Get(r, 1);
    if (!p.is_all() && !m.is_all()) {
      for (int64_t g = 0; g < fine->num_rows(); ++g) {
        if (fine->Get(g, 0).Equals(p) && fine->Get(g, 1).Equals(m)) {
          EXPECT_DOUBLE_EQ(got->Get(r, 2).AsDouble(), fine->Get(g, 2).AsDouble());
          EXPECT_EQ(got->Get(r, 3).int64(), fine->Get(g, 3).int64());
          ++matched_fine;
        }
      }
    } else if (!p.is_all() && m.is_all()) {
      for (int64_t g = 0; g < coarse->num_rows(); ++g) {
        if (coarse->Get(g, 0).Equals(p)) {
          EXPECT_DOUBLE_EQ(got->Get(r, 2).AsDouble(), coarse->Get(g, 1).AsDouble());
          ++matched_coarse;
        }
      }
    } else if (p.is_all() && m.is_all()) {
      EXPECT_DOUBLE_EQ(got->Get(r, 2).AsDouble(), total->Get(0, 0).AsDouble());
      ++matched_total;
    }
  }
  EXPECT_EQ(matched_fine, fine->num_rows());
  EXPECT_EQ(matched_coarse, coarse->num_rows());
  EXPECT_EQ(matched_total, 1);
}

TEST_F(EndToEndTest, ResultsSurviveCsvRoundTrip) {
  Result<Table> got = RunOptimized(
      "select prod, month, sum(sale) as total from Sales "
      "analyze by rollup(prod, month)");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // ALL markers and floats survive serialization.
  std::string csv = TableToCsv(*got);
  Result<Table> back = TableFromCsv(csv, got->schema());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(TablesEqualOrdered(*got, *back));
}

TEST_F(EndToEndTest, HavingOrderAndVariablesCombined) {
  Result<Table> got = RunOptimized(
      "select cust, count(*) as n, avg(X.sale) as avg_ny from Sales "
      "analyze by group(cust) "
      "such that X: X.cust = cust and X.state = 'NY' "
      "having n >= 10 order by n desc, cust asc");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (int64_t r = 0; r < got->num_rows(); ++r) {
    EXPECT_GE(got->Get(r, 1).int64(), 10);
    if (r > 0) {
      int64_t prev = got->Get(r - 1, 1).int64(), cur = got->Get(r, 1).int64();
      EXPECT_TRUE(prev > cur ||
                  (prev == cur && got->Get(r - 1, 0).int64() < got->Get(r, 0).int64()));
    }
  }
  // Cross-check the counts against a GROUP BY + filter.
  Result<Table> counts = GroupBy(sales_, {"cust"}, {Count("n")});
  Result<Table> filtered = Filter(*counts, Ge(Col("n"), Lit(10)));
  EXPECT_EQ(got->num_rows(), filtered->num_rows());
}

/// Computing INT64_MIN % -1 traps (SIGFPE) and would take the whole process,
/// a query server included, down with it. From query text through the
/// optimizer and executor, x % -1 is 0 for every x and arithmetic whose
/// int64 result does not fit is NULL.
TEST_F(EndToEndTest, Int64EdgeArithmeticFromQueryText) {
  const Schema schema({{"cust", DataType::kInt64}, {"x", DataType::kInt64}});
  Result<Table> t = TableFromCsv("cust,x\n1,-9223372036854775808\n2,5\n", schema);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_TRUE(catalog_.Register("T", &*t).ok());
  auto run = [&](const std::string& sql) -> Result<Table> {
    MDJ_ASSIGN_OR_RETURN(analyze::BoundQuery bound,
                         analyze::BindQueryString(sql, catalog_));
    MDJ_ASSIGN_OR_RETURN(PlanPtr plan, OptimizePlan(bound.plan, catalog_));
    return ExecutePlan(plan, catalog_);
  };
  // The reported repro: both rows satisfy x % -1 = 0.
  Result<Table> mod = run(
      "select cust, count(*) from T where x % -1 = 0 analyze by group(cust) "
      "order by cust");
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  ASSERT_EQ(mod->num_rows(), 2);
  for (int64_t r = 0; r < 2; ++r) {
    EXPECT_EQ(mod->Get(r, 0).int64(), r + 1);
    EXPECT_EQ(mod->Get(r, 1).int64(), 1);
  }
  // -x, x - 1 and x * 2 overflow only for cust 1's INT64_MIN.
  Result<Table> overflow = run(
      "select cust, count(*) as n from T where (-x) is null and (x - 1) is null "
      "and (x * 2) is null analyze by group(cust)");
  ASSERT_TRUE(overflow.ok()) << overflow.status().ToString();
  ASSERT_EQ(overflow->num_rows(), 1);
  EXPECT_EQ(overflow->Get(0, 0).int64(), 1);
  EXPECT_EQ(overflow->Get(0, 1).int64(), 1);
}

TEST_F(EndToEndTest, TwoFactTablesThroughPlans) {
  PaymentsConfig pconfig;
  pconfig.num_rows = 800;
  pconfig.num_customers = 40;
  Table payments = GeneratePayments(pconfig);
  ASSERT_TRUE(catalog_.Register("Payments", &payments).ok());
  // Example 3.3 assembled as plans, optimized, and checked against the
  // outer-join baseline.
  ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("month"), BCol("month")));
  PlanPtr base = DistinctPlan(ProjectPlan(
      TableRef("Sales"), {{Col("cust"), "cust"}, {Col("month"), "month"}}));
  PlanPtr plan = MdJoinPlan(
      MdJoinPlan(base, TableRef("Sales"), {Sum(RCol("sale"), "total_sales")}, theta),
      TableRef("Payments"), {Sum(RCol("amount"), "total_paid")}, theta);
  Result<PlanPtr> optimized = OptimizePlan(plan, catalog_);
  ASSERT_TRUE(optimized.ok());
  Result<Table> got = ExecutePlanCse(*optimized, catalog_);
  ASSERT_TRUE(got.ok());

  Result<Table> base_t = DistinctOn(sales_, {"cust", "month"});
  Result<Table> s = GroupBy(sales_, {"cust", "month"}, {Sum(Col("sale"), "total_sales")});
  Result<Table> p =
      GroupBy(payments, {"cust", "month"}, {Sum(Col("amount"), "total_paid")});
  Result<Table> j1 =
      HashJoin(*base_t, *s, {"cust", "month"}, {"cust", "month"}, JoinType::kLeftOuter);
  Result<Table> baseline =
      HashJoin(*j1, *p, {"cust", "month"}, {"cust", "month"}, JoinType::kLeftOuter);
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(TablesEqualUnordered(*got, *baseline));
}

}  // namespace
}  // namespace mdjoin
