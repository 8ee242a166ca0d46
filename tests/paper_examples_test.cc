/// Every worked example in the paper, built twice: as MD-join plans and as
/// classical relational-algebra baselines (the multi-block SQL shape §2
/// complains about). The pairs must agree exactly.

#include <gtest/gtest.h>

#include <functional>

#include "analyze/binder.h"
#include "core/generalized.h"
#include "core/mdjoin.h"
#include "core/reference.h"
#include "cube/base_tables.h"
#include "expr/conjuncts.h"
#include "obs/query_profile.h"
#include "optimizer/executor.h"
#include "optimizer/optimize.h"
#include "ra/filter.h"
#include "ra/group_by.h"
#include "ra/join.h"
#include "ra/project.h"
#include "table/table_accel.h"
#include "table/table_ops.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

ExprPtr DimsTheta(const std::vector<std::string>& dims) {
  std::vector<ExprPtr> eqs;
  for (const std::string& d : dims) eqs.push_back(Eq(BCol(d), RCol(d)));
  return CombineConjuncts(std::move(eqs));
}

class PaperExamplesTest : public ::testing::Test {
 protected:
  void SetUp() override { sales_ = testutil::RandomSales(101, 300); }
  Table sales_;
};

TEST_F(PaperExamplesTest, Example21_CubeBy) {
  // "total sales broken down by all combinations of prod, month, state".
  std::vector<std::string> dims = {"prod", "month", "state"};
  Result<Table> base = CubeByBase(sales_, dims);
  Result<Table> md_cube = MdJoin(*base, sales_, {Sum(RCol("sale"), "total")},
                                 DimsTheta(dims));
  ASSERT_TRUE(md_cube.ok()) << md_cube.status().ToString();

  // Baseline: eight GROUP BYs, one per cuboid, widened with ALL and unioned.
  Result<CubeLattice> lattice = CubeLattice::Make(dims);
  std::vector<Table> pieces;
  for (CuboidMask mask : lattice->AllCuboids()) {
    std::vector<std::string> attrs = lattice->CuboidAttrs(mask);
    Table grouped = attrs.empty()
                        ? *AggregateAll(sales_, {Sum(Col("sale"), "total")})
                        : *GroupBy(sales_, attrs, {Sum(Col("sale"), "total")});
    // Widen to (prod, month, state, total) with ALL.
    Table widened{Schema({{"prod", DataType::kInt64},
                          {"month", DataType::kInt64},
                          {"state", DataType::kString},
                          {"total", DataType::kFloat64}})};
    for (int64_t r = 0; r < grouped.num_rows(); ++r) {
      std::vector<Value> row(4, Value::All());
      for (size_t a = 0; a < attrs.size(); ++a) {
        int dim_pos = attrs[a] == "prod" ? 0 : attrs[a] == "month" ? 1 : 2;
        row[static_cast<size_t>(dim_pos)] = grouped.Get(r, static_cast<int>(a));
      }
      row[3] = grouped.Get(r, static_cast<int>(attrs.size()));
      widened.AppendRowUnchecked(std::move(row));
    }
    pieces.push_back(std::move(widened));
  }
  Result<Table> baseline = ConcatAll(pieces);
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(TablesEqualUnordered(*md_cube, *baseline));
}

TEST_F(PaperExamplesTest, Example22_TriStatePivot) {
  // Per-customer average sale in NY, NJ, CT — a single generalized MD-join
  // vs the 4-subquery + 3-outer-join SQL plan the paper describes.
  Result<Table> base = GroupByBase(sales_, {"cust"});
  auto theta = [](const char* st) {
    return And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("state"), Lit(st)));
  };
  std::vector<MdJoinComponent> comps;
  comps.push_back({{Avg(RCol("sale"), "avg_ny")}, theta("NY")});
  comps.push_back({{Avg(RCol("sale"), "avg_nj")}, theta("NJ")});
  comps.push_back({{Avg(RCol("sale"), "avg_ct")}, theta("CT")});
  Result<Table> md = GeneralizedMdJoin(*base, sales_, comps);
  ASSERT_TRUE(md.ok()) << md.status().ToString();

  // Baseline: distinct customers, three per-state GROUP BY subqueries, three
  // left outer joins.
  Table result = base->Clone();
  for (const auto& [state, name] : std::vector<std::pair<const char*, const char*>>{
           {"NY", "avg_ny"}, {"NJ", "avg_nj"}, {"CT", "avg_ct"}}) {
    Result<Table> sub = Filter(sales_, Eq(Col("state"), Lit(state)));
    Result<Table> grouped = GroupBy(*sub, {"cust"}, {Avg(Col("sale"), name)});
    Result<Table> joined =
        HashJoin(result, *grouped, {"cust"}, {"cust"}, JoinType::kLeftOuter);
    ASSERT_TRUE(joined.ok());
    result = std::move(*joined);
  }
  EXPECT_TRUE(TablesEqualUnordered(*md, result));
}

TEST_F(PaperExamplesTest, Example23_CountAboveCubeAverage) {
  // "how many sales were above the average sale" per cube cell: two chained
  // MD-joins over a cube base (Example 3.2's algebra).
  std::vector<std::string> dims = {"prod", "month"};
  Result<Table> base = CubeByBase(sales_, dims);
  Result<Table> with_avg = MdJoin(*base, sales_, {Avg(RCol("sale"), "avg_sale")},
                                  DimsTheta(dims));
  ASSERT_TRUE(with_avg.ok());
  ExprPtr theta2 = And(DimsTheta(dims), Gt(RCol("sale"), BCol("avg_sale")));
  Result<Table> md = MdJoin(*with_avg, sales_, {Count("above_avg")}, theta2);
  ASSERT_TRUE(md.ok()) << md.status().ToString();
  EXPECT_EQ(md->num_rows(), base->num_rows());

  // Baseline check on the finest cuboid: per (prod, month), join sales with
  // the group average and count the above-average rows.
  Result<Table> avgs = GroupBy(sales_, dims, {Avg(Col("sale"), "avg_sale")});
  Result<Table> joined = HashJoin(sales_, *avgs, dims, dims);
  Result<Table> above = Filter(*joined, Gt(Col("sale"), Col("avg_sale")));
  Result<Table> counts = GroupBy(*above, dims, {Count("above_avg")});
  ASSERT_TRUE(counts.ok());
  // Each baseline row must match the MD-join output at the same cell.
  int64_t checked = 0;
  for (int64_t r = 0; r < md->num_rows(); ++r) {
    if (md->Get(r, 0).is_all() || md->Get(r, 1).is_all()) continue;
    for (int64_t g = 0; g < counts->num_rows(); ++g) {
      if (counts->Get(g, 0).Equals(md->Get(r, 0)) &&
          counts->Get(g, 1).Equals(md->Get(r, 1))) {
        EXPECT_EQ(md->Get(r, 3).int64(), counts->Get(g, 2).int64());
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
  // Grand-total cell: manual computation.
  double grand_avg = 0;
  for (int64_t r = 0; r < sales_.num_rows(); ++r) grand_avg += sales_.Get(r, 6).AsDouble();
  grand_avg /= static_cast<double>(sales_.num_rows());
  int64_t grand_above = 0;
  for (int64_t r = 0; r < sales_.num_rows(); ++r) {
    if (sales_.Get(r, 6).AsDouble() > grand_avg) ++grand_above;
  }
  for (int64_t r = 0; r < md->num_rows(); ++r) {
    if (md->Get(r, 0).is_all() && md->Get(r, 1).is_all()) {
      EXPECT_EQ(md->Get(r, 3).int64(), grand_above);
    }
  }
}

TEST_F(PaperExamplesTest, Example24_PrecomputedBasePoints) {
  // Aggregate only at caller-chosen data-cube points.
  TableBuilder points({{"prod", DataType::kInt64}, {"month", DataType::kInt64}});
  points.AppendRowOrDie({testutil::I(10), testutil::I(2)});
  points.AppendRowOrDie({testutil::I(20), testutil::ALL()});
  points.AppendRowOrDie({testutil::ALL(), testutil::ALL()});
  Table base = std::move(points).Finish();
  Result<Table> md = MdJoin(base, sales_, {Sum(RCol("sale"), "total")},
                            DimsTheta({"prod", "month"}));
  ASSERT_TRUE(md.ok()) << md.status().ToString();
  ASSERT_EQ(md->num_rows(), 3);
  // Row-by-row manual verification.
  double p10m2 = 0, p20 = 0, grand = 0;
  for (int64_t r = 0; r < sales_.num_rows(); ++r) {
    double sale = sales_.Get(r, 6).AsDouble();
    grand += sale;
    if (sales_.Get(r, 1).int64() == 20) p20 += sale;
    if (sales_.Get(r, 1).int64() == 10 && sales_.Get(r, 3).int64() == 2) p10m2 += sale;
  }
  EXPECT_DOUBLE_EQ(md->Get(0, 2).AsDouble(), p10m2);
  EXPECT_DOUBLE_EQ(md->Get(1, 2).AsDouble(), p20);
  EXPECT_DOUBLE_EQ(md->Get(2, 2).AsDouble(), grand);
}

TEST_F(PaperExamplesTest, Example25_BetweenPrevAndNextMonthAverage) {
  // For each (prod, month of 1997): count sales between the previous month's
  // and the next month's average sale. Three grouping variables X, Y, Z.
  Result<Table> filtered = Filter(sales_, Eq(Col("year"), Lit(1997)));
  const Table& sales97 = *filtered;
  Result<Table> base = GroupByBase(sales97, {"prod", "month"});
  ExprPtr prod_eq = Eq(RCol("prod"), BCol("prod"));
  // X: previous month; Y: next month; Z: this month, sale between the two.
  ExprPtr theta_x = And(prod_eq, Eq(RCol("month"), Sub(BCol("month"), Lit(1))));
  ExprPtr theta_y = And(prod_eq, Eq(RCol("month"), Add(BCol("month"), Lit(1))));
  Result<Table> step = MdJoin(*base, sales97, {Avg(RCol("sale"), "prev_avg")}, theta_x);
  ASSERT_TRUE(step.ok());
  step = MdJoin(*step, sales97, {Avg(RCol("sale"), "next_avg")}, theta_y);
  ASSERT_TRUE(step.ok());
  ExprPtr theta_z = And(prod_eq, Eq(RCol("month"), BCol("month")),
                        Gt(RCol("sale"), BCol("prev_avg")),
                        Lt(RCol("sale"), BCol("next_avg")));
  Result<Table> md = MdJoin(*step, sales97, {Count("between_count")}, theta_z);
  ASSERT_TRUE(md.ok()) << md.status().ToString();

  // Baseline: per-(prod, month) averages; for each group look up month±1 and
  // count qualifying rows by scanning.
  Result<Table> avgs = GroupBy(sales97, {"prod", "month"}, {Avg(Col("sale"), "a")});
  auto avg_of = [&](int64_t prod, int64_t month) -> Value {
    for (int64_t r = 0; r < avgs->num_rows(); ++r) {
      if (avgs->Get(r, 0).int64() == prod && avgs->Get(r, 1).int64() == month) {
        return avgs->Get(r, 2);
      }
    }
    return Value::Null();
  };
  for (int64_t r = 0; r < md->num_rows(); ++r) {
    int64_t prod = md->Get(r, 0).int64();
    int64_t month = md->Get(r, 1).int64();
    Value prev = avg_of(prod, month - 1);
    Value next = avg_of(prod, month + 1);
    int64_t expected = 0;
    if (!prev.is_null() && !next.is_null()) {
      for (int64_t s = 0; s < sales97.num_rows(); ++s) {
        if (sales97.Get(s, 1).int64() != prod || sales97.Get(s, 3).int64() != month) {
          continue;
        }
        double sale = sales97.Get(s, 6).AsDouble();
        if (sale > prev.AsDouble() && sale < next.AsDouble()) ++expected;
      }
    }
    EXPECT_EQ(md->Get(r, 4).int64(), expected) << "prod=" << prod << " month=" << month;
  }
}

TEST_F(PaperExamplesTest, Example33_SalesAndPayments) {
  // Total sales and payments per (cust, month), two detail relations.
  Table payments = GeneratePayments({.num_rows = 200, .num_customers = 6, .seed = 5});
  Result<Table> base = GroupByBase(sales_, {"cust", "month"});
  ExprPtr theta1 = And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("month"), BCol("month")));
  Result<Table> step = MdJoin(*base, sales_, {Sum(RCol("sale"), "total_sales")}, theta1);
  ASSERT_TRUE(step.ok());
  Result<Table> md =
      MdJoin(*step, payments, {Sum(RCol("amount"), "total_paid")}, theta1);
  ASSERT_TRUE(md.ok()) << md.status().ToString();

  // Baseline: two GROUP BYs left-outer-joined onto the base.
  Result<Table> s = GroupBy(sales_, {"cust", "month"}, {Sum(Col("sale"), "total_sales")});
  Result<Table> p =
      GroupBy(payments, {"cust", "month"}, {Sum(Col("amount"), "total_paid")});
  Result<Table> j1 =
      HashJoin(*base, *s, {"cust", "month"}, {"cust", "month"}, JoinType::kLeftOuter);
  Result<Table> baseline =
      HashJoin(*j1, *p, {"cust", "month"}, {"cust", "month"}, JoinType::kLeftOuter);
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(TablesEqualUnordered(*md, *baseline));
}

TEST_F(PaperExamplesTest, Example41_PeriodComparison) {
  // Total sales 1994–1996 vs 1999 per product; the two R-only year conjuncts
  // are exactly what Theorem 4.2 pushes down.
  Result<Table> base = GroupByBase(sales_, {"prod"});
  ExprPtr theta1 = And(Eq(RCol("prod"), BCol("prod")), Ge(RCol("year"), Lit(1994)),
                       Le(RCol("year"), Lit(1996)));
  ExprPtr theta2 = And(Eq(RCol("prod"), BCol("prod")), Eq(RCol("year"), Lit(1999)));
  std::vector<MdJoinComponent> comps;
  comps.push_back({{Sum(RCol("sale"), "total_94_96")}, theta1});
  comps.push_back({{Sum(RCol("sale"), "total_99")}, theta2});
  Result<Table> md = GeneralizedMdJoin(*base, sales_, comps);
  ASSERT_TRUE(md.ok()) << md.status().ToString();

  // Baseline via filtered GROUP BYs + outer joins.
  Result<Table> early = Filter(
      sales_, And(Ge(Col("year"), Lit(1994)), Le(Col("year"), Lit(1996))));
  Result<Table> late = Filter(sales_, Eq(Col("year"), Lit(1999)));
  Result<Table> ge = GroupBy(*early, {"prod"}, {Sum(Col("sale"), "total_94_96")});
  Result<Table> gl = GroupBy(*late, {"prod"}, {Sum(Col("sale"), "total_99")});
  Result<Table> j1 = HashJoin(*base, *ge, {"prod"}, {"prod"}, JoinType::kLeftOuter);
  Result<Table> baseline = HashJoin(*j1, *gl, {"prod"}, {"prod"}, JoinType::kLeftOuter);
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(TablesEqualUnordered(*md, *baseline));
}

TEST(PaperExample41Test, PeriodTextPrunesAYearSortedSales) {
  // Example 4.1 from text over Sales sorted on year, 24 morsels: each θ's
  // year range lets the MD-join skip the morsels outside it, so a join scans
  // at most its in-range rows plus two partial morsels per range, and the
  // morsels it skipped show in blocks_pruned. Bound, the two periods are two
  // chained joins; optimized, one generalized join (Theorem 4.3) keeps the
  // morsels either θ could match. Results equal the unsorted table's and
  // Definition 3.1's.
  const Table unsorted = testutil::RandomSales(41, 24 * kMorselRows);
  const Table by_year = *SortTableBy(unsorted, {"year"});
  const char* text =
      "select prod, sum(X.sale) as total_94_96, sum(Y.sale) as total_99 from Sales "
      "analyze by group(prod) such that "
      "X: X.prod = prod and X.year >= 1994 and X.year <= 1996, "
      "Y: Y.prod = prod and Y.year = 1999";
  const ExprPtr early = And(Eq(RCol("prod"), BCol("prod")), Ge(RCol("year"), Lit(1994)),
                            Le(RCol("year"), Lit(1996)));
  const ExprPtr late = And(Eq(RCol("prod"), BCol("prod")), Eq(RCol("year"), Lit(1999)));
  const int64_t early_rows = Filter(by_year, And(Ge(Col("year"), Lit(1994)),
                                                 Le(Col("year"), Lit(1996))))->num_rows();
  const int64_t late_rows = Filter(by_year, Eq(Col("year"), Lit(1999)))->num_rows();
  ASSERT_GT(early_rows, 0);
  ASSERT_GT(late_rows, 0);

  Result<Table> base = GroupByBase(by_year, {"prod"});
  Result<Table> x = MdJoinReference(*base, by_year, {Sum(RCol("sale"), "total_94_96")}, early);
  Result<Table> want = MdJoinReference(*x, by_year, {Sum(RCol("sale"), "total_99")}, late);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  Catalog sorted, plain;
  ASSERT_TRUE(sorted.Register("Sales", &by_year).ok());
  ASSERT_TRUE(plain.Register("Sales", &unsorted).ok());
  Result<analyze::BoundQuery> bound = analyze::BindQueryString(text, sorted);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  Result<PlanPtr> optimized = OptimizePlan(bound->plan, sorted);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  for (const PlanPtr& plan : {bound->plan, *optimized}) {
    QueryProfile profile;
    Result<Table> got = ExplainAnalyze(plan, sorted, {}, &profile);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(testutil::TablesBitIdentical(*want, *got));
    Result<Table> over_unsorted = ExecutePlan(plan, plain);
    ASSERT_TRUE(over_unsorted.ok());
    EXPECT_TRUE(TablesEqualUnordered(*got, *over_unsorted));

    std::vector<const OperatorProfile*> joins;
    std::function<void(const OperatorProfile&)> walk = [&](const OperatorProfile& n) {
      if (n.is_mdjoin) joins.push_back(&n);
      for (const auto& child : n.children) walk(*child);
    };
    walk(*profile.root);
    ASSERT_EQ(joins.size(), plan == bound->plan ? 2u : 1u) << profile.ToText();
    for (const OperatorProfile* join : joins) {
      SCOPED_TRACE(join->label);
      // Chained, the outer join is the late period's; fused, both ranges.
      const bool fused = joins.size() == 1;
      const bool is_late = !fused && join == joins[0];
      const int64_t in_range = fused ? early_rows + late_rows : is_late ? late_rows : early_rows;
      const int64_t ranges = fused ? 2 : 1;
      EXPECT_GT(join->blocks_pruned, 0) << profile.ToText();
      EXPECT_LE(join->detail_rows_scanned, in_range + 2 * ranges * kMorselRows);
      EXPECT_EQ(join->detail_rows_scanned,
                by_year.num_rows() - join->blocks_pruned * kMorselRows);
    }
  }
}

TEST_F(PaperExamplesTest, Figure1a_OutputShape) {
  // The cube output carries the Figure 1(a) shape: concrete cells, partial
  // rollups, and the (ALL, ALL, ALL) grand total, one row per base value.
  std::vector<std::string> dims = {"prod", "month", "state"};
  Result<Table> base = CubeByBase(sales_, dims);
  Result<Table> cube = MdJoin(*base, sales_, {Sum(RCol("sale"), "total")},
                              DimsTheta(dims));
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->num_rows(), base->num_rows());
  int grand_rows = 0;
  double grand = 0;
  for (int64_t r = 0; r < sales_.num_rows(); ++r) grand += sales_.Get(r, 6).AsDouble();
  for (int64_t r = 0; r < cube->num_rows(); ++r) {
    // Every row has a non-NULL total: cube base values come from the data.
    EXPECT_FALSE(cube->Get(r, 3).is_null());
    if (cube->Get(r, 0).is_all() && cube->Get(r, 1).is_all() &&
        cube->Get(r, 2).is_all()) {
      ++grand_rows;
      EXPECT_DOUBLE_EQ(cube->Get(r, 3).AsDouble(), grand);
    }
  }
  EXPECT_EQ(grand_rows, 1);
}

}  // namespace
}  // namespace mdjoin
