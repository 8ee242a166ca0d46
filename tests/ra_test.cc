#include <gtest/gtest.h>

#include <limits>

#include "expr/compile.h"

#include "ra/filter.h"
#include "ra/group_by.h"
#include "ra/join.h"
#include "ra/project.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using testutil::I;
using testutil::S;

TEST(FilterTest, SelectsMatchingRows) {
  Table sales = testutil::SmallSales();
  Result<Table> ny = Filter(sales, Eq(Col("state"), Lit("NY")));
  ASSERT_TRUE(ny.ok());
  EXPECT_EQ(ny->num_rows(), 4);
  for (int64_t r = 0; r < ny->num_rows(); ++r) {
    EXPECT_EQ(ny->Get(r, 5).string(), "NY");
  }
}

TEST(FilterTest, CompoundPredicate) {
  Table sales = testutil::SmallSales();
  Result<Table> t = Filter(sales, And(Eq(Col("year"), Lit(1997)), Gt(Col("sale"), Lit(100))));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 3);  // 200/NY, 400/NJ, 150/CA
}

TEST(FilterTest, UnknownColumnFails) {
  Table sales = testutil::SmallSales();
  EXPECT_FALSE(Filter(sales, Eq(Col("nope"), Lit(1))).ok());
}

TEST(ProjectTest, ComputedColumns) {
  Table sales = testutil::SmallSales();
  Result<Table> p = Project(sales.Clone(), {{Col("cust"), "cust"},
                                            {Mul(Col("sale"), Lit(2)), "double_sale"}});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_columns(), 2);
  EXPECT_EQ(p->schema().field(1).name, "double_sale");
  EXPECT_DOUBLE_EQ(p->Get(0, 1).AsDouble(), 200.0);
}

TEST(ProjectTest, ColumnsOnly) {
  Table sales = testutil::SmallSales();
  Result<Table> p = ProjectColumns(sales, {"state", "sale"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_columns(), 2);
  EXPECT_EQ(p->num_rows(), sales.num_rows());
  EXPECT_EQ(p->Get(0, 0).string(), "NY");
}

/// A projection moves each column an item names bare and evaluates the other
/// items per row: renamed, reordered, repeated and computed items (one of
/// them over a column another item moves) give, bit for bit and with the
/// same schema, what evaluating every item per cell gives.
TEST(ProjectTest, BareColumnsMatchPerCellEvaluation) {
  Table sales = testutil::RandomSales(3, 3000);
  sales.Set(0, 6, Value::Null());
  sales.Set(1, 6, Value::All());
  sales.Set(2, 6, testutil::F(std::numeric_limits<double>::quiet_NaN()));
  sales.Set(3, 6, testutil::F(-0.0));
  sales.Set(4, 5, Value::Null());
  const std::vector<ProjectItem> items = {
      {Col("sale"), "amount"},
      {Col("state"), "state"},
      {Col("cust"), "cust"},
      {Col("state"), "state_again"},
      {Mul(Col("sale"), Lit(2)), "double_sale"},
      {Col("sale"), "sale"},
      {Add(Col("cust"), Col("prod")), "cust_plus_prod"},
  };
  std::vector<CompiledExpr> exprs;
  std::vector<Field> fields;
  for (const ProjectItem& item : items) {
    Result<CompiledExpr> c = CompileExpr(item.expr, sales.schema());
    ASSERT_TRUE(c.ok());
    fields.push_back({item.name, c->result_type()});
    exprs.push_back(*c);
  }
  Table want{Schema(std::move(fields))};
  RowCtx ctx;
  ctx.detail = &sales;
  for (int64_t r = 0; r < sales.num_rows(); ++r) {
    ctx.detail_row = r;
    std::vector<Value> row;
    for (const CompiledExpr& e : exprs) row.push_back(e.Eval(ctx));
    want.AppendRowUnchecked(std::move(row));
  }
  Result<Table> got = Project(sales.Clone(), items);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->schema().Equals(want.schema()));
  EXPECT_TRUE(testutil::TablesBitIdentical(want, *got));

  Result<Table> none = Project(sales.Clone(), {});
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->num_columns(), 0);
  EXPECT_EQ(none->num_rows(), sales.num_rows());
  EXPECT_FALSE(Project(sales.Clone(), {{Col("nope"), "nope"}}).ok());
}

TEST(GroupByTest, SumPerCustomer) {
  Table sales = testutil::SmallSales();
  Result<Table> g = GroupBy(sales, {"cust"}, {Sum(Col("sale"), "total"), Count("n")});
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_rows(), 4);
  // cust 1: 100+200+50+70 = 420, 4 rows.
  EXPECT_EQ(g->Get(0, 0).int64(), 1);
  EXPECT_DOUBLE_EQ(g->Get(0, 1).AsDouble(), 420.0);
  EXPECT_EQ(g->Get(0, 2).int64(), 4);
}

TEST(GroupByTest, MultiKeyGrouping) {
  Table sales = testutil::SmallSales();
  Result<Table> g = GroupBy(sales, {"prod", "month"}, {Count("n")});
  ASSERT_TRUE(g.ok());
  // Distinct (prod, month) combos in SmallSales: (10,1)x3? rows:
  // (10,1),(10,1),(20,2),(20,3),(10,1),(20,2),(20,2),(10,3),(20,3),(10,1)... count combos.
  Result<Table> distinct = DistinctOn(sales, {"prod", "month"});
  EXPECT_EQ(g->num_rows(), distinct->num_rows());
}

TEST(GroupByTest, OnlyOccurringGroupsAppear) {
  // The key contrast with the MD-join: a GROUP BY output has no row for a
  // group with no tuples.
  Table sales = testutil::SmallSales();
  Result<Table> ny = Filter(sales, Eq(Col("state"), Lit("NY")));
  Result<Table> g = GroupBy(*ny, {"cust"}, {Count("n")});
  ASSERT_TRUE(g.ok());
  EXPECT_LT(g->num_rows(), 4);  // customer 4 never bought in NY
}

TEST(SortedGroupByTest, MatchesHashGroupByOnSortedInput) {
  Table sales = testutil::RandomSales(61, 200);
  Result<Table> sorted = SortTableBy(sales, {"cust", "month"});
  ASSERT_TRUE(sorted.ok());
  std::vector<AggSpec> aggs = {Count("n"), Sum(Col("sale"), "total"),
                               Min(Col("sale"), "lo")};
  Result<Table> streaming = SortedGroupBy(*sorted, {"cust", "month"}, aggs);
  Result<Table> hashed = GroupBy(*sorted, {"cust", "month"}, aggs);
  ASSERT_TRUE(streaming.ok() && hashed.ok());
  // Hash GroupBy emits in first-occurrence order of the sorted input, which
  // is sorted order — the two agree exactly.
  EXPECT_TRUE(TablesEqualOrdered(*streaming, *hashed));
}

TEST(SortedGroupByTest, RejectsUngroupedInput) {
  TableBuilder b({{"k", DataType::kInt64}, {"v", DataType::kFloat64}});
  for (int64_t k : {1, 1, 2, 1}) {  // key 1 re-appears after closing
    b.AppendRowOrDie({I(k), testutil::F(1)});
  }
  Result<Table> r = SortedGroupBy(std::move(b).Finish(), {"k"}, {Count("n")});
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(SortedGroupByTest, EmptyInputYieldsNoGroups) {
  Table empty{testutil::SalesSchema()};
  Result<Table> r = SortedGroupBy(empty, {"cust"}, {Count("n")});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 0);
}

TEST(GroupByTest, AggregateAllAlwaysOneRow) {
  Table sales = testutil::SmallSales();
  Result<Table> g = AggregateAll(sales, {Sum(Col("sale"), "total"), Count("n")});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_rows(), 1);
  EXPECT_EQ(g->Get(0, 1).int64(), sales.num_rows());
}

TEST(HashJoinTest, InnerJoin) {
  TableBuilder left({{"k", DataType::kInt64}, {"lv", DataType::kString}});
  left.AppendRowOrDie({I(1), S("a")});
  left.AppendRowOrDie({I(2), S("b")});
  left.AppendRowOrDie({I(3), S("c")});
  TableBuilder right({{"k", DataType::kInt64}, {"rv", DataType::kString}});
  right.AppendRowOrDie({I(1), S("x")});
  right.AppendRowOrDie({I(1), S("y")});
  right.AppendRowOrDie({I(3), S("z")});
  Result<Table> j = HashJoin(std::move(left).Finish(), std::move(right).Finish(), {"k"},
                             {"k"}, JoinType::kInner);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 3);  // 1-x, 1-y, 3-z
  EXPECT_EQ(j->num_columns(), 3);  // k, lv, rv (key deduplicated)
}

TEST(HashJoinTest, LeftOuterPadsWithNull) {
  TableBuilder left({{"k", DataType::kInt64}});
  left.AppendRowOrDie({I(1)});
  left.AppendRowOrDie({I(2)});
  TableBuilder right({{"k", DataType::kInt64}, {"rv", DataType::kString}});
  right.AppendRowOrDie({I(1), S("x")});
  Result<Table> j = HashJoin(std::move(left).Finish(), std::move(right).Finish(), {"k"},
                             {"k"}, JoinType::kLeftOuter);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 2);
  EXPECT_TRUE(j->Get(1, 1).is_null());
}

TEST(HashJoinTest, DuplicateRightNamesSuffixed) {
  TableBuilder left({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  left.AppendRowOrDie({I(1), I(10)});
  TableBuilder right({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  right.AppendRowOrDie({I(1), I(20)});
  Result<Table> j = HashJoin(std::move(left).Finish(), std::move(right).Finish(), {"k"},
                             {"k"});
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE(j->schema().FindField("v_r").has_value());
}

TEST(NestedLoopJoinTest, ThetaJoin) {
  TableBuilder left({{"x", DataType::kInt64}});
  left.AppendRowOrDie({I(1)});
  left.AppendRowOrDie({I(5)});
  TableBuilder right({{"y", DataType::kInt64}});
  right.AppendRowOrDie({I(3)});
  right.AppendRowOrDie({I(7)});
  // left.x < right.y (left via kBase, right via kDetail).
  Result<Table> j = NestedLoopJoin(std::move(left).Finish(), std::move(right).Finish(),
                                   Lt(BCol("x"), RCol("y")));
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 3);  // (1,3), (1,7), (5,7)
}

TEST(NestedLoopJoinTest, LeftOuter) {
  TableBuilder left({{"x", DataType::kInt64}});
  left.AppendRowOrDie({I(10)});
  TableBuilder right({{"y", DataType::kInt64}});
  right.AppendRowOrDie({I(3)});
  Result<Table> j = NestedLoopJoin(std::move(left).Finish(), std::move(right).Finish(),
                                   Lt(BCol("x"), RCol("y")), JoinType::kLeftOuter);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 1);
  EXPECT_TRUE(j->Get(0, 1).is_null());
}

TEST(CrossProductTest, Sizes) {
  TableBuilder a({{"x", DataType::kInt64}});
  a.AppendRowOrDie({I(1)});
  a.AppendRowOrDie({I(2)});
  TableBuilder b({{"y", DataType::kInt64}});
  b.AppendRowOrDie({I(3)});
  b.AppendRowOrDie({I(4)});
  b.AppendRowOrDie({I(5)});
  Result<Table> cp = CrossProduct(std::move(a).Finish(), std::move(b).Finish());
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp->num_rows(), 6);
}

}  // namespace
}  // namespace mdjoin
