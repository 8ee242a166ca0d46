#include <gtest/gtest.h>

#include <filesystem>

#include "analyze/binder.h"
#include "analyze/lexer.h"
#include "analyze/parser.h"
#include "core/mdjoin.h"
#include "cube/base_tables.h"
#include "optimizer/executor.h"
#include "optimizer/rules.h"
#include "ra/filter.h"
#include "ra/group_by.h"
#include "ra/project.h"
#include "storage/block_format.h"
#include "storage/out_of_core.h"
#include "storage/paged_table.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using analyze::BindQueryString;
using analyze::ParseQuery;
using analyze::Query;

TEST(LexerTest, TokenKinds) {
  Result<std::vector<Token>> toks =
      Tokenize("SELECT prod, sum(sale) 3 2.5 'N''Y' <> <= ;");
  ASSERT_TRUE(toks.ok()) << toks.status().ToString();
  EXPECT_TRUE((*toks)[0].IsKeyword("select"));
  EXPECT_EQ((*toks)[1].kind, TokenKind::kIdent);
  EXPECT_EQ((*toks)[1].text, "prod");
  EXPECT_TRUE((*toks)[2].IsSymbol(","));
  EXPECT_EQ((*toks)[3].text, "sum");  // not reserved
  EXPECT_TRUE((*toks)[4].IsSymbol("("));
  Token int_tok = (*toks)[7];
  EXPECT_EQ(int_tok.kind, TokenKind::kIntLiteral);
  EXPECT_EQ(int_tok.int_value, 3);
  Token float_tok = (*toks)[8];
  EXPECT_EQ(float_tok.kind, TokenKind::kFloatLiteral);
  EXPECT_DOUBLE_EQ(float_tok.float_value, 2.5);
  Token str_tok = (*toks)[9];
  EXPECT_EQ(str_tok.kind, TokenKind::kStringLiteral);
  EXPECT_EQ(str_tok.text, "N'Y");  // '' unescapes
  EXPECT_TRUE((*toks)[10].IsSymbol("<>"));
  EXPECT_TRUE((*toks)[11].IsSymbol("<="));
  EXPECT_EQ((*toks).back().kind, TokenKind::kEnd);
}

TEST(LexerTest, Errors) {
  EXPECT_TRUE(Tokenize("'unterminated").status().IsParseError());
  EXPECT_TRUE(Tokenize("a ? b").status().IsParseError());
}

TEST(ParserTest, Example51CubeQuery) {
  // The paper's Example 5.1.
  Result<Query> q = ParseQuery(
      "select prod, month, state, sum(sale) from Sales "
      "analyze by cube(prod, month, state)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select.size(), 4u);
  EXPECT_EQ(q->from_table, "Sales");
  EXPECT_EQ(q->base.kind, analyze::BaseGenKind::kCube);
  EXPECT_EQ(q->base.attrs, (std::vector<std::string>{"prod", "month", "state"}));
  EXPECT_TRUE(q->bindings.empty());
}

TEST(ParserTest, Example51UnpivotAndTable) {
  Result<Query> unpivot = ParseQuery(
      "select prod, month, sum(sale) from Sales analyze by unpivot(prod, month)");
  ASSERT_TRUE(unpivot.ok());
  EXPECT_EQ(unpivot->base.kind, analyze::BaseGenKind::kUnpivot);

  // Example 2.4: table-driven base values.
  Result<Query> table = ParseQuery(
      "select prod, month, state, sum(sale) from Sales "
      "analyze by T(prod, month, state)");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->base.kind, analyze::BaseGenKind::kTable);
  EXPECT_EQ(table->base.table_name, "T");
}

TEST(ParserTest, GroupingSetsAndRollup) {
  Result<Query> gs = ParseQuery(
      "select prod, sum(sale) from Sales "
      "analyze by grouping_sets((prod), (month), ())");
  ASSERT_TRUE(gs.ok()) << gs.status().ToString();
  EXPECT_EQ(gs->base.kind, analyze::BaseGenKind::kGroupingSets);
  EXPECT_EQ(gs->base.sets.size(), 3u);
  EXPECT_TRUE(gs->base.sets[2].empty());

  Result<Query> ru = ParseQuery(
      "select prod, month, sum(sale) from Sales analyze by rollup(prod, month)");
  ASSERT_TRUE(ru.ok());
  EXPECT_EQ(ru->base.kind, analyze::BaseGenKind::kRollup);
}

TEST(ParserTest, SuchThatBindings) {
  Result<Query> q = ParseQuery(
      "select cust, avg(X.sale) as avg_ny from Sales "
      "analyze by group(cust) "
      "such that X: X.cust = cust and X.state = 'NY', "
      "          Y: Y.cust = cust and Y.sale > avg(X.sale)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->bindings.size(), 2u);
  EXPECT_EQ(q->bindings[0].var, "X");
  EXPECT_EQ(q->bindings[1].var, "Y");
  EXPECT_EQ(q->select[1].alias.value(), "avg_ny");
}

TEST(ParserTest, WhereInBetween) {
  Result<Query> q = ParseQuery(
      "select prod, count(*) from Sales "
      "where year between 1994 and 1996 and state in ('NY','NJ') and sale is not null "
      "analyze by group(prod)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_NE(q->where, nullptr);
}

TEST(ParserTest, Errors) {
  EXPECT_TRUE(ParseQuery("select from Sales analyze by group(a)").status().IsParseError());
  EXPECT_TRUE(ParseQuery("select a from Sales").status().IsParseError());  // no analyze
  EXPECT_TRUE(
      ParseQuery("select a from Sales analyze by bogus").status().IsParseError());
  EXPECT_TRUE(ParseQuery("select a from Sales analyze by group(a) trailing")
                  .status()
                  .IsParseError());
}

/// Binder fixture with Sales registered.
class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sales_ = testutil::SmallSales();
    ASSERT_TRUE(catalog_.Register("Sales", &sales_).ok());
  }

  Result<Table> Run(const std::string& sql) {
    Result<analyze::BoundQuery> bound = BindQueryString(sql, catalog_);
    if (!bound.ok()) return bound.status();
    return ExecutePlan(bound->plan, catalog_);
  }

  Table sales_;
  Catalog catalog_;
};

TEST_F(BinderTest, GroupQueryEqualsGroupBy) {
  Result<Table> got = Run(
      "select cust, sum(sale) as total, count(*) as n "
      "from Sales analyze by group(cust)");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Result<Table> want = GroupBy(sales_, {"cust"},
                               {Sum(Col("sale"), "total"), Count("n")});
  EXPECT_TRUE(TablesEqualUnordered(*got, *want));
}

TEST_F(BinderTest, CubeQueryEqualsMdJoinCube) {
  Result<Table> got = Run(
      "select prod, month, sum(sale) as total from Sales "
      "analyze by cube(prod, month)");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Result<Table> base = CubeByBase(sales_, {"prod", "month"});
  Result<Table> want = MdJoin(
      *base, sales_, {Sum(RCol("sale"), "total")},
      And(Eq(BCol("prod"), RCol("prod")), Eq(BCol("month"), RCol("month"))));
  EXPECT_TRUE(TablesEqualUnordered(*got, *want));
}

TEST_F(BinderTest, WhereFiltersDetailAndBase) {
  Result<Table> got = Run(
      "select cust, count(*) as n from Sales where year = 1999 "
      "analyze by group(cust)");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // Only customers with 1999 sales appear, with 1999-only counts.
  Result<Table> f = Filter(sales_, Eq(Col("year"), Lit(1999)));
  Result<Table> want = GroupBy(*f, {"cust"}, {Count("n")});
  EXPECT_TRUE(TablesEqualUnordered(*got, *want));
}

TEST_F(BinderTest, TriStatePivotExample22) {
  // Example 2.2 in the §5 language: per-customer averages in three states.
  Result<Table> got = Run(
      "select cust, avg(X.sale) as avg_ny, avg(Y.sale) as avg_nj, "
      "avg(Z.sale) as avg_ct from Sales analyze by group(cust) "
      "such that X: X.cust = cust and X.state = 'NY', "
      "          Y: Y.cust = cust and Y.state = 'NJ', "
      "          Z: Z.cust = cust and Z.state = 'CT'");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->num_rows(), 4);  // every customer, outer semantics
  // Build the same thing directly.
  Result<Table> base = GroupByBase(sales_, {"cust"});
  auto theta = [](const char* st) {
    return And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("state"), Lit(st)));
  };
  Result<Table> step = MdJoin(*base, sales_, {Avg(RCol("sale"), "avg_ny")}, theta("NY"));
  step = MdJoin(*step, sales_, {Avg(RCol("sale"), "avg_nj")}, theta("NJ"));
  step = MdJoin(*step, sales_, {Avg(RCol("sale"), "avg_ct")}, theta("CT"));
  ASSERT_TRUE(step.ok());
  EXPECT_TRUE(TablesEqualUnordered(*got, *step));
}

TEST_F(BinderTest, DependentAggregateExample25Shape) {
  // count sales above the per-customer average: Y depends on avg(X.sale).
  Result<Table> got = Run(
      "select cust, count(Y.sale) as above from Sales analyze by group(cust) "
      "such that X: X.cust = cust, "
      "          Y: Y.cust = cust and Y.sale > avg(X.sale)");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Result<Table> base = GroupByBase(sales_, {"cust"});
  Result<Table> with_avg =
      MdJoin(*base, sales_, {Avg(RCol("sale"), "avg_sale")}, Eq(RCol("cust"), BCol("cust")));
  Result<Table> want =
      MdJoin(*with_avg, sales_, {Count(RCol("sale"), "above")},
             And(Eq(RCol("cust"), BCol("cust")), Gt(RCol("sale"), BCol("avg_sale"))));
  ASSERT_TRUE(want.ok());
  Result<Table> want_proj = ProjectColumns(*want, {"cust", "above"});
  EXPECT_TRUE(TablesEqualUnordered(*got, *want_proj));
}

TEST_F(BinderTest, TableDrivenBaseValuesExample24) {
  // A user-provided base table restricts which points get aggregated.
  TableBuilder points({{"prod", DataType::kInt64}, {"month", DataType::kInt64}});
  points.AppendRowOrDie({testutil::I(10), testutil::I(1)});
  points.AppendRowOrDie({testutil::I(20), testutil::ALL()});
  points.AppendRowOrDie({testutil::I(99), testutil::I(9)});  // no matching sales
  Table t = std::move(points).Finish();
  ASSERT_TRUE(catalog_.Register("T", &t).ok());
  Result<Table> got = Run(
      "select prod, month, sum(sale) as total from Sales "
      "analyze by T(prod, month)");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->num_rows(), 3);
  // Row (20, ALL) aggregates all product-20 sales (ALL wildcard).
  double prod20 = 0;
  for (int64_t r = 0; r < sales_.num_rows(); ++r) {
    if (sales_.Get(r, 1).int64() == 20) prod20 += sales_.Get(r, 6).AsDouble();
  }
  EXPECT_DOUBLE_EQ(got->Get(1, 2).AsDouble(), prod20);
  // The unmatched point stays with NULL sum (outer semantics).
  EXPECT_TRUE(got->Get(2, 2).is_null());
}

TEST_F(BinderTest, UnpivotQuery) {
  Result<Table> got = Run(
      "select prod, month, count(*) as n from Sales analyze by unpivot(prod, month)");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Result<Table> base = UnpivotBase(sales_, {"prod", "month"});
  EXPECT_EQ(got->num_rows(), base->num_rows());
}

TEST_F(BinderTest, FusionAppliesToBoundPlan) {
  Result<analyze::BoundQuery> bound = BindQueryString(
      "select cust, avg(X.sale) as a, avg(Y.sale) as b from Sales "
      "analyze by group(cust) "
      "such that X: X.cust = cust and X.state = 'NY', "
      "          Y: Y.cust = cust and Y.state = 'NJ'",
      catalog_);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  // The chain under the final Project fuses into one generalized MD-join.
  ASSERT_EQ(bound->plan->kind(), PlanKind::kProject);
  Result<PlanPtr> fused = FuseMdJoinSeries(bound->plan->child(0));
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_EQ((*fused)->kind(), PlanKind::kMdJoin);
  EXPECT_EQ((*fused)->components.size(), 2u);
  Result<Table> a = ExecutePlan(bound->plan->child(0), catalog_);
  Result<Table> b = ExecutePlan(*fused, catalog_);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(TablesEqualUnordered(*a, *b));
}

TEST_F(BinderTest, CasePivotIdiomMatchesGroupingVariable) {
  // The SQL-textbook pivot: sum(case when state='NY' then sale end) —
  // one scan, same answer as the grouping-variable formulation. (This is
  // the strongest per-scan baseline SQL can field against the MD-join.)
  Result<Table> case_based = Run(
      "select cust, sum(case when state = 'NY' then sale end) as ny_total "
      "from Sales analyze by group(cust) order by cust");
  Result<Table> var_based = Run(
      "select cust, sum(X.sale) as ny_total from Sales analyze by group(cust) "
      "such that X: X.cust = cust and X.state = 'NY' order by cust");
  ASSERT_TRUE(case_based.ok()) << case_based.status().ToString();
  ASSERT_TRUE(var_based.ok()) << var_based.status().ToString();
  EXPECT_TRUE(TablesEqualOrdered(*case_based, *var_based));
}

TEST_F(BinderTest, CaseInWhereAndConditions) {
  Result<Table> got = Run(
      "select cust, count(*) as n from Sales "
      "where case when state = 'NY' then 1 else 0 end = 1 "
      "analyze by group(cust)");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Result<Table> ny = Filter(sales_, Eq(Col("state"), Lit("NY")));
  Result<Table> want = GroupBy(*ny, {"cust"}, {Count("n")});
  EXPECT_TRUE(TablesEqualUnordered(*got, *want));
}

TEST_F(BinderTest, EmfSqlDialectParses) {
  // The paper's §5 EMF-SQL listing, verbatim shape.
  Result<analyze::Query> q = analyze::ParseEmfQuery(
      "select prod, month, count(Z.*) from Sales where year = 1997 "
      "group by prod, month ; X, Y, Z "
      "such that X.prod = prod and X.month = month - 1, "
      "          Y.prod = prod and Y.month = month + 1, "
      "          Z.prod = prod and Z.month = month and "
      "          Z.sale > avg(X.sale) and Z.sale < avg(Y.sale)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->base.kind, analyze::BaseGenKind::kGroup);
  EXPECT_EQ(q->base.attrs, (std::vector<std::string>{"prod", "month"}));
  ASSERT_EQ(q->bindings.size(), 3u);
  EXPECT_EQ(q->bindings[0].var, "X");
  EXPECT_EQ(q->bindings[2].var, "Z");
  // count(Z.*): qualified star.
  ASSERT_EQ(q->select.size(), 3u);
  EXPECT_TRUE(q->select[2].expr->agg_star);
  EXPECT_EQ(q->select[2].expr->star_qualifier, "Z");
}

TEST_F(BinderTest, EmfSqlMatchesAnalyzeByDialect) {
  // Both dialects must produce identical results for Example 2.5.
  const char* emf =
      "select prod, month, count(Z.*) as between_count from Sales "
      "where year = 1997 group by prod, month ; X, Y, Z "
      "such that X.prod = prod and X.month = month - 1, "
      "          Y.prod = prod and Y.month = month + 1, "
      "          Z.prod = prod and Z.month = month and "
      "          Z.sale > avg(X.sale) and Z.sale < avg(Y.sale) "
      "order by prod, month";
  const char* analyze_by =
      "select prod, month, count(Z.sale) as between_count from Sales "
      "where year = 1997 analyze by group(prod, month) "
      "such that X: X.prod = prod and X.month = month - 1, "
      "          Y: Y.prod = prod and Y.month = month + 1, "
      "          Z: Z.prod = prod and Z.month = month and "
      "          Z.sale > avg(X.sale) and Z.sale < avg(Y.sale) "
      "order by prod, month";
  Result<analyze::BoundQuery> b1 = analyze::BindEmfQueryString(emf, catalog_);
  Result<analyze::BoundQuery> b2 = BindQueryString(analyze_by, catalog_);
  ASSERT_TRUE(b1.ok()) << b1.status().ToString();
  ASSERT_TRUE(b2.ok()) << b2.status().ToString();
  Result<Table> r1 = ExecutePlan(b1->plan, catalog_);
  Result<Table> r2 = ExecutePlan(b2->plan, catalog_);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(TablesEqualOrdered(*r1, *r2));
}

TEST_F(BinderTest, EmfSqlVariableConditionCountMismatch) {
  // Two variables declared, one condition: parse error.
  EXPECT_FALSE(analyze::ParseEmfQuery(
                   "select cust, count(X.*) from Sales group by cust ; X, Y "
                   "such that X.cust = cust")
                   .ok());
}

TEST_F(BinderTest, QualifiedStarInAnalyzeByDialect) {
  Result<Table> got = Run(
      "select cust, count(X.*) as ny_rows from Sales analyze by group(cust) "
      "such that X: X.cust = cust and X.state = 'NY'");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Result<Table> ny = Filter(sales_, Eq(Col("state"), Lit("NY")));
  Result<Table> counts = GroupBy(*ny, {"cust"}, {Count("n")});
  // Customers with NY sales must agree; others are 0.
  for (int64_t r = 0; r < got->num_rows(); ++r) {
    int64_t expected = 0;
    for (int64_t g = 0; g < counts->num_rows(); ++g) {
      if (counts->Get(g, 0).Equals(got->Get(r, 0))) expected = counts->Get(g, 1).int64();
    }
    EXPECT_EQ(got->Get(r, 1).int64(), expected);
  }
}

TEST_F(BinderTest, BindErrors) {
  // Unknown table.
  EXPECT_FALSE(Run("select a from Nope analyze by group(a)").ok());
  // Unknown attribute.
  EXPECT_FALSE(Run("select bogus from Sales analyze by group(bogus)").ok());
  // SELECT column not among analyze attributes.
  EXPECT_FALSE(Run("select month from Sales analyze by group(cust)").ok());
  // Unknown grouping variable in an aggregate.
  EXPECT_FALSE(
      Run("select cust, avg(Q.sale) from Sales analyze by group(cust)").ok());
  // Forward reference between variables.
  EXPECT_FALSE(Run(
      "select cust, count(Y.sale) as n from Sales analyze by group(cust) "
      "such that Y: Y.cust = cust and Y.sale > avg(X.sale), "
      "          X: X.cust = cust").ok());
  // Cross-variable tuple reference.
  EXPECT_FALSE(Run(
      "select cust, count(Y.sale) as n from Sales analyze by group(cust) "
      "such that X: X.cust = cust, Y: Y.sale > X.sale").ok());
  // Duplicate variable.
  EXPECT_FALSE(Run(
      "select cust, count(X.sale) as n from Sales analyze by group(cust) "
      "such that X: X.cust = cust, X: X.cust = cust").ok());
}

/// rollup, unpivot and grouping_sets name each attribute by one bit of a
/// 32-bit cuboid mask: 32 attributes bind and run on memory and on paged
/// storage under plan verification, with one row of counts per cuboid
/// summing to |R| (and the same result on both storages); 33 are a bind
/// error that names the limit.
TEST(BinderWidthTest, CuboidGeneratorsTakeAtMost32Attributes) {
  constexpr int kRows = 6;
  std::vector<Field> fields;
  fields.reserve(34);
  for (int i = 0; i < 33; ++i) fields.push_back({"a" + std::to_string(i), DataType::kInt64});
  fields.push_back({"v", DataType::kFloat64});
  TableBuilder b{Schema(fields)};
  for (int r = 0; r < kRows; ++r) {
    std::vector<Value> row;
    row.reserve(34);
    for (int i = 0; i < 33; ++i) row.push_back(Value::Int64((r >> (i % 3)) & 1));
    row.push_back(Value::Float64(r + 0.5));
    b.AppendRowOrDie(std::move(row));
  }
  const Table r = std::move(b).Finish();
  const std::string path = (std::filesystem::temp_directory_path() /
                            "mdjoin_binder_width.mdjb")
                               .string();
  ASSERT_TRUE(WriteBlockFile(r, path, {}).ok());
  Result<std::unique_ptr<PagedTable>> paged = PagedTable::Open(path);
  ASSERT_TRUE(paged.ok());
  Catalog memory, blocks;
  ASSERT_TRUE(memory.Register("R", &r).ok());
  ASSERT_TRUE(RegisterPagedTable(&blocks, "R", **paged).ok());

  auto list = [](int from, int to) {
    std::string out;
    for (int i = from; i < to; ++i) out += (i > from ? ", a" : "a") + std::to_string(i);
    return out;
  };
  struct Case {
    std::string generator;  // over a0..a(n-1)
    int64_t cuboids;        // at n = 32
    int64_t grand_totals;   // rows with every attribute ALL
  };
  const std::vector<Case> cases = {
      {"rollup(%)", 33, 1},
      {"unpivot(%)", 32, 0},
      {"grouping_sets((" + list(0, 16) + "), (" + list(16, 32) + "), ())", 3, 1},
  };
  MdJoinOptions options;
  options.verify_plans = true;
  for (const Case& c : cases) {
    for (const int n : {32, 33}) {
      std::string generator = c.generator;
      if (const size_t at = generator.find('%'); at != std::string::npos) {
        generator.replace(at, 1, list(0, n));
      } else if (n == 33) {
        generator.insert(generator.size() - 1, ", (a32)");
      }
      const std::string text = "select " + list(0, n) +
                               ", count(*) as n, sum(v) as s from R analyze by " + generator;
      SCOPED_TRACE(text.substr(text.find("analyze by")));
      Result<analyze::BoundQuery> bound = BindQueryString(text, memory);
      if (n == 33) {
        ASSERT_FALSE(bound.ok());
        EXPECT_NE(bound.status().message().find("at most 32 attributes"), std::string::npos)
            << bound.status().ToString();
        continue;
      }
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      Result<Table> got = ExecutePlan(bound->plan, memory, options);
      Result<Table> from_blocks = ExecutePlan(bound->plan, blocks, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(from_blocks.ok()) << from_blocks.status().ToString();
      EXPECT_TRUE(testutil::TablesBitIdentical(*got, *from_blocks));
      const int ncol = *got->schema().GetFieldIndex("n");
      int64_t counted = 0, grand_totals = 0;
      for (int64_t row = 0; row < got->num_rows(); ++row) {
        counted += got->Get(row, ncol).int64();
        bool all = true;
        for (int i = 0; i < n; ++i) all = all && got->Get(row, i).is_all();
        grand_totals += all ? 1 : 0;
      }
      EXPECT_EQ(counted, c.cuboids * kRows);
      EXPECT_EQ(grand_totals, c.grand_totals);
    }
  }
  // The table API's generators take 32 dimensions and refuse 33.
  std::vector<std::string> dims;
  dims.reserve(33);
  for (int i = 0; i < 33; ++i) dims.push_back("a" + std::to_string(i));
  EXPECT_FALSE(RollupBase(r, dims).ok());
  EXPECT_FALSE(UnpivotBase(r, dims).ok());
  dims.pop_back();
  Result<Table> rollup = RollupBase(r, dims);
  ASSERT_TRUE(rollup.ok()) << rollup.status().ToString();
  EXPECT_TRUE(UnpivotBase(r, dims).ok());
  paged->reset();
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mdjoin
