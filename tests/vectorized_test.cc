/// Property tests for the block-at-a-time scan: for every θ shape the kernel
/// grammar distinguishes (typed compares, string equality, IN lists, flipped
/// literals, residuals, computed keys) and every option the evaluator exposes
/// (index on/off, pushdown on/off, multi-pass staging, guard budgets, odd
/// guard strides that cut partial blocks), the MD-join must produce exactly
/// the Definition 3.1 reference's table (MdJoinReference, per component for
/// a generalized MD-join). The aggregate list deliberately mixes flat-kernel
/// builtins (count, sum, min, max, avg) with heap-fallback functions
/// (count_distinct, var_pop) and a computed argument, so both state
/// representations run side by side.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/generalized.h"
#include "core/mdjoin.h"
#include "core/reference.h"
#include "cube/base_tables.h"
#include "expr/conjuncts.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using testutil::F;
using testutil::I;
using testutil::NUL;
using testutil::S;

/// RandomSales plus NULL-bearing rows: NULL sale (aggregate inputs), NULL
/// month (equi key that matches nothing), NULL state (string kernels).
Table SalesWithNulls(uint64_t seed, int64_t rows) {
  Table t = testutil::RandomSales(seed, rows);
  TableBuilder b(testutil::SalesSchema());
  for (int64_t r = 0; r < t.num_rows(); ++r) b.AppendRowOrDie(t.GetRow(r));
  b.AppendRowOrDie({I(1), I(10), I(1), I(1), I(1997), S("NY"), NUL()});
  b.AppendRowOrDie({I(2), I(20), I(2), NUL(), I(1997), S("CA"), F(75)});
  b.AppendRowOrDie({I(3), I(10), I(3), I(2), I(1999), NUL(), F(33)});
  b.AppendRowOrDie({NUL(), I(20), I(4), I(3), I(1999), S("NJ"), F(12)});
  return std::move(b).Finish();
}

/// Flat kernels (count/sum/min/max/avg), heap fallbacks (count_distinct,
/// var_pop), string extremum, int sum, and a computed argument.
std::vector<AggSpec> MixedAggs() {
  std::vector<AggSpec> aggs = {Count("n"),
                               Count(RCol("sale"), "n_sale"),
                               Sum(RCol("sale"), "total"),
                               Sum(RCol("cust"), "cust_sum"),
                               Min(RCol("sale"), "lo"),
                               Max(RCol("sale"), "hi"),
                               Max(RCol("state"), "last_state"),
                               Avg(RCol("sale"), "mean"),
                               CountDistinct(RCol("prod"), "n_prod")};
  aggs.push_back(AggSpec{"var_pop", RCol("sale"), "var"});
  aggs.push_back(Sum(Mul(RCol("sale"), Lit(2.0)), "twice"));
  return aggs;
}

/// θ shapes chosen so each predicate-kernel case (and the per-row fallback)
/// gets exercised, on top of the always-present equi conjunct.
std::vector<ExprPtr> ThetaVariants() {
  std::vector<ExprPtr> thetas;
  // Pure equi (single bucket index).
  thetas.push_back(Eq(RCol("cust"), BCol("cust")));
  // Typed compare kernels: float >, int <= with the literal on the left.
  thetas.push_back(And(Eq(RCol("cust"), BCol("cust")), Gt(RCol("sale"), Lit(100.0)),
                       Le(Lit(2), RCol("month"))));
  // String equality kernel + IN-list kernel.
  thetas.push_back(And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("state"), Lit("NY"))));
  thetas.push_back(And(Eq(RCol("cust"), BCol("cust")),
                       In(RCol("prod"), {Value::Int64(10), Value::Int64(30)})));
  // Detail-only conjunct with no columnar kernel (generic fallback in-block).
  thetas.push_back(
      And(Eq(RCol("cust"), BCol("cust")), Gt(Mul(RCol("sale"), Lit(2)), Lit(150))));
  // Base-only + residual conjuncts, computed equi key.
  thetas.push_back(And(Eq(RCol("cust"), BCol("cust")), Le(BCol("cust"), Lit(4)),
                       Gt(RCol("sale"), Mul(BCol("cust"), Lit(20)))));
  thetas.push_back(And(Eq(RCol("cust"), BCol("cust")),
                       Eq(RCol("month"), Sub(BCol("month"), Lit(1)))));
  // Two equi conjuncts (month key has NULLs on both sides).
  thetas.push_back(
      And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("month"), BCol("month"))));
  return thetas;
}

/// Runs the MD-join and asserts the reference's table plus the work
/// counters every route shares.
void ExpectMatchesReference(const Table& base, const Table& detail,
                            const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                            const MdJoinOptions& options) {
  Result<Table> want = MdJoinReference(base, detail, aggs, theta);
  MdJoinStats stats;
  Result<Table> got = MdJoin(base, detail, aggs, theta, options, &stats);
  ASSERT_TRUE(want.ok()) << want.status().ToString() << " θ=" << theta->ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString() << " θ=" << theta->ToString();
  EXPECT_TRUE(TablesEqualOrdered(*want, *got)) << "θ=" << theta->ToString();
  EXPECT_EQ(stats.detail_rows_scanned, stats.passes_over_detail * detail.num_rows());
  EXPECT_LE(stats.detail_rows_qualified, stats.detail_rows_scanned);
  EXPECT_LE(stats.matched_pairs, stats.candidate_pairs);
  EXPECT_EQ(stats.agg_updates, stats.matched_pairs * static_cast<int64_t>(aggs.size()));
  EXPECT_GT(stats.blocks, 0);
}

class VectorizedAB : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    sales_ = SalesWithNulls(GetParam(), 200);
    base_ = *GroupByBase(sales_, {"cust", "month"});
  }

  Table sales_;
  Table base_;
};

TEST_P(VectorizedAB, OptionsMatrix) {
  for (const ExprPtr& theta : ThetaVariants()) {
    for (bool use_index : {true, false}) {
      for (bool pushdown : {true, false}) {
        for (int64_t rows_per_pass : {int64_t{0}, int64_t{3}}) {
          MdJoinOptions options;
          options.use_index = use_index;
          options.push_detail_selection = pushdown;
          options.base_rows_per_pass = rows_per_pass;
          ExpectMatchesReference(base_, sales_, MixedAggs(), theta, options);
        }
      }
    }
  }
}

TEST_P(VectorizedAB, OddGuardStridesCoverPartialBlocks) {
  // A guard's check stride clamps the scan block, so odd strides cut the
  // detail relation into partial blocks at every morsel boundary.
  ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")), Gt(RCol("sale"), Lit(50.0)));
  for (int64_t stride : {1, 7, 64}) {
    QueryGuardOptions guard_options;
    guard_options.check_stride = stride;
    QueryGuard guard(guard_options);
    MdJoinOptions options;
    options.guard = &guard;
    ExpectMatchesReference(base_, sales_, MixedAggs(), theta, options);
  }
}

TEST_P(VectorizedAB, CubeBaseWithAllMarkers) {
  // Cube base: ALL markers in key positions, multiple index mask buckets.
  Table cube = *CubeByBase(sales_, {"prod", "month"});
  ExprPtr theta = And(Eq(RCol("prod"), BCol("prod")), Eq(RCol("month"), BCol("month")),
                      Gt(RCol("sale"), Lit(30.0)));
  for (bool use_index : {true, false}) {
    MdJoinOptions options;
    options.use_index = use_index;
    ExpectMatchesReference(cube, sales_, MixedAggs(), theta, options);
  }
}

TEST_P(VectorizedAB, EmptyRngGroupsKeepIdentityValues) {
  // A base built from different data: many groups have empty RNG(b, R, θ)
  // and must finalize to the aggregate identities.
  Table other = SalesWithNulls(GetParam() + 7777, 40);
  Table disjoint_base = *GroupByBase(other, {"cust", "month"});
  ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")),
                      Eq(RCol("month"), BCol("month")), Eq(RCol("state"), Lit("IL")));
  ExpectMatchesReference(disjoint_base, sales_, MixedAggs(), theta, MdJoinOptions{});
}

TEST_P(VectorizedAB, GuardBudgetDegradesToTheSameResult) {
  // A soft memory budget forces multi-pass degradation; the degraded run is
  // result-identical to the reference.
  ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")), Gt(RCol("sale"), Lit(20.0)));
  QueryGuardOptions gopt;
  gopt.memory_budget_bytes =
      MixedAggs().size() * base_.num_rows() * kGuardBytesPerAggState +
      3 * kGuardBytesPerIndexedBaseRow;
  QueryGuard guard(gopt);
  MdJoinOptions options;
  options.guard = &guard;

  MdJoinStats stats;
  Result<Table> got = MdJoin(base_, sales_, MixedAggs(), theta, options, &stats);
  Result<Table> want = MdJoinReference(base_, sales_, MixedAggs(), theta);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_TRUE(TablesEqualOrdered(*want, *got));
  EXPECT_TRUE(stats.memory_degraded);
  EXPECT_EQ(stats.base_rows_per_pass_effective, 3);
  EXPECT_GT(stats.passes_over_detail, 1);
}

TEST_P(VectorizedAB, GeneralizedCubeComponentsKeepIndexesSeparate) {
  // Two components over a cube base (multi-bucket indexes) whose equi keys
  // coincide but whose base-only filters differ: the same probe key must
  // yield different candidate sets per component. Catches any state (e.g. a
  // probe memo) leaking across component indexes in the shared scan.
  Table cube = *CubeByBase(sales_, {"prod", "month"});
  std::vector<MdJoinComponent> components;
  components.push_back(
      {{Count("n_all"), Sum(RCol("sale"), "t_all")},
       And(Eq(RCol("prod"), BCol("prod")), Eq(RCol("month"), BCol("month")))});
  components.push_back(
      {{Count("n_h2"), Sum(RCol("sale"), "t_h2")},
       And(Eq(RCol("prod"), BCol("prod")), Eq(RCol("month"), BCol("month")),
           Gt(BCol("month"), Lit(2)))});

  Result<Table> got = GeneralizedMdJoin(cube, sales_, components);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(TablesEqualOrdered(
      testutil::ReferencePerComponent(cube, sales_, components), *got));
}

TEST_P(VectorizedAB, GeneralizedSharedScanAgrees) {
  std::vector<MdJoinComponent> components;
  components.push_back(
      {{Count("ny_n"), Sum(RCol("sale"), "ny_total")},
       And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("state"), Lit("NY")))});
  components.push_back(
      {{Sum(RCol("sale"), "big_total"), Min(RCol("sale"), "big_lo"),
        CountDistinct(RCol("prod"), "big_prods")},
       And(Eq(RCol("cust"), BCol("cust")), Gt(RCol("sale"), Lit(100.0)))});
  const Table want = testutil::ReferencePerComponent(base_, sales_, components);

  for (bool pushdown : {true, false}) {
    MdJoinOptions options;
    options.push_detail_selection = pushdown;
    MdJoinStats stats;
    Result<Table> got = GeneralizedMdJoin(base_, sales_, components, options, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(TablesEqualOrdered(want, *got));
    // One shared scan does each component's work: pairs and aggregate
    // updates add up component by component.
    int64_t pairs = 0, matched = 0, updates = 0, qualified_max = 0;
    for (const MdJoinComponent& comp : components) {
      MdJoinStats one;
      ASSERT_TRUE(MdJoin(base_, sales_, comp.aggs, comp.theta, options, &one).ok());
      pairs += one.candidate_pairs;
      matched += one.matched_pairs;
      updates += one.matched_pairs * static_cast<int64_t>(comp.aggs.size());
      qualified_max = std::max(qualified_max, one.detail_rows_qualified);
    }
    EXPECT_EQ(stats.detail_rows_scanned, sales_.num_rows());
    EXPECT_EQ(stats.candidate_pairs, pairs);
    EXPECT_EQ(stats.matched_pairs, matched);
    EXPECT_EQ(stats.agg_updates, updates);
    // A row qualifies once if any component's selection keeps it.
    EXPECT_GE(stats.detail_rows_qualified, qualified_max);
    EXPECT_LE(stats.detail_rows_qualified, sales_.num_rows());
    EXPECT_GT(stats.blocks, 0);
  }
}

TEST_P(VectorizedAB, ParallelVariantsAgree) {
  ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")), Gt(RCol("sale"), Lit(60.0)));
  Result<Table> want = MdJoinReference(base_, sales_, MixedAggs(), theta);
  ASSERT_TRUE(want.ok());
  MdJoinStats base_split_stats, detail_split_stats;
  Result<Table> base_split =
      ParallelMdJoin(base_, sales_, MixedAggs(), theta, /*num_partitions=*/3,
                     /*num_threads=*/2, {}, &base_split_stats);
  MdJoinOptions options;
  options.num_threads = 2;
  Result<Table> detail_split =
      MdJoin(base_, sales_, MixedAggs(), theta, options, &detail_split_stats);
  ASSERT_TRUE(base_split.ok()) << base_split.status().ToString();
  ASSERT_TRUE(detail_split.ok()) << detail_split.status().ToString();
  EXPECT_TRUE(TablesEqualOrdered(*want, *base_split));
  EXPECT_TRUE(TablesEqualOrdered(*want, *detail_split));
  EXPECT_GT(base_split_stats.blocks, 0);
  EXPECT_GT(detail_split_stats.blocks, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizedAB, ::testing::Values(1, 2, 3, 4, 5),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mdjoin
