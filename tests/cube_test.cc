#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/random.h"
#include "core/mdjoin.h"
#include "core/reference.h"
#include "cube/base_tables.h"
#include "cube/lattice.h"
#include "cube/partitioned_cube.h"
#include "cube/pipesort.h"
#include "expr/conjuncts.h"
#include "ra/group_by.h"
#include "ra/project.h"
#include "table/key.h"
#include "table/table_ops.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using testutil::I;

ExprPtr DimsTheta(const std::vector<std::string>& dims) {
  std::vector<ExprPtr> eqs;
  for (const std::string& d : dims) eqs.push_back(Eq(BCol(d), RCol(d)));
  return CombineConjuncts(std::move(eqs));
}

TEST(LatticeTest, Structure) {
  Result<CubeLattice> lat = CubeLattice::Make({"prod", "month", "state"});
  ASSERT_TRUE(lat.ok());
  EXPECT_EQ(lat->num_dims(), 3);
  EXPECT_EQ(lat->full_cuboid(), 0b111u);
  EXPECT_EQ(lat->AllCuboids().size(), 8u);
  EXPECT_EQ(lat->CuboidsAtLevel(1).size(), 3u);
  EXPECT_EQ(lat->CuboidsAtLevel(2).size(), 3u);
  EXPECT_EQ(CubeLattice::Level(0b101), 2);
}

TEST(LatticeTest, ParentChild) {
  EXPECT_TRUE(CubeLattice::IsParent(0b111, 0b110));
  EXPECT_TRUE(CubeLattice::IsParent(0b110, 0b010));
  EXPECT_FALSE(CubeLattice::IsParent(0b111, 0b001));  // two levels apart
  EXPECT_FALSE(CubeLattice::IsParent(0b110, 0b001));  // not a subset
  Result<CubeLattice> lat = CubeLattice::Make({"a", "b", "c"});
  std::vector<CuboidMask> parents = lat->ParentsOf(0b001);
  EXPECT_EQ(parents.size(), 2u);
}

TEST(LatticeTest, NamesAndAttrs) {
  Result<CubeLattice> lat = CubeLattice::Make({"prod", "month", "state"});
  EXPECT_EQ(lat->CuboidName(0b101), "(prod, ALL, state)");
  EXPECT_EQ(lat->CuboidAttrs(0b101), (std::vector<std::string>{"prod", "state"}));
  EXPECT_EQ(lat->CuboidAttrs(0), std::vector<std::string>{});
}

TEST(LatticeTest, Validation) {
  EXPECT_FALSE(CubeLattice::Make({}).ok());
  EXPECT_FALSE(CubeLattice::Make({"a", "a"}).ok());
}

TEST(BaseTablesTest, GroupByBaseIsDistinct) {
  Table sales = testutil::SmallSales();
  Result<Table> base = GroupByBase(sales, {"cust"});
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->num_rows(), 4);
  EXPECT_EQ(base->num_columns(), 1);
}

TEST(BaseTablesTest, CubeByBaseHasAllCuboids) {
  Table sales = testutil::SmallSales();
  Result<Table> base = CubeByBase(sales, {"prod", "month"});
  ASSERT_TRUE(base.ok());
  // |cube| = |prod×month combos| + |prods| + |months| + 1.
  Result<Table> pm = DistinctOn(sales, {"prod", "month"});
  Result<Table> p = DistinctOn(sales, {"prod"});
  Result<Table> m = DistinctOn(sales, {"month"});
  EXPECT_EQ(base->num_rows(), pm->num_rows() + p->num_rows() + m->num_rows() + 1);
  // Exactly one (ALL, ALL) row.
  int all_all = 0;
  for (int64_t r = 0; r < base->num_rows(); ++r) {
    if (base->Get(r, 0).is_all() && base->Get(r, 1).is_all()) ++all_all;
  }
  EXPECT_EQ(all_all, 1);
}

TEST(BaseTablesTest, RollupBaseHasPrefixes) {
  Table sales = testutil::SmallSales();
  Result<Table> base = RollupBase(sales, {"prod", "month"});
  ASSERT_TRUE(base.ok());
  Result<Table> pm = DistinctOn(sales, {"prod", "month"});
  Result<Table> p = DistinctOn(sales, {"prod"});
  // (prod, month), (prod, ALL), (ALL, ALL) — but NOT (ALL, month).
  EXPECT_EQ(base->num_rows(), pm->num_rows() + p->num_rows() + 1);
  for (int64_t r = 0; r < base->num_rows(); ++r) {
    EXPECT_FALSE(base->Get(r, 0).is_all() && !base->Get(r, 1).is_all());
  }
}

TEST(BaseTablesTest, GroupingSetsSelectsCuboids) {
  Table sales = testutil::SmallSales();
  Result<Table> base =
      GroupingSetsBase(sales, {"prod", "month", "state"}, {{"prod"}, {"month"}, {"state"}});
  ASSERT_TRUE(base.ok());
  Result<Table> p = DistinctOn(sales, {"prod"});
  Result<Table> m = DistinctOn(sales, {"month"});
  Result<Table> s = DistinctOn(sales, {"state"});
  EXPECT_EQ(base->num_rows(), p->num_rows() + m->num_rows() + s->num_rows());
  // Unknown attribute rejected.
  EXPECT_FALSE(GroupingSetsBase(sales, {"prod"}, {{"month"}}).ok());
}

TEST(BaseTablesTest, UnpivotEqualsSingletonGroupingSets) {
  Table sales = testutil::SmallSales();
  Result<Table> unpivot = UnpivotBase(sales, {"prod", "month"});
  Result<Table> gs = GroupingSetsBase(sales, {"prod", "month"}, {{"prod"}, {"month"}});
  ASSERT_TRUE(unpivot.ok() && gs.ok());
  EXPECT_TRUE(TablesEqualUnordered(*unpivot, *gs));
}

TEST(BaseTablesTest, CuboidBaseSingleGranularity) {
  Table sales = testutil::SmallSales();
  Result<CubeLattice> lat = CubeLattice::Make({"prod", "month"});
  Result<Table> cuboid = CuboidBase(sales, *lat, 0b01);  // prod concrete, month ALL
  ASSERT_TRUE(cuboid.ok());
  EXPECT_EQ(cuboid->num_rows(), 2);  // prods 10, 20
  for (int64_t r = 0; r < cuboid->num_rows(); ++r) {
    EXPECT_FALSE(cuboid->Get(r, 0).is_all());
    EXPECT_TRUE(cuboid->Get(r, 1).is_all());
  }
}

TEST(BaseTablesTest, RowCuboidAndPartition) {
  Table sales = testutil::SmallSales();
  Result<CubeLattice> lat = CubeLattice::Make({"prod", "month"});
  Result<Table> base = CubeByBase(sales, {"prod", "month"});
  Result<std::vector<CuboidPartition>> parts = PartitionByCuboid(*base, *lat);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 4u);  // all four granularities occur
  int64_t total = 0;
  for (const CuboidPartition& p : *parts) {
    total += p.table.num_rows();
    for (int64_t r = 0; r < p.table.num_rows(); ++r) {
      EXPECT_EQ(*RowCuboid(p.table, *lat, r), p.mask);
    }
  }
  EXPECT_EQ(total, base->num_rows());
}

/// A small random relation over dims a (int64), b (float64), c (string) and
/// d (float64), plus a payload column. Tiny domains make duplicate keys the
/// rule; cells also take NULL, ALL, NaN, both zeros, and int64 values in the
/// float64 columns (equal to their float64 twins under Value::Equals).
Table RandomDimTable(uint64_t seed, int64_t rows) {
  Random rng(seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> floats = {testutil::F(0.0), testutil::F(-0.0), testutil::F(1.5),
                                     testutil::F(nan), testutil::F(2.0), I(2)};
  const std::vector<Value> strings = {testutil::S("x"), testutil::S("y"), testutil::S("")};
  auto cell = [&rng](const std::vector<Value>& domain) {
    switch (rng.Uniform(8)) {
      case 0:
        return Value::Null();
      case 1:
        return Value::All();
      default:
        return domain[rng.Uniform(domain.size())];
    }
  };
  TableBuilder b({{"a", DataType::kInt64},
                  {"b", DataType::kFloat64},
                  {"c", DataType::kString},
                  {"d", DataType::kFloat64},
                  {"v", DataType::kInt64}});
  for (int64_t r = 0; r < rows; ++r) {
    b.AppendRowOrDie({cell({I(1), I(2), I(3)}), cell(floats), cell(strings), cell(floats),
                      I(r)});
  }
  return std::move(b).Finish();
}

/// The generators' reference semantics: per cuboid, one scan of all of `t`
/// keeping the first row of each distinct RowKey over the grouped dims, ALL
/// in the rolled-up positions, cuboids in `masks` order.
Table OracleCuboids(const Table& t, const std::vector<std::string>& dims,
                    const std::vector<CuboidMask>& masks) {
  std::vector<Field> fields;
  for (const std::string& d : dims) fields.push_back(t.schema().field(*t.schema().FindField(d)));
  Table out{Schema(std::move(fields))};
  for (CuboidMask mask : masks) {
    std::vector<int> cols;
    std::vector<size_t> positions;
    for (size_t i = 0; i < dims.size(); ++i) {
      if (mask & (CuboidMask{1} << i)) {
        cols.push_back(*t.schema().FindField(dims[i]));
        positions.push_back(i);
      }
    }
    std::unordered_set<RowKey, RowKeyHash, RowKeyEqual> seen;
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      RowKey key = t.GetRowKey(r, cols);
      if (!seen.insert(key).second) continue;
      std::vector<Value> row(dims.size(), Value::All());
      for (size_t i = 0; i < positions.size(); ++i) row[positions[i]] = key[i];
      out.AppendRowUnchecked(std::move(row));
    }
  }
  return out;
}

CuboidMask MaskOf(const std::vector<std::string>& dims, const std::vector<std::string>& set) {
  CuboidMask mask = 0;
  for (const std::string& a : set) {
    mask |= CuboidMask{1} << (std::find(dims.begin(), dims.end(), a) - dims.begin());
  }
  return mask;
}

/// Every base generator keeps exactly the rows, and the row order, of a
/// per-cuboid RowKey-set dedup over R.
TEST(BaseTablesTest, GeneratorsMatchPerCuboidDedupRowForRow) {
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    Random rng(seed * 7919);
    Table t = RandomDimTable(seed, static_cast<int64_t>(rng.UniformInt(0, 80)));
    // 1 to 4 dims, in a random order.
    std::vector<std::string> dims = names;
    for (size_t i = dims.size(); i > 1; --i) std::swap(dims[i - 1], dims[rng.Uniform(i)]);
    dims.resize(static_cast<size_t>(rng.UniformInt(1, 4)));
    const int d = static_cast<int>(dims.size());
    Result<CubeLattice> lattice = CubeLattice::Make(dims);
    ASSERT_TRUE(lattice.ok());

    std::vector<CuboidMask> cube_masks;
    for (int level = d; level >= 0; --level) {
      for (CuboidMask m : lattice->CuboidsAtLevel(level)) cube_masks.push_back(m);
    }
    Result<Table> cube = CubeByBase(t, dims);
    ASSERT_TRUE(cube.ok());
    EXPECT_TRUE(testutil::TablesBitIdentical(OracleCuboids(t, dims, cube_masks), *cube));

    std::vector<CuboidMask> rollup_masks;
    for (int k = d; k >= 0; --k) rollup_masks.push_back((CuboidMask{1} << k) - 1);
    Result<Table> rollup = RollupBase(t, dims);
    ASSERT_TRUE(rollup.ok());
    EXPECT_TRUE(testutil::TablesBitIdentical(OracleCuboids(t, dims, rollup_masks), *rollup));

    // Random grouping sets: any subsets, repeats and the empty set included.
    std::vector<std::vector<std::string>> sets;
    std::vector<CuboidMask> set_masks;
    for (int s = static_cast<int>(rng.UniformInt(1, 4)); s > 0; --s) {
      std::vector<std::string> set;
      for (const std::string& dim : dims) {
        if (rng.Bernoulli(0.5)) set.push_back(dim);
      }
      std::reverse(set.begin(), set.end());  // set order must not matter
      set_masks.push_back(MaskOf(dims, set));
      sets.push_back(std::move(set));
    }
    Result<Table> grouping = GroupingSetsBase(t, dims, sets);
    ASSERT_TRUE(grouping.ok());
    EXPECT_TRUE(testutil::TablesBitIdentical(OracleCuboids(t, dims, set_masks), *grouping));

    std::vector<CuboidMask> unpivot_masks;
    for (int i = 0; i < d; ++i) unpivot_masks.push_back(CuboidMask{1} << i);
    Result<Table> unpivot = UnpivotBase(t, dims);
    ASSERT_TRUE(unpivot.ok());
    EXPECT_TRUE(testutil::TablesBitIdentical(OracleCuboids(t, dims, unpivot_masks), *unpivot));

    for (CuboidMask mask : cube_masks) {
      Result<Table> cuboid = CuboidBase(t, *lattice, mask);
      ASSERT_TRUE(cuboid.ok());
      EXPECT_TRUE(testutil::TablesBitIdentical(OracleCuboids(t, dims, {mask}), *cuboid))
          << "mask=" << mask;
    }

    // Distinct over every column, and DistinctOn over the dims in their order.
    Table want_distinct(t.schema());
    std::unordered_set<RowKey, RowKeyHash, RowKeyEqual> seen;
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      if (seen.insert(t.GetRow(r)).second) want_distinct.AppendRowFrom(t, r);
    }
    EXPECT_TRUE(testutil::TablesBitIdentical(want_distinct, Distinct(t)));
    Result<Table> on = DistinctOn(t, dims);
    ASSERT_TRUE(on.ok());
    EXPECT_TRUE(testutil::TablesBitIdentical(
        OracleCuboids(t, dims, {lattice->full_cuboid()}), *on));
  }
}

TEST(CubeMdJoinTest, Example21CubeViaMdJoin) {
  // Example 2.1: the full CUBE BY computed as one MD-join, validated against
  // per-cuboid GROUP BYs.
  Table sales = testutil::SmallSales();
  std::vector<std::string> dims = {"prod", "month"};
  Result<Table> base = CubeByBase(sales, dims);
  Result<Table> cube = MdJoin(*base, sales, {Sum(RCol("sale"), "total")}, DimsTheta(dims));
  ASSERT_TRUE(cube.ok());

  // Validate the (prod, ALL) cuboid against GROUP BY prod.
  Result<Table> by_prod = GroupBy(sales, {"prod"}, {Sum(Col("sale"), "total")});
  for (int64_t r = 0; r < cube->num_rows(); ++r) {
    if (!cube->Get(r, 0).is_all() && cube->Get(r, 1).is_all()) {
      bool matched = false;
      for (int64_t g = 0; g < by_prod->num_rows(); ++g) {
        if (by_prod->Get(g, 0).Equals(cube->Get(r, 0))) {
          matched = true;
          EXPECT_DOUBLE_EQ(cube->Get(r, 2).AsDouble(), by_prod->Get(g, 1).AsDouble());
        }
      }
      EXPECT_TRUE(matched);
    }
  }
}

TEST(PipesortTest, CardinalitiesAreDistinctCounts) {
  Table sales = testutil::SmallSales();
  Result<CubeLattice> lat = CubeLattice::Make({"prod", "month"});
  Result<std::map<CuboidMask, int64_t>> card = CuboidCardinalities(sales, *lat);
  ASSERT_TRUE(card.ok());
  EXPECT_EQ((*card)[0b00], 1);
  EXPECT_EQ((*card)[0b01], 2);  // prods
  EXPECT_EQ((*card)[0b10], 3);  // months
  EXPECT_EQ((*card)[0b11], DistinctOn(sales, {"prod", "month"})->num_rows());
}

TEST(PipesortTest, TwoDimPlanMatchesFigure2) {
  // Figure 2: cube over (A, B) yields the pipelined path AB -> A -> ALL and a
  // re-sort edge producing B.
  Table sales = testutil::SmallSales();
  Result<CubeLattice> lat = CubeLattice::Make({"month", "prod"});  // month: 3, prod: 2
  Result<std::map<CuboidMask, int64_t>> card = CuboidCardinalities(sales, *lat);
  Result<PipesortPlan> plan = BuildPipesortPlan(*lat, *card);
  ASSERT_TRUE(plan.ok());
  // One pipelined main path of length 3 (full -> single-dim -> grand total)
  // and one resorted path of length 1.
  ASSERT_EQ(plan->paths.size(), 2u);
  EXPECT_EQ(plan->paths[0].size(), 3u);
  EXPECT_EQ(plan->paths[0][0], lat->full_cuboid());
  EXPECT_EQ(plan->paths[1].size(), 1u);
  EXPECT_EQ(plan->num_sorts(), 2);  // initial sort + one re-sort
  // Every cuboid appears exactly once across paths.
  std::set<CuboidMask> seen;
  for (const auto& path : plan->paths) {
    for (CuboidMask m : path) EXPECT_TRUE(seen.insert(m).second);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(PipesortTest, ExecutionEqualsMdJoinCube) {
  Table sales = testutil::RandomSales(21, 200);
  std::vector<std::string> dims = {"prod", "month", "state"};
  Result<CubeLattice> lat = CubeLattice::Make(dims);
  Result<std::map<CuboidMask, int64_t>> card = CuboidCardinalities(sales, *lat);
  Result<PipesortPlan> plan = BuildPipesortPlan(*lat, *card);
  ASSERT_TRUE(plan.ok());
  std::vector<AggSpec> aggs = {Sum(RCol("sale"), "total"), Count("n")};
  CubeExecStats stats;
  Result<Table> pipesort_cube = ExecutePipesortPlan(*plan, sales, aggs, &stats);
  ASSERT_TRUE(pipesort_cube.ok()) << pipesort_cube.status().ToString();

  Result<Table> base = CubeByBase(sales, dims);
  Result<Table> md_cube = MdJoin(*base, sales, aggs, DimsTheta(dims));
  ASSERT_TRUE(md_cube.ok());
  EXPECT_TRUE(TablesEqualUnordered(*pipesort_cube, *md_cube));
  EXPECT_LT(stats.sorts, 8);  // fewer sorts than cuboids: reuse happened
}

TEST(PipesortTest, NonIntegralSalesMatchWithinReassociation) {
  // examples/cube_explorer's data: GenerateSales draws non-integral sales,
  // and PIPESORT sums its finer cuboids' sums, so the additions are
  // reassociated. Keys and counts match exactly; sums match within 1e-9
  // relative, far above the (n-1)·2^-53 ≈ 2.2e-12 bound each order keeps
  // to the exact sum of n = 20 000 positive addends.
  SalesConfig config;
  config.num_rows = 20000;
  config.num_customers = 200;
  config.num_products = 8;
  config.num_months = 6;
  config.num_states = 4;
  const Table sales = GenerateSales(config);
  const std::vector<std::string> dims = {"prod", "month"};
  Result<CubeLattice> lat = CubeLattice::Make(dims);
  Result<std::map<CuboidMask, int64_t>> card = CuboidCardinalities(sales, *lat);
  Result<PipesortPlan> plan = BuildPipesortPlan(*lat, *card);
  ASSERT_TRUE(plan.ok());
  const std::vector<AggSpec> aggs = {Sum(RCol("sale"), "total"), Count("n")};
  Result<Table> pipesort_cube = ExecutePipesortPlan(*plan, sales, aggs);
  ASSERT_TRUE(pipesort_cube.ok()) << pipesort_cube.status().ToString();
  Result<Table> base = CubeByBase(sales, dims);
  Result<Table> md_cube = MdJoin(*base, sales, aggs, DimsTheta(dims));
  ASSERT_TRUE(md_cube.ok());

  const std::vector<std::string> keys_and_counts = {"prod", "month", "n"};
  EXPECT_TRUE(TablesEqualUnordered(*ProjectColumns(*pipesort_cube, keys_and_counts),
                                   *ProjectColumns(*md_cube, keys_and_counts)));
  EXPECT_TRUE(TablesApproxEqualUnordered(*pipesort_cube, *md_cube, 1e-9));
}

TEST(PipesortTest, RollupBeatsDetailOnlyOnWork) {
  Table sales = testutil::RandomSales(22, 400);
  std::vector<std::string> dims = {"prod", "month", "state"};
  Result<CubeLattice> lat = CubeLattice::Make(dims);
  Result<std::map<CuboidMask, int64_t>> card = CuboidCardinalities(sales, *lat);
  Result<PipesortPlan> plan = BuildPipesortPlan(*lat, *card);
  CubeExecStats pipe_stats, naive_stats;
  std::vector<AggSpec> aggs = {Sum(RCol("sale"), "total")};
  Result<Table> a = ExecutePipesortPlan(*plan, sales, aggs, &pipe_stats);
  Result<Table> b = ComputeCubeFromDetailOnly(*lat, sales, aggs, &naive_stats);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(TablesEqualUnordered(*a, *b));
  // The naive strategy rescans the detail relation for all 8 cuboids.
  EXPECT_EQ(naive_stats.rows_scanned, 8 * sales.num_rows());
  EXPECT_LT(pipe_stats.rows_scanned, naive_stats.rows_scanned);
  EXPECT_LT(pipe_stats.sorts, naive_stats.sorts);
}

TEST(PipesortTest, RejectsNonDistributive) {
  Table sales = testutil::SmallSales();
  Result<CubeLattice> lat = CubeLattice::Make({"prod", "month"});
  Result<std::map<CuboidMask, int64_t>> card = CuboidCardinalities(sales, *lat);
  Result<PipesortPlan> plan = BuildPipesortPlan(*lat, *card);
  EXPECT_FALSE(ExecutePipesortPlan(*plan, sales, {Avg(RCol("sale"), "a")}).ok());
}

TEST(PartitionedCubeTest, EqualsDirectCube) {
  Table sales = testutil::RandomSales(23, 300);
  std::vector<std::string> dims = {"prod", "month"};
  PartitionedCubeStats stats;
  Result<Table> part =
      PartitionedCube(sales, dims, {Sum(RCol("sale"), "total")}, "month", &stats);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  Result<Table> base = CubeByBase(sales, dims);
  Result<Table> direct = MdJoin(*base, sales, {Sum(RCol("sale"), "total")},
                                DimsTheta(dims));
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(TablesEqualUnordered(*part, *direct));
  EXPECT_GT(stats.partitions, 1);
  EXPECT_EQ(stats.full_detail_scans, 1);  // only the Di=ALL slice
}

TEST(PartitionedCubeTest, RejectsUnknownPartitionDim) {
  Table sales = testutil::SmallSales();
  EXPECT_FALSE(PartitionedCube(sales, {"prod"}, {Count("n")}, "month").ok());
}

}  // namespace
}  // namespace mdjoin
