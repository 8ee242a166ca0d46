#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>

#include "common/random.h"
#include "core/detail_scan.h"
#include "core/mdjoin.h"
#include "core/reference.h"
#include "cube/base_tables.h"
#include "cube/lattice.h"
#include "cube/partitioned_cube.h"
#include "cube/pipesort.h"
#include "expr/conjuncts.h"
#include "ra/group_by.h"
#include "ra/project.h"
#include "storage/block_format.h"
#include "storage/out_of_core.h"
#include "storage/paged_table.h"
#include "table/key.h"
#include "table/table_accel.h"
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

/// Which cells RandomDimTable draws besides NULL and its domains' values.
enum class DimCells {
  kMixed,   // ALL, and int64 cells in the float64 columns
  kAllNaN,  // ALL; one storage type per column
  kFlat,    // nothing more: the typed mirror flattens every key column
};

/// A small random relation over dims a (int64), b (float64), c (string) and
/// d (float64), plus a payload column. Tiny domains make duplicate keys the
/// rule; cells also take NULL, NaN and both zeros, and with kMixed int64
/// values in the float64 columns (equal to their float64 twins under
/// Value::Equals), among them, in d, int64 cells beyond ±2^53 beside the
/// float64 cells they round to, where Equals is not transitive (2^53 + 1 and
/// 2^53 both equal 2.0^53, not each other).
Table RandomDimTable(uint64_t seed, int64_t rows, DimCells cells = DimCells::kMixed) {
  Random rng(seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t big = int64_t{1} << 53;
  std::vector<Value> floats = {testutil::F(0.0), testutil::F(-0.0), testutil::F(1.5),
                               testutil::F(nan), testutil::F(2.0)};
  std::vector<Value> wide = floats;
  wide.push_back(testutil::F(static_cast<double>(big)));
  wide.push_back(testutil::F(-static_cast<double>(big)));
  if (cells == DimCells::kMixed) {
    floats.push_back(I(2));
    wide.insert(wide.end(), {I(2), I(big), I(big + 1), I(-big), I(-big - 1)});
  }
  const std::vector<Value> strings = {testutil::S("x"), testutil::S("y"), testutil::S("")};
  auto cell = [&rng, cells](const std::vector<Value>& domain) {
    switch (rng.Uniform(8)) {
      case 0:
        return Value::Null();
      case 1:
        if (cells != DimCells::kFlat) return Value::All();
        [[fallthrough]];
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
    b.AppendRowOrDie({cell({I(1), I(2), I(3)}), cell(floats), cell(strings), cell(wide),
                      I(r)});
  }
  return std::move(b).Finish();
}

/// Numbers `keys` by a quadratic first-match scan: each key joins the
/// earliest kept key it Equals cell by cell. Returns each key's group and
/// appends each group's first key to `kept`. Exact even where Equals is not
/// transitive; a RowKey-set dedup is not.
std::vector<int64_t> FirstMatch(const std::vector<RowKey>& keys, std::vector<size_t>* kept) {
  std::vector<int64_t> group(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    size_t g = 0;
    while (g < kept->size() && !RowKeyEqual{}(keys[i], keys[(*kept)[g]])) ++g;
    if (g == kept->size()) kept->push_back(i);
    group[i] = static_cast<int64_t>(g);
  }
  return group;
}

/// A generator's B and group-id map by the first-match oracle: R's rows
/// number the finest groups over the dims `numbered` holds, and each cuboid
/// of `masks`, in order, numbers those groups' keys over its own dims, with
/// ALL in the rolled-up positions. A row with a NULL key cell has group -1.
/// The map is unusable for the last ALL or NaN key cell in row order, or
/// for a key column with both int64 and float64 cells, which overrides it.
struct OracleBase {
  Table base;
  std::vector<int32_t> row_group;
  std::vector<int64_t> base_rows;
  std::string unusable = "-";
};

OracleBase OracleCuboids(const Table& t, const std::vector<std::string>& dims,
                         const std::vector<CuboidMask>& masks, CuboidMask numbered) {
  std::vector<int> cols;
  std::vector<Field> fields;
  for (const std::string& d : dims) {
    cols.push_back(*t.schema().FindField(d));
    fields.push_back(t.schema().field(cols.back()));
  }
  auto project = [&](const RowKey& key, CuboidMask mask) {
    RowKey out(dims.size(), Value::All());
    for (size_t i = 0; i < dims.size(); ++i) {
      if (mask & (CuboidMask{1} << i)) out[i] = key[i];
    }
    return out;
  };
  std::vector<RowKey> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) rows.push_back(project(t.GetRowKey(r, cols), numbered));
  std::vector<size_t> finest_first;
  const std::vector<int64_t> finest = FirstMatch(rows, &finest_first);
  OracleBase out{Table(Schema(std::move(fields))), {}, {}};
  std::vector<int> kinds(dims.size(), 0);
  for (size_t r = 0; r < rows.size(); ++r) {
    bool null_key = false;
    for (size_t i = 0; i < dims.size(); ++i) {
      const Value& v = rows[r][i];
      null_key = null_key || v.is_null();
      if ((numbered & (CuboidMask{1} << i)) == 0) continue;
      if (v.is_all()) out.unusable = "a key column holds ALL";
      if (v.is_float64() && std::isnan(v.float64())) out.unusable = "a key column holds NaN";
      kinds[i] |= v.is_int64() ? 1 : v.is_float64() ? 2 : 0;
    }
    out.row_group.push_back(null_key ? -1 : static_cast<int32_t>(finest[r]));
  }
  for (int k : kinds) {
    if (k == 3) out.unusable = "a key column holds both int64 and float64 cells";
  }
  out.base_rows.resize(finest_first.size() * masks.size());
  int64_t offset = 0;
  for (size_t i = 0; i < masks.size(); ++i) {
    std::vector<RowKey> keys;
    for (size_t f : finest_first) keys.push_back(project(rows[f], masks[i]));
    std::vector<size_t> first;
    const std::vector<int64_t> coarse = FirstMatch(keys, &first);
    for (size_t c : first) out.base.AppendRowUnchecked(keys[c]);
    for (size_t g = 0; g < coarse.size(); ++g) {
      out.base_rows[g * masks.size() + i] = offset + coarse[g];
    }
    offset += static_cast<int64_t>(first.size());
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

/// One multi-cuboid generator's run over one source: its cuboids, B and map.
struct Generated {
  std::string name;
  std::vector<CuboidMask> masks;
  Table base;
  GroupIdMap map;
};

void ExpectSameMap(const GroupIdMap& want, const GroupIdMap& got) {
  EXPECT_EQ(want.row_group, got.row_group);
  EXPECT_EQ(want.base_rows, got.base_rows);
  EXPECT_EQ(want.stride, got.stride);
  EXPECT_EQ(std::string(want.unusable != nullptr ? want.unusable : "-"),
            std::string(got.unusable != nullptr ? got.unusable : "-"));
}

/// Runs every generator over `t`, each multi-cuboid one with and without a
/// map, CuboidBase over every cuboid, Distinct and DistinctOn, and checks
/// each against the first-match oracle row for row; returns the
/// multi-cuboid generators' runs with their maps.
std::vector<Generated> CheckGenerators(const Table& t, const std::vector<std::string>& dims,
                                       const std::vector<std::vector<std::string>>& sets) {
  const CubeLattice lattice = *CubeLattice::Make(dims);
  const int d = lattice.num_dims();
  std::vector<CuboidMask> rollup_masks, set_masks, unpivot_masks;
  for (int k = d; k >= 0; --k) rollup_masks.push_back((CuboidMask{1} << k) - 1);
  for (const std::vector<std::string>& set : sets) set_masks.push_back(MaskOf(dims, set));
  for (int i = 0; i < d; ++i) unpivot_masks.push_back(CuboidMask{1} << i);
  struct Generator {
    const char* name;
    std::function<Result<Table>(GroupIdMap*)> run;
    std::vector<CuboidMask> masks;
  };
  const std::vector<Generator> generators = {
      {"cube", [&](GroupIdMap* g) { return CubeByBase(t, dims, g); }, CubeMasks(lattice)},
      {"rollup", [&](GroupIdMap* g) { return RollupBase(t, dims, g); }, rollup_masks},
      {"grouping sets", [&](GroupIdMap* g) { return GroupingSetsBase(t, dims, sets, g); },
       set_masks},
      {"unpivot", [&](GroupIdMap* g) { return UnpivotBase(t, dims, g); }, unpivot_masks},
  };
  std::vector<Generated> out;
  for (const Generator& gen : generators) {
    SCOPED_TRACE(gen.name);
    CuboidMask numbered = 0;
    for (CuboidMask m : gen.masks) numbered |= m;
    Result<Table> plain = gen.run(nullptr);
    EXPECT_TRUE(plain.ok());
    if (!plain.ok()) continue;
    EXPECT_TRUE(testutil::TablesBitIdentical(OracleCuboids(t, dims, gen.masks, numbered).base,
                                             *plain));
    Generated run{gen.name, gen.masks, Table(), GroupIdMap()};
    Result<Table> mapped = gen.run(&run.map);
    EXPECT_TRUE(mapped.ok());
    if (!mapped.ok()) continue;
    run.base = std::move(*mapped);
    const OracleBase want = OracleCuboids(t, dims, gen.masks, lattice.full_cuboid());
    EXPECT_TRUE(testutil::TablesBitIdentical(want.base, run.base));
    EXPECT_EQ(want.row_group, run.map.row_group);
    EXPECT_EQ(want.base_rows, run.map.base_rows);
    EXPECT_EQ(want.unusable, run.map.unusable != nullptr ? run.map.unusable : "-");
    out.push_back(std::move(run));
  }
  for (CuboidMask mask : CubeMasks(lattice)) {
    Result<Table> cuboid = CuboidBase(t, lattice, mask);
    EXPECT_TRUE(cuboid.ok());
    if (!cuboid.ok()) continue;
    EXPECT_TRUE(testutil::TablesBitIdentical(OracleCuboids(t, dims, {mask}, mask).base, *cuboid))
        << "mask=" << mask;
  }
  // Distinct over every column, and DistinctOn over the dims in their order.
  std::vector<RowKey> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) rows.push_back(t.GetRow(r));
  std::vector<size_t> kept;
  FirstMatch(rows, &kept);
  Table want_distinct(t.schema());
  for (size_t r : kept) want_distinct.AppendRowFrom(t, static_cast<int64_t>(r));
  EXPECT_TRUE(testutil::TablesBitIdentical(want_distinct, Distinct(t)));
  Result<Table> on = DistinctOn(t, dims);
  EXPECT_TRUE(on.ok());
  if (on.ok()) {
    EXPECT_TRUE(testutil::TablesBitIdentical(
        OracleCuboids(t, dims, {lattice.full_cuboid()}, lattice.full_cuboid()).base, *on));
  }
  return out;
}

/// Every base generator, Distinct and DistinctOn keep exactly the rows, in
/// the order, and every map the group ids and the unusable reason, of the
/// first-match oracle: over relations with ALL and NaN key cells, with and
/// without mixed int64/float64 key columns (Value cells), and over one
/// whose key columns flatten, read (a) through its typed mirror, (b)
/// without it and (c) streamed from tiny paged blocks with no cache, where
/// (a)–(c) also give equal maps.
TEST(BaseTablesTest, GeneratorsMatchPerCuboidDedupRowForRow) {
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    Random rng(seed * 7919);
    const int64_t rows = static_cast<int64_t>(rng.UniformInt(0, 80));
    const Table t = RandomDimTable(seed, rows);
    // 1 to 4 dims, in a random order.
    std::vector<std::string> dims = names;
    for (size_t i = dims.size(); i > 1; --i) std::swap(dims[i - 1], dims[rng.Uniform(i)]);
    dims.resize(static_cast<size_t>(rng.UniformInt(1, 4)));
    // Random grouping sets: any subsets, repeats and the empty set included.
    std::vector<std::vector<std::string>> sets;
    for (int s = static_cast<int>(rng.UniformInt(1, 4)); s > 0; --s) {
      std::vector<std::string> set;
      for (const std::string& dim : dims) {
        if (rng.Bernoulli(0.5)) set.push_back(dim);
      }
      std::reverse(set.begin(), set.end());  // set order must not matter
      sets.push_back(std::move(set));
    }
    {
      SCOPED_TRACE("mixed");
      CheckGenerators(t, dims, sets);
    }
    {
      SCOPED_TRACE("ALL and NaN");
      CheckGenerators(RandomDimTable(seed, rows, DimCells::kAllNaN), dims, sets);
    }

    const Table flat = RandomDimTable(seed, rows + 8, DimCells::kFlat);
    ASSERT_NE(flat.accel(), nullptr);
    for (const std::string& dim : dims) {
      EXPECT_TRUE(flat.accel()->cols[static_cast<size_t>(*flat.schema().FindField(dim))].flat())
          << dim;
    }
    std::vector<Generated> mirror, cells;
    {
      SCOPED_TRACE("(a) mirror");
      mirror = CheckGenerators(flat, dims, sets);
    }
    {
      SCOPED_TRACE("(b) without mirror");
      cells = CheckGenerators(testutil::WithoutMirror(flat), dims, sets);
    }
    ASSERT_EQ(mirror.size(), cells.size());
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("mdjoin_cube_test_" + std::to_string(seed) + ".mdjb"))
            .string();
    BlockFileOptions options;
    options.block_size_rows = 5;
    ASSERT_TRUE(WriteBlockFile(flat, path, options).ok());
    Result<std::unique_ptr<PagedTable>> paged = PagedTable::Open(path);
    ASSERT_TRUE(paged.ok());
    for (size_t i = 0; i < mirror.size(); ++i) {
      SCOPED_TRACE(mirror[i].name);
      EXPECT_TRUE(testutil::TablesBitIdentical(mirror[i].base, cells[i].base));
      ExpectSameMap(mirror[i].map, cells[i].map);
      SCOPED_TRACE("(c) paged");
      const PagedSource source(**paged, /*cache=*/nullptr, {}, {dims.begin(), dims.end()});
      GroupIdMap streamed;
      Result<Table> base =
          CuboidsFromFinest(source, dims, mirror[i].masks, {}, nullptr, nullptr, &streamed);
      ASSERT_TRUE(base.ok());
      EXPECT_TRUE(testutil::TablesBitIdentical(mirror[i].base, *base));
      ExpectSameMap(mirror[i].map, streamed);
    }
    paged->reset();
    std::filesystem::remove(path);
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
