// A/B tests for the out-of-core MD-join (storage/out_of_core): PagedMdJoin
// must be bit-identical to the Definition 3.1 reference across {1, 2, 8}
// threads × {spill on, spill off}; the route matrix runs every MD-join route
// (in-memory and paged, one and three components, any thread count, single
// and forced multi-pass) over NULL, ALL and NaN keys against the reference;
// plus zone-map pruning effectiveness (a sorted in-memory table prunes the
// morsels its paged copy prunes, on every route), ALL/NULL equi-key spill
// routing, the catalog/executor paged path (a fused pivot included), and
// block-cache accounting under a query guard.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analyze/binder.h"
#include "common/query_guard.h"
#include "common/random.h"
#include "core/generalized.h"
#include "core/mdjoin.h"
#include "core/reference.h"
#include "cube/base_tables.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "optimizer/executor.h"
#include "optimizer/optimize.h"
#include "optimizer/plan.h"
#include "ra/filter.h"
#include "storage/block_cache.h"
#include "storage/block_format.h"
#include "storage/out_of_core.h"
#include "storage/paged_table.h"
#include "storage/spill.h"
#include "table/table_builder.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using testutil::ALL;
using testutil::F;
using testutil::I;
using testutil::NUL;
using testutil::S;
using testutil::TablesBitIdentical;

/// Writes `table` to a block file under the temp dir and opens it paged.
class PagedFixture {
 public:
  PagedFixture(const Table& table, int64_t block_size_rows,
               const std::string& tag) {
    path_ = std::filesystem::temp_directory_path().string() +
            "/mdjoin_ooc_test_" + tag + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this));
    BlockFileOptions options;
    options.block_size_rows = block_size_rows;
    Status s = WriteBlockFile(table, path_, options);
    MDJ_CHECK(s.ok()) << s.ToString();
    Result<std::unique_ptr<PagedTable>> opened = PagedTable::Open(path_);
    MDJ_CHECK(opened.ok()) << opened.status().ToString();
    paged_ = std::move(*opened);
  }
  ~PagedFixture() {
    paged_.reset();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  const PagedTable& table() const { return *paged_; }

 private:
  std::string path_;
  std::unique_ptr<PagedTable> paged_;
};

/// θ with an equi conjunct (spillable) plus a detail-side range conjunct
/// (zone-prunable): per-customer sales above a threshold.
ExprPtr SelectiveTheta(double threshold) {
  return And(Eq(RCol("cust"), BCol("cust")), Gt(RCol("sale"), Lit(threshold)));
}

// ---------------------------------------------------------------------------
// Threads × spill against the Definition 3.1 reference

TEST(OutOfCoreTest, BitIdenticalAcrossThreadsAndSpill) {
  Table sales = testutil::RandomSales(3, 500);
  Result<Table> base = GroupByBase(sales, {"cust"});
  ASSERT_TRUE(base.ok());
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total"),
                               Avg(RCol("sale"), "mean"), Min(RCol("sale"), "lo"),
                               Max(RCol("sale"), "hi")};
  const ExprPtr theta = SelectiveTheta(120);
  Result<Table> expect = MdJoinReference(*base, sales, aggs, theta);
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();
  PagedFixture paged(sales, 64, "matrix");
  BlockCache cache(BlockCache::Options{});

  for (int threads : {1, 2, 8}) {
    for (bool spill : {false, true}) {
      MdJoinOptions md;
      md.num_threads = threads;
      md.block_cache = &cache;
      md.enable_spill = spill;
      md.spill_partitions = spill ? 3 : 0;
      MdJoinStats stats;
      Result<Table> got = PagedMdJoin(*base, paged.table(), aggs, theta, md, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(TablesBitIdentical(*expect, *got))
          << "threads=" << threads << " spill=" << spill;
      EXPECT_GT(stats.blocks_read, 0) << "paged run decoded no blocks";
      if (spill) {
        EXPECT_EQ(stats.spill_partitions, 3);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The route matrix: in-memory and paged (tiny blocks, tiny cache) × one and
// three components × {1, 2, 8} threads × single and forced multi-pass, every
// cell bit-identical to MdJoinReference applied component by component. Key
// columns carry NULL, ALL and NaN; the aggregated values are integer-valued,
// so float sums are exact under any merge order of worker partials.

Table EdgeDetail(uint64_t seed, int64_t rows) {
  Random rng(seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TableBuilder b({{"k", DataType::kInt64},
                  {"f", DataType::kFloat64},
                  {"g", DataType::kString},
                  {"v", DataType::kFloat64}});
  for (int64_t i = 0; i < rows; ++i) {
    Value k = i % 29 == 0 ? NUL() : (i % 31 == 0 ? ALL() : I(rng.UniformInt(1, 8)));
    const double half_steps = 0.5 * static_cast<double>(rng.UniformInt(1, 5));
    Value f = i % 23 == 0 ? F(nan) : (i % 37 == 0 ? NUL() : F(half_steps));
    Value v = i % 43 == 0 ? NUL() : F(static_cast<double>(rng.UniformInt(1, 100)));
    b.AppendRowOrDie({k, f, S(i % 3 == 0 ? "x" : "y"), v});
  }
  return std::move(b).Finish();
}

Table EdgeBase() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TableBuilder b({{"k", DataType::kInt64}, {"f", DataType::kFloat64}});
  for (int64_t k = 0; k <= 9; ++k) {
    b.AppendRowOrDie({I(k), F(0.5 * static_cast<double>(k % 6))});
  }
  b.AppendRowOrDie({NUL(), F(1.0)});
  b.AppendRowOrDie({ALL(), F(nan)});
  b.AppendRowOrDie({I(3), ALL()});
  b.AppendRowOrDie({I(4), NUL()});
  b.AppendRowOrDie({ALL(), ALL()});
  return std::move(b).Finish();
}

/// An equi key with a pushed-down kernel, a float equi key over NaN with a
/// string kernel, and an equi key with a residual comparing NaN-bearing floats.
std::vector<MdJoinComponent> EdgeComponents() {
  return {
      {{Count("n1"), Sum(RCol("v"), "s1"), Min(RCol("v"), "lo1")},
       And(Eq(RCol("k"), BCol("k")), Gt(RCol("v"), Lit(20.0)))},
      {{Count("n2"), Max(RCol("v"), "hi2")},
       And(Eq(RCol("f"), BCol("f")), Eq(RCol("g"), Lit("x")))},
      {{Sum(RCol("v"), "s3"), Avg(RCol("v"), "a3")},
       And(Eq(RCol("k"), BCol("k")), Lt(RCol("f"), BCol("f")))},
  };
}

TEST(RouteMatrixTest, EveryRouteMatchesReferencePerComponent) {
  const Table detail = EdgeDetail(17, 2000);
  const Table base = EdgeBase();
  PagedFixture paged(detail, 16, "routes");
  BlockCache::Options cache_options;
  cache_options.capacity_bytes = 2 * paged.table().ApproxBlockBytes(0);
  BlockCache cache(cache_options);

  const std::vector<MdJoinComponent> edge = EdgeComponents();
  std::vector<std::vector<MdJoinComponent>> configs;
  configs.reserve(edge.size() + 1);
  for (const MdJoinComponent& c : edge) configs.push_back({c});  // k = 1
  configs.push_back(edge);                                        // k = 3
  // The columns each configuration's θs and aggregates name: all a paged
  // run decodes of a block, in schema order.
  using Names = std::vector<std::string>;
  const std::vector<Names> read_columns = {
      {"k", "v"}, {"f", "g", "v"}, {"k", "f", "v"}, {"k", "f", "g", "v"}};

  for (size_t config = 0; config < configs.size(); ++config) {
    const std::vector<MdJoinComponent>& comps = configs[config];
    const Table expect = testutil::ReferencePerComponent(base, detail, comps);
    for (int threads : {1, 2, 8}) {
      for (int64_t rows_per_pass : {int64_t{0}, int64_t{4}}) {
        SCOPED_TRACE(::testing::Message()
                     << "k=" << comps.size() << " θ1=" << comps[0].theta->ToString()
                     << " threads=" << threads << " rows_per_pass=" << rows_per_pass);
        MdJoinOptions md;
        md.num_threads = threads;
        md.base_rows_per_pass = rows_per_pass;
        md.block_cache = &cache;
        for (bool on_disk : {false, true}) {
          MdJoinStats stats;
          Result<Table> got = on_disk
                                  ? PagedMdJoin(base, paged.table(), comps, md, &stats)
                                  : GeneralizedMdJoin(base, detail, comps, md, &stats);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_TRUE(TablesBitIdentical(expect, *got)) << "paged=" << on_disk;
          EXPECT_EQ(stats.passes_over_detail, rows_per_pass > 0 ? 4 : 1);
          if (on_disk) {
            EXPECT_GT(stats.blocks_read, 0);
            EXPECT_EQ(stats.columns, read_columns[config]);
          } else {
            EXPECT_TRUE(stats.columns.empty());
          }
        }
        if (comps.size() > 1) continue;
        // The single-component routes beside the generalized entry point.
        const std::vector<AggSpec>& aggs = comps[0].aggs;
        const ExprPtr& theta = comps[0].theta;
        Result<Table> plain = MdJoin(base, detail, aggs, theta, md);
        ASSERT_TRUE(plain.ok()) << plain.status().ToString();
        EXPECT_TRUE(TablesBitIdentical(expect, *plain)) << "MdJoin";
        Result<Table> split = ParallelMdJoin(base, detail, aggs, theta, 3, threads, md);
        ASSERT_TRUE(split.ok()) << split.status().ToString();
        EXPECT_TRUE(TablesBitIdentical(expect, *split)) << "ParallelMdJoin";
        MdJoinOptions spill = md;
        spill.enable_spill = true;
        spill.spill_partitions = 3;
        Result<Table> spilled =
            SpillMdJoin(base, TableSource(detail), aggs, theta, spill, nullptr);
        ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
        EXPECT_TRUE(TablesBitIdentical(expect, *spilled)) << "SpillMdJoin";
        MdJoinStats spill_stats;
        Result<Table> paged_spill =
            PagedMdJoin(base, paged.table(), aggs, theta, spill, &spill_stats);
        ASSERT_TRUE(paged_spill.ok()) << paged_spill.status().ToString();
        EXPECT_TRUE(TablesBitIdentical(expect, *paged_spill)) << "paged spill";
        EXPECT_EQ(spill_stats.columns, read_columns[config]);
      }
    }
  }
}

TEST(OutOfCoreTest, BitIdenticalWithoutCacheAndWithoutEquiConjunct) {
  // No cache (ephemeral faults) and a θ with no equi conjunct: the spill arm
  // must fall back and still match in-memory exactly.
  Table sales = testutil::RandomSales(5, 200);
  TableBuilder bb({{"lo", DataType::kFloat64}});
  for (double lo : {50.0, 150.0, 400.0}) bb.AppendRowOrDie({F(lo)});
  Table base = std::move(bb).Finish();
  const ExprPtr theta = Gt(RCol("sale"), BCol("lo"));
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};
  Result<Table> expect = MdJoin(base, sales, aggs, theta);
  ASSERT_TRUE(expect.ok());
  PagedFixture paged(sales, 32, "noequi");
  for (bool spill : {false, true}) {
    MdJoinOptions md;
    md.enable_spill = spill;
    Result<Table> got = PagedMdJoin(base, paged.table(), aggs, theta, md);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(TablesBitIdentical(*expect, *got)) << "spill=" << spill;
  }
}

// A count(*) join whose θ names no column of R still sees every row: the
// paged source decodes one chunk per block (the file's smallest column) so
// its morsels keep their row counts, cached or not, at one and two threads.
TEST(OutOfCoreTest, JoinNamingNoColumnOfRDecodesOneChunkPerBlock) {
  const Table sales = testutil::RandomSales(29, 300);
  Result<Table> base = GroupByBase(sales, {"cust"});
  ASSERT_TRUE(base.ok());
  const std::vector<AggSpec> aggs = {Count("n")};
  const ExprPtr theta = Gt(BCol("cust"), Lit(int64_t{2}));
  Result<Table> expect = MdJoinReference(*base, sales, aggs, theta);
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();
  PagedFixture paged(sales, 32, "nocols");
  Counter* chunks = MetricsRegistry::Global().GetCounter("mdjoin_column_chunks_decoded_total");
  BlockCache cache(BlockCache::Options{});
  for (BlockCache* c : {static_cast<BlockCache*>(nullptr), &cache}) {
    for (int threads : {1, 2}) {
      SCOPED_TRACE(::testing::Message() << "cache=" << (c != nullptr) << " threads=" << threads);
      QueryGuard guard(QueryGuardOptions{});
      MdJoinOptions md;
      md.guard = &guard;
      md.block_cache = c;
      md.num_threads = threads;
      MdJoinStats stats;
      const int64_t chunks0 = chunks->value();
      Result<Table> got = PagedMdJoin(*base, paged.table(), aggs, theta, md, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(TablesBitIdentical(*expect, *got));
      EXPECT_EQ(stats.detail_rows_scanned, sales.num_rows());
      ASSERT_EQ(stats.columns.size(), 1u);
      EXPECT_EQ(chunks->value() - chunks0, stats.blocks_faulted);
      EXPECT_EQ(guard.bytes_reserved(), 0);
    }
  }
  // A column R lacks fails to bind as it does in memory.
  const ExprPtr bogus = Eq(RCol("bogus"), BCol("cust"));
  Result<Table> in_memory = MdJoin(*base, sales, aggs, bogus);
  Result<Table> on_disk = PagedMdJoin(*base, paged.table(), aggs, bogus);
  ASSERT_FALSE(in_memory.ok());
  ASSERT_FALSE(on_disk.ok());
  EXPECT_EQ(on_disk.status().code(), in_memory.status().code());
  for (const Result<Table>* r : {&in_memory, &on_disk}) {
    EXPECT_NE(r->status().message().find("no column named 'bogus'"), std::string::npos)
        << r->status().ToString();
  }
}

// A spilled paged join partitions and re-reads only the columns θ and the
// aggregates name: bit-identical to the reference with no guard byte left,
// and fewer spill bytes than the same join spilling R's seven columns.
TEST(OutOfCoreTest, SpilledPagedJoinSpillsItsColumnsOnly) {
  const Table sales = testutil::RandomSales(31, 600);
  Result<Table> base = GroupByBase(sales, {"cust"});
  ASSERT_TRUE(base.ok());
  const std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "t")};
  const ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")), Lt(RCol("month"), Lit(int64_t{7})));
  Result<Table> expect = MdJoinReference(*base, sales, aggs, theta);
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();
  PagedFixture paged(sales, 64, "spillcols");
  BlockCache cache(BlockCache::Options{});
  QueryGuardOptions guard_options;
  guard_options.memory_hard_limit_bytes = int64_t{1} << 30;
  QueryGuard guard(guard_options);
  MdJoinOptions md;
  md.guard = &guard;
  md.block_cache = &cache;
  md.enable_spill = true;
  md.spill_partitions = 3;
  MdJoinStats paged_stats, memory_stats;
  Result<Table> got = PagedMdJoin(*base, paged.table(), aggs, theta, md, &paged_stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(TablesBitIdentical(*expect, *got));
  EXPECT_EQ(paged_stats.spill_partitions, 3);
  EXPECT_EQ(paged_stats.columns, (std::vector<std::string>{"cust", "month", "sale"}));
  Result<Table> whole =
      SpillMdJoin(*base, TableSource(sales), aggs, theta, md, &memory_stats);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_TRUE(TablesBitIdentical(*expect, *whole));
  EXPECT_GT(paged_stats.spill_bytes_written, 0);
  EXPECT_LT(paged_stats.spill_bytes_written, memory_stats.spill_bytes_written);
  EXPECT_EQ(guard.bytes_reserved(), 0);
}

TEST(OutOfCoreTest, EmptyBaseAndEmptyDetail) {
  Table sales = testutil::SmallSales();
  Table empty_base(Schema({{"cust", DataType::kInt64}}));
  std::vector<AggSpec> aggs = {Count("n")};
  const ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  {
    PagedFixture paged(sales, 4, "emptyb");
    Result<Table> got = PagedMdJoin(empty_base, paged.table(), aggs, theta);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->num_rows(), 0);
  }
  {
    Table empty_detail(testutil::SalesSchema());
    Result<Table> base = GroupByBase(sales, {"cust"});
    ASSERT_TRUE(base.ok());
    PagedFixture paged(empty_detail, 4, "emptyd");
    Result<Table> expect = MdJoin(*base, empty_detail, aggs, theta);
    ASSERT_TRUE(expect.ok());
    Result<Table> got = PagedMdJoin(*base, paged.table(), aggs, theta);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(TablesBitIdentical(*expect, *got));
  }
}

// ---------------------------------------------------------------------------
// Zone-map pruning

TEST(OutOfCoreTest, SelectiveThetaPrunesMajorityOfBlocks) {
  // Detail sorted by month: a θ selecting one month refutes every block
  // holding the others. With 4 months over 16 blocks, pruning must remove
  // >= 50% of blocks (the acceptance bar) — here 3/4 of them.
  Table sales = testutil::RandomSales(9, 512);
  Result<Table> sorted = SortTableBy(sales, {"month"});
  ASSERT_TRUE(sorted.ok());
  Result<Table> base = GroupByBase(*sorted, {"cust"});
  ASSERT_TRUE(base.ok());
  const ExprPtr theta =
      And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("month"), Lit(2)));
  PagedFixture paged(*sorted, 32, "prune");
  const int num_blocks = paged.table().num_blocks();
  ASSERT_EQ(num_blocks, 16);

  MdJoinStats stats;
  Result<Table> got = PagedMdJoin(*base, paged.table(), {Count("n")}, theta, {},
                                  &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_GE(stats.blocks_pruned, num_blocks / 2)
      << "selective θ pruned only " << stats.blocks_pruned << "/" << num_blocks;
  EXPECT_EQ(stats.blocks_read + stats.blocks_pruned, num_blocks);
  Result<Table> expect = MdJoin(*base, *sorted, {Count("n")}, theta);
  ASSERT_TRUE(expect.ok());
  EXPECT_TRUE(TablesBitIdentical(*expect, *got));
}

/// R laid out in key order over 24 morsels of kMorselRows rows (the last one
/// partial): s climbs from ±0 to 95 in float64 cells, every seventh an int64
/// cell, with NULL, ALL and NaN cells sprinkled in (a column the typed mirror
/// cannot flatten, so its zone maps come from the Value cells); t and h are
/// its int64 and string bands (flat, with NULLs); k is a random equi key
/// with NULL and ALL; v is integral, so sums are exact in any merge order.
Table SortedEdgeDetail(uint64_t seed) {
  Random rng(seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TableBuilder b({{"s", DataType::kFloat64},
                  {"t", DataType::kInt64},
                  {"h", DataType::kString},
                  {"k", DataType::kInt64},
                  {"v", DataType::kFloat64}});
  const int64_t rows = 24 * kMorselRows - 300;
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t x = i / 256;
    Value s = i % 7 == 0 ? I(x)
              : x == 0   ? F(i % 2 == 0 ? 0.0 : -0.0)
                         : F(static_cast<double>(x) + 0.25 * static_cast<double>(i % 4));
    if (i % 97 == 0) s = NUL();
    if (i % 89 == 0) s = ALL();
    if (i % 83 == 0) s = F(nan);
    const std::string band = (x / 8 < 10 ? "b0" : "b") + std::to_string(x / 8);
    b.AppendRowOrDie({std::move(s), i % 101 == 0 ? NUL() : I(x / 8),
                      i % 103 == 0 ? NUL() : S(band),
                      i % 29 == 0 ? NUL() : (i % 31 == 0 ? ALL() : I(rng.UniformInt(1, 8))),
                      i % 43 == 0 ? NUL() : F(static_cast<double>(rng.UniformInt(1, 100)))});
  }
  return std::move(b).Finish();
}

/// The in-memory source the executor builds over a catalog table: its
/// morsels PlanMorselPruning keeps by the zone maps of the mirror, on every
/// route (1, 2 and 8 threads, forced passes, spill), is bit-identical to the
/// reference and keeps exactly the morsels a paged copy in kMorselRows-row
/// blocks keeps, so blocks_pruned and detail_rows_scanned agree across the
/// two storages; the executor reports the same count on its MD-join node.
TEST(OutOfCoreTest, SortedMemoryPrunesTheMorselsPagedBlocksPrune) {
  const Table detail = SortedEdgeDetail(5);
  ASSERT_NE(detail.accel(), nullptr);
  const int64_t morsels = static_cast<int64_t>(detail.accel()->zones.size());
  ASSERT_GE(morsels, 20);
  TableBuilder bb({{"k", DataType::kInt64}});
  for (int64_t k = 1; k <= 8; ++k) bb.AppendRowOrDie({I(k)});
  bb.AppendRowOrDie({NUL()});
  bb.AppendRowOrDie({ALL()});
  const Table base = std::move(bb).Finish();
  PagedFixture paged(detail, kMorselRows, "sorted_memory");
  ASSERT_EQ(paged.table().num_blocks(), morsels);
  // The mirror's zone maps, computed from its typed payloads (Value cells
  // for s), are the ones the block writer computes from the cells.
  for (size_t m = 0; m < static_cast<size_t>(morsels); ++m) {
    for (size_t c = 0; c < static_cast<size_t>(detail.num_columns()); ++c) {
      EXPECT_EQ(detail.accel()->zones[m][c].ToString(),
                paged.table().zones()[m][c].ToString())
          << "morsel " << m << " column " << c;
    }
  }

  const ExprPtr key = Eq(RCol("k"), BCol("k"));
  const std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("v"), "total"),
                                     Min(RCol("v"), "lo")};
  // Each θ with whether its ranges prune: an equality admits the ALL cells
  // every morsel of s holds, and the analysis does not narrow a disjunction.
  const std::vector<std::pair<ExprPtr, bool>> thetas = {
      {And(key, Ge(RCol("s"), Lit(10.0)), Lt(RCol("s"), Lit(20.0))), true},
      {And(key, Eq(RCol("t"), Lit(int64_t{3}))), true},
      {And(key, Ge(RCol("h"), Lit("b05")), Le(RCol("h"), Lit("b06"))), true},
      {And(key, Gt(RCol("s"), Lit(10.0)), Lt(RCol("s"), Lit(5.0))), true},
      {And(key, Eq(RCol("s"), Lit(0.0))), false},
      {And(key, Or(Gt(RCol("s"), Lit(93.0)), Eq(RCol("t"), Lit(int64_t{0})))), false},
  };
  std::vector<std::pair<std::vector<MdJoinComponent>, bool>> configs;
  configs.reserve(thetas.size() + 1);
  for (const auto& [theta, prunes] : thetas) configs.push_back({{{aggs, theta}}, prunes});
  configs.push_back({{{{Count("n1")}, thetas[0].first},
                      {{Sum(RCol("v"), "s2")}, thetas[1].first},
                      {{Min(RCol("v"), "lo3")}, thetas[2].first}},
                     true});

  for (const auto& [comps, prunes] : configs) {
    SCOPED_TRACE(::testing::Message() << "k=" << comps.size() << " θ1="
                                      << comps[0].theta->ToString());
    const Table expect = testutil::ReferencePerComponent(base, detail, comps);
    const std::vector<bool> keep =
        PlanMorselPruning(detail.schema(), detail.accel()->zones, comps);
    EXPECT_EQ(keep, PlanMorselPruning(paged.table().schema(), paged.table().zones(), comps));
    const int64_t pruned = std::count(keep.begin(), keep.end(), false);
    EXPECT_EQ(pruned > 0, prunes) << pruned;
    const TableSource memory(detail, keep);
    for (int threads : {1, 2, 8}) {
      for (int64_t rows_per_pass : {int64_t{0}, int64_t{4}}) {
        for (bool spill : {false, true}) {
          if (spill && (comps.size() > 1 || rows_per_pass > 0)) continue;
          SCOPED_TRACE(::testing::Message() << "threads=" << threads << " rows_per_pass="
                                            << rows_per_pass << " spill=" << spill);
          MdJoinOptions md;
          md.num_threads = threads;
          md.base_rows_per_pass = rows_per_pass;
          md.enable_spill = spill;
          md.spill_partitions = spill ? 3 : 0;
          MdJoinStats mem_stats, paged_stats;
          Result<Table> got = SourceMdJoin(base, memory, comps, md, &mem_stats);
          Result<Table> from_blocks =
              PagedMdJoin(base, paged.table(), comps, md, &paged_stats);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_TRUE(from_blocks.ok()) << from_blocks.status().ToString();
          EXPECT_TRUE(TablesBitIdentical(expect, *got));
          EXPECT_TRUE(TablesBitIdentical(expect, *from_blocks));
          EXPECT_EQ(mem_stats.blocks_pruned, paged_stats.blocks_pruned);
          EXPECT_EQ(mem_stats.detail_rows_scanned, paged_stats.detail_rows_scanned);
          EXPECT_EQ(mem_stats.blocks_read, 0);
          if (!spill) {  // spill reads R again for the base's ALL-key rows
            const int64_t passes = mem_stats.passes_over_detail;
            EXPECT_EQ(mem_stats.blocks_pruned, pruned * std::max<int64_t>(passes, 1));
            EXPECT_EQ(paged_stats.blocks_read, (morsels - pruned) * passes);
          }
        }
      }
    }

    // The executor reads the catalog's table in place through the same
    // source.
    Catalog catalog;
    ASSERT_TRUE(catalog.Register("B", &base).ok());
    ASSERT_TRUE(catalog.Register("R", &detail).ok());
    const PlanPtr plan =
        comps.size() == 1
            ? MdJoinPlan(TableRef("B"), TableRef("R"), comps[0].aggs, comps[0].theta)
            : GeneralizedMdJoinPlan(TableRef("B"), TableRef("R"), comps);
    QueryProfile profile;
    Result<Table> executed = ExplainAnalyze(plan, catalog, {}, &profile);
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    EXPECT_TRUE(TablesBitIdentical(expect, *executed));
    EXPECT_EQ(profile.root->read, "in_place");
    EXPECT_EQ(profile.root->blocks_pruned, pruned);
  }
}

TEST(OutOfCoreTest, UnsatisfiableThetaPrunesEverything) {
  Table sales = testutil::SmallSales();
  Result<Table> base = GroupByBase(sales, {"cust"});
  ASSERT_TRUE(base.ok());
  // sale > 10 and sale < 5 is range-refuted without reading any block.
  const ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")),
                            And(Gt(RCol("sale"), Lit(10.0)),
                                Lt(RCol("sale"), Lit(5.0))));
  PagedFixture paged(sales, 4, "unsat");
  MdJoinStats stats;
  Result<Table> got = PagedMdJoin(*base, paged.table(),
                                  {Count("n"), Sum(RCol("sale"), "t")}, theta,
                                  {}, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(stats.blocks_read, 0);
  EXPECT_EQ(stats.blocks_pruned, paged.table().num_blocks());
  // Outer semantics intact: every base row present with identity aggregates.
  EXPECT_EQ(got->num_rows(), base->num_rows());
  for (int64_t r = 0; r < got->num_rows(); ++r) {
    EXPECT_EQ(got->Get(r, got->num_columns() - 2).int64(), 0);
    EXPECT_TRUE(got->Get(r, got->num_columns() - 1).is_null());
  }
}

TEST(OutOfCoreTest, PruningRespectsMultiPassBudgetDegradation) {
  // A soft budget too small for all aggregate states forces multi-pass over
  // the base; every pass re-walks the file, pruning the same refuted blocks.
  Table sales = testutil::RandomSales(13, 400);
  Result<Table> sorted = SortTableBy(sales, {"month"});
  ASSERT_TRUE(sorted.ok());
  Result<Table> base = GroupByBase(*sorted, {"cust", "prod", "month"});
  ASSERT_TRUE(base.ok());
  const ExprPtr theta = And(And(Eq(RCol("cust"), BCol("cust")),
                                Eq(RCol("prod"), BCol("prod"))),
                            Eq(RCol("month"), Lit(1)));
  Result<Table> expect = MdJoin(*base, *sorted, {Count("n")}, theta);
  ASSERT_TRUE(expect.ok());

  PagedFixture paged(*sorted, 32, "multipass");
  QueryGuardOptions goptions;
  goptions.memory_budget_bytes = 2048;  // forces several passes
  QueryGuard guard(goptions);
  MdJoinOptions md;
  md.guard = &guard;
  MdJoinStats stats;
  Result<Table> got = PagedMdJoin(*base, paged.table(), {Count("n")}, theta, md,
                                  &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(stats.passes_over_detail, 1);
  EXPECT_TRUE(TablesBitIdentical(*expect, *got));
  EXPECT_EQ(guard.bytes_reserved(), 0);
}

// ---------------------------------------------------------------------------
// Spill routing: ALL and NULL equi keys

TEST(OutOfCoreTest, SpillRoutesAllAndNullKeys) {
  // Base rows: regular customers, a NULL key (matches nothing), and an ALL
  // key (matches every detail row). Detail rows: regular, NULL key (dropped),
  // ALL key (matches every base row whose other conjuncts hold).
  TableBuilder db(testutil::SalesSchema());
  auto add = [&db](Value cust, double sale) {
    db.AppendRowOrDie({cust, I(10), I(1), I(1), I(1997), S("NY"), F(sale)});
  };
  add(I(1), 100);
  add(I(2), 200);
  add(NUL(), 999);
  add(ALL(), 50);
  add(I(1), 10);
  Table detail = std::move(db).Finish();

  TableBuilder bb({{"cust", DataType::kInt64}});
  bb.AppendRowOrDie({I(1)});
  bb.AppendRowOrDie({I(2)});
  bb.AppendRowOrDie({NUL()});
  bb.AppendRowOrDie({ALL()});
  Table base = std::move(bb).Finish();

  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};
  const ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  Result<Table> expect = MdJoinReference(base, detail, aggs, theta);
  ASSERT_TRUE(expect.ok());
  Result<Table> in_memory = MdJoin(base, detail, aggs, theta);
  ASSERT_TRUE(in_memory.ok());
  EXPECT_TRUE(TablesBitIdentical(*expect, *in_memory));

  // In-memory spill and paged spill must both reproduce it exactly.
  MdJoinOptions md;
  md.spill_partitions = 3;
  MdJoinStats stats;
  Result<Table> spilled = SpillMdJoin(base, TableSource(detail), aggs, theta, md, &stats);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_TRUE(TablesBitIdentical(*expect, *spilled));
  EXPECT_GT(stats.spill_bytes_written, 0);

  PagedFixture paged(detail, 2, "allnull");
  md.enable_spill = true;
  Result<Table> paged_spilled =
      PagedMdJoin(base, paged.table(), aggs, theta, md);
  ASSERT_TRUE(paged_spilled.ok()) << paged_spilled.status().ToString();
  EXPECT_TRUE(TablesBitIdentical(*expect, *paged_spilled));

  // Spot-check the semantics this encodes: NULL-key base row matched nothing
  // (count 0); ALL-key base row matches every detail row whose key is not
  // NULL (4 of the 5 here) — θ-equality never matches NULL, ALL included.
  // The spill router reproduces that by broadcasting ALL-key base rows
  // against the full detail.
  EXPECT_EQ(spilled->Get(2, 1).int64(), 0);
  EXPECT_TRUE(spilled->Get(2, 2).is_null());
  EXPECT_EQ(spilled->Get(3, 1).int64(), 4);
}

TEST(OutOfCoreTest, SpillUnderGuardLeavesNoReservations) {
  Table sales = testutil::RandomSales(21, 600);
  Result<Table> base = GroupByBase(sales, {"cust"});
  ASSERT_TRUE(base.ok());
  QueryGuardOptions goptions;
  goptions.memory_hard_limit_bytes = 8 << 20;
  QueryGuard guard(goptions);
  MdJoinOptions md;
  md.guard = &guard;
  md.enable_spill = true;
  md.spill_partitions = 4;
  md.num_threads = 2;
  PagedFixture paged(sales, 64, "spillguard");
  MdJoinStats stats;
  Result<Table> got = PagedMdJoin(*base, paged.table(),
                                  {Count("n"), Sum(RCol("sale"), "t")},
                                  SelectiveTheta(100), md, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(guard.bytes_reserved(), 0);
  EXPECT_EQ(stats.spill_partitions, 4);
  Result<Table> expect =
      MdJoin(*base, sales, {Count("n"), Sum(RCol("sale"), "t")},
             SelectiveTheta(100));
  ASSERT_TRUE(expect.ok());
  EXPECT_TRUE(TablesBitIdentical(*expect, *got));
}

// A selection on R folded into θ spills only the rows it keeps: SpillMdJoin
// with it among θ's R-only conjuncts writes the bytes it writes over the
// pre-filtered R, and so does an executed `where` query against the same
// query over σR, on memory and paged storage. The query over σR keeps the
// `where`, which holds on each of its rows, so on paged storage both spill
// the same columns (those θ, the aggregates and the selection name).
TEST(OutOfCoreTest, SpillWritesOnlyTheRowsAFoldedSelectionKeeps) {
  const Table sales = testutil::RandomSales(23, 800);
  const ExprPtr feb = Eq(RCol("month"), Lit(int64_t{2}));
  Result<Table> filtered = Filter(sales, feb);
  ASSERT_TRUE(filtered.ok());
  ASSERT_GT(filtered->num_rows(), 0);
  ASSERT_LT(filtered->num_rows(), sales.num_rows());
  Result<Table> base = GroupByBase(*filtered, {"cust"});
  ASSERT_TRUE(base.ok());
  const std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "t")};
  const ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  MdJoinOptions md;
  md.spill_partitions = 4;
  MdJoinStats folded_stats, filtered_stats;
  Result<Table> folded =
      SpillMdJoin(*base, TableSource(sales), aggs, And(theta, feb), md, &folded_stats);
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  Result<Table> want =
      SpillMdJoin(*base, TableSource(*filtered), aggs, theta, md, &filtered_stats);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_TRUE(TablesBitIdentical(*want, *folded));
  EXPECT_GT(filtered_stats.spill_bytes_written, 0);
  EXPECT_EQ(folded_stats.spill_bytes_written, filtered_stats.spill_bytes_written);

  PagedFixture paged(sales, 64, "spillwhere");
  PagedFixture paged_feb(*filtered, 64, "spillfeb");
  const std::string select = "select cust, count(*) as n, sum(sale) as t from ";
  for (const char* storage : {"memory", "paged"}) {
    SCOPED_TRACE(storage);
    Catalog catalog;
    if (storage[0] == 'm') {
      ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
      ASSERT_TRUE(catalog.Register("Feb", &*filtered).ok());
    } else {
      ASSERT_TRUE(RegisterPagedTable(&catalog, "Sales", paged.table()).ok());
      ASSERT_TRUE(RegisterPagedTable(&catalog, "Feb", paged_feb.table()).ok());
    }
    md.enable_spill = true;
    std::vector<Table> results;
    std::vector<int64_t> spilled;
    for (const std::string& from :
         {std::string("Sales where month = 2"), std::string("Feb where month = 2")}) {
      Result<analyze::BoundQuery> bound =
          analyze::BindQueryString(select + from + " analyze by group(cust)", catalog);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      QueryProfile profile;
      Result<Table> got = ExplainAnalyze(bound->plan, catalog, md, &profile);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const OperatorProfile* join = nullptr;
      std::function<void(const OperatorProfile&)> find = [&](const OperatorProfile& n) {
        if (n.is_mdjoin) join = &n;
        for (const auto& child : n.children) find(*child);
      };
      find(*profile.root);
      ASSERT_NE(join, nullptr) << profile.ToText();
      EXPECT_EQ(join->route_reason, "spill") << profile.ToText();
      results.push_back(std::move(*got));
      spilled.push_back(join->spill_bytes_written);
    }
    EXPECT_TRUE(TablesBitIdentical(results[1], results[0]));
    EXPECT_GT(spilled[1], 0);
    EXPECT_EQ(spilled[0], spilled[1]);
  }
}

// ---------------------------------------------------------------------------
// PagedTable plumbing

TEST(OutOfCoreTest, ReadAllMaterializesAndChargesGuard) {
  Table sales = testutil::RandomSales(17, 100);
  PagedFixture paged(sales, 16, "readall");
  QueryGuardOptions goptions;
  goptions.memory_hard_limit_bytes = 1 << 30;
  QueryGuard guard(goptions);
  Result<Table> read = paged.table().ReadAll(&guard);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->num_rows(), sales.num_rows());
  EXPECT_GT(guard.bytes_high_water(), 0);
}

TEST(OutOfCoreTest, BlockCacheBytesChargedThroughCallbacks) {
  // The block cache charges decoded residency to its external pool; the
  // total drains when the cache dies, and a paged scan through it leaves no
  // guard bytes behind.
  Table sales = testutil::RandomSales(19, 256);
  Result<Table> base = GroupByBase(sales, {"cust"});
  ASSERT_TRUE(base.ok());
  PagedFixture paged(sales, 32, "charge");
  int64_t pool = 0;
  {
    BlockCache::Options coptions;
    coptions.capacity_bytes = 1 << 20;
    coptions.charge = [&pool](int64_t bytes) {
      pool += bytes;
      return true;
    };
    coptions.release = [&pool](int64_t bytes) { pool -= bytes; };
    BlockCache cache(coptions);
    QueryGuard guard(QueryGuardOptions{});
    MdJoinOptions md;
    md.guard = &guard;
    md.block_cache = &cache;
    Result<Table> got = PagedMdJoin(*base, paged.table(), {Count("n")},
                                    Eq(RCol("cust"), BCol("cust")), md);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(pool, cache.resident_bytes());
    EXPECT_GT(pool, 0);
    EXPECT_EQ(guard.bytes_reserved(), 0);
  }
  EXPECT_EQ(pool, 0);
}

TEST(OutOfCoreTest, SecondScanThroughCacheHitsResidentBlocks) {
  Table sales = testutil::RandomSales(23, 256);
  Result<Table> base = GroupByBase(sales, {"cust"});
  ASSERT_TRUE(base.ok());
  PagedFixture paged(sales, 32, "hits");
  // Explicit capacity: the hit assertions below must hold even when the CI
  // low-memory job starves default-sized caches via MDJOIN_BLOCK_CACHE_BYTES.
  BlockCache::Options coptions;
  coptions.capacity_bytes = 64 << 20;
  BlockCache cache(coptions);
  MdJoinOptions md;
  md.block_cache = &cache;
  const ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  MdJoinStats cold, warm;
  ASSERT_TRUE(PagedMdJoin(*base, paged.table(), {Count("n")}, theta, md, &cold).ok());
  ASSERT_TRUE(PagedMdJoin(*base, paged.table(), {Count("n")}, theta, md, &warm).ok());
  EXPECT_EQ(cold.block_cache_hits, 0);
  EXPECT_EQ(cold.blocks_faulted, cold.blocks_read);
  EXPECT_EQ(warm.block_cache_hits, warm.blocks_read);
  EXPECT_EQ(warm.blocks_faulted, 0);
}

// ---------------------------------------------------------------------------
// Catalog / executor integration

TEST(OutOfCoreTest, ExecutorRunsMdJoinAgainstPagedDetail) {
  Table sales = testutil::SmallSales();
  PagedFixture paged(sales, 4, "exec");
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("SalesMem", &sales).ok());
  ASSERT_TRUE(RegisterPagedTable(&catalog, "Sales", paged.table()).ok());
  EXPECT_NE(catalog.FindPaged("Sales"), nullptr);
  EXPECT_EQ(catalog.FindPaged("SalesMem"), nullptr);

  const char* sql =
      "select cust, count(*) as n, sum(X.sale) as total from Sales "
      "analyze by group(cust) such that X: X.cust = cust";
  Result<analyze::BoundQuery> bound = analyze::BindQueryString(sql, catalog);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  Result<Table> got = ExecutePlan(bound->plan, catalog);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  const char* mem_sql =
      "select cust, count(*) as n, sum(X.sale) as total from SalesMem "
      "analyze by group(cust) such that X: X.cust = cust";
  Result<analyze::BoundQuery> mem_bound = analyze::BindQueryString(mem_sql, catalog);
  ASSERT_TRUE(mem_bound.ok());
  Result<Table> expect = ExecutePlan(mem_bound->plan, catalog);
  ASSERT_TRUE(expect.ok());
  EXPECT_TRUE(TablesBitIdentical(*expect, *got));
}

TEST(OutOfCoreTest, ExplainAnalyzeReportsBlockCounters) {
  Table sales = testutil::RandomSales(29, 200);
  Result<Table> sorted = SortTableBy(sales, {"month"});
  ASSERT_TRUE(sorted.ok());
  PagedFixture paged(*sorted, 16, "profile");
  Catalog catalog;
  ASSERT_TRUE(RegisterPagedTable(&catalog, "Sales", paged.table()).ok());
  const char* sql =
      "select cust, count(X.*) as n from Sales analyze by group(cust) "
      "such that X: X.cust = cust and X.month = 2";
  Result<analyze::BoundQuery> bound = analyze::BindQueryString(sql, catalog);
  ASSERT_TRUE(bound.ok());
  QueryProfile profile;
  Result<Table> got = ExplainAnalyze(bound->plan, catalog, {}, &profile);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // The MD-join node carries the out-of-core counters.
  const OperatorProfile* md = nullptr;
  std::function<void(const OperatorProfile&)> find = [&](const OperatorProfile& n) {
    if (n.is_mdjoin) md = &n;
    for (const auto& child : n.children) find(*child);
  };
  ASSERT_NE(profile.root, nullptr);
  find(*profile.root);
  ASSERT_NE(md, nullptr);
  EXPECT_GT(md->blocks_read, 0);
  EXPECT_GT(md->blocks_pruned, 0);
  const std::string text = profile.ToText();
  EXPECT_NE(text.find("blocks_read="), std::string::npos) << text;
}

TEST(OutOfCoreTest, PagedPivotRunsGeneralizedInParallelFromBlocks) {
  // The Example 2.2 tri-state pivot fuses into one generalized MD-join; over
  // paged Sales it must stream the detail's blocks on two workers instead of
  // materializing the relation through a TableRef.
  Table sales = testutil::RandomSales(37, 2000, /*num_cust=*/20);
  PagedFixture paged(sales, 64, "pivot");
  Catalog catalog;
  ASSERT_TRUE(RegisterPagedTable(&catalog, "Sales", paged.table()).ok());
  Catalog in_memory;
  ASSERT_TRUE(in_memory.Register("Sales", &sales).ok());
  const char* sql =
      "select cust, avg(X.sale) as avg_ny, avg(Y.sale) as avg_nj, avg(Z.sale) as avg_ct "
      "from Sales analyze by group(cust) "
      "such that X: X.cust = cust and X.state = 'NY', "
      "Y: Y.cust = cust and Y.state = 'NJ', "
      "Z: Z.cust = cust and Z.state = 'CT'";
  Result<analyze::BoundQuery> bound = analyze::BindQueryString(sql, catalog);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  Result<PlanPtr> plan = OptimizePlan(bound->plan, catalog);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  MdJoinOptions md;
  md.num_threads = 2;
  QueryProfile profile;
  Result<Table> got = ExplainAnalyze(*plan, catalog, md, &profile);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const OperatorProfile* gmd = nullptr;
  std::function<void(const OperatorProfile&)> find = [&](const OperatorProfile& n) {
    if (n.label.rfind("GeneralizedMdJoin", 0) == 0) gmd = &n;
    for (const auto& child : n.children) find(*child);
  };
  ASSERT_NE(profile.root, nullptr);
  find(*profile.root);
  ASSERT_NE(gmd, nullptr) << profile.ToText();
  EXPECT_EQ(gmd->num_threads, 2) << profile.ToText();
  EXPECT_GT(gmd->morsels, 0);
  EXPECT_GT(gmd->blocks_read, 0);
  // Only the base child executed: the detail never went through ReadAll.
  EXPECT_EQ(gmd->children.size(), 1u) << profile.ToText();
  EXPECT_NE(profile.ToText().find("threads=2"), std::string::npos);

  Result<Table> expect = ExecutePlan(*plan, in_memory);
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();
  EXPECT_TRUE(TablesBitIdentical(*expect, *got));
}

TEST(OutOfCoreTest, CatalogRejectsDuplicateNamesAcrossKinds) {
  Table sales = testutil::SmallSales();
  PagedFixture paged(sales, 4, "dupe");
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("T", &sales).ok());
  EXPECT_FALSE(RegisterPagedTable(&catalog, "T", paged.table()).ok());
  ASSERT_TRUE(RegisterPagedTable(&catalog, "P", paged.table()).ok());
  EXPECT_FALSE(catalog.Register("P", &sales).ok());
  Result<int64_t> rows = catalog.LookupNumRows("P");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, sales.num_rows());
}

}  // namespace
}  // namespace mdjoin
