/// E1 — Figure 1(a): the CUBE BY query of Example 2.1 as one MD-join.
/// Prints the figure's output-table shape on the running example, then
/// measures cube computation via MD-join across data sizes and dimension
/// counts. Every cube arm builds B with its generator, which also hands out
/// the group-id map of B over Sales; the last argument pairs the arms:
/// 1 passes the map, the route a CUBE BY text takes, and 0 leaves it out, so
/// the join walks its multi-granularity index (2^d ALL-mask buckets).
/// Counters report the route, the index's buckets and per-tuple candidate
/// work. BM_CubeBase times the generator alone, over Sales with and without
/// its typed mirror and over paged blocks.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "core/detail_scan.h"
#include "core/mdjoin.h"
#include "cube/base_tables.h"
#include "ra/filter.h"
#include "storage/block_format.h"
#include "storage/out_of_core.h"
#include "storage/paged_table.h"
#include "table/table_ops.h"

namespace mdjoin {
namespace {

using bench::CachedSales;
using bench::DimsTheta;

void PrintFigure1a() {
  // The paper's Figure 1(a) layout on a small instance: cube over
  // (prod, month, state) with Sum(sale), ALL rows included.
  const Table& sales = CachedSales(200, 8, 4, 4);
  std::vector<std::string> dims = {"prod", "month", "state"};
  Table base = *CubeByBase(sales, dims);
  Table cube = *MdJoin(base, sales, {Sum(dsl::RCol("sale"), "sum_sale")},
                       DimsTheta(dims));
  std::printf("E1 / Figure 1(a): CUBE BY (prod, month, state), Sum(sale) — %lld rows\n",
              static_cast<long long>(cube.num_rows()));
  // CubeByBase emits finest granularity first and the grand total last, the
  // reading order of the paper's figure; show the head and the final row.
  std::printf("%s", cube.ToString(8).c_str());
  Table last(cube.schema());
  last.AppendRowFrom(cube, cube.num_rows() - 1);
  std::printf("last row (grand total):\n%s\n", last.ToString().c_str());
}

/// The map arm's relative sets: the generator's map when `use_map`, else
/// none (the join walks its index).
const GroupIdMap* MapArm(const GroupIdMap& groups, int64_t use_map) {
  return use_map != 0 ? &groups : nullptr;
}

void TagRoute(benchmark::State& state, const MdJoinStats& stats) {
  state.counters["group_ids"] = stats.route == RelativeSetRoute::kGroupIds ? 1.0 : 0.0;
  state.counters["probe_memo_hits"] = static_cast<double>(stats.index_probe_memo_hits);
}

void BM_CubeMdJoin(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int ndims = static_cast<int>(state.range(1));
  const Table& sales = CachedSales(rows, 100, 50, 12);
  std::vector<std::string> all_dims = {"prod", "month", "state"};
  std::vector<std::string> dims(all_dims.begin(), all_dims.begin() + ndims);
  GroupIdMap groups;
  Table base = *CubeByBase(sales, dims, &groups);
  ExprPtr theta = DimsTheta(dims);
  std::vector<AggSpec> aggs = {Sum(dsl::RCol("sale"), "total"), Count("n")};
  MdJoinStats stats;
  for (auto _ : state) {
    Table cube = *MdJoin(base, sales, aggs, theta, {}, &stats,
                         MapArm(groups, state.range(2)));
    benchmark::DoNotOptimize(cube.num_rows());
  }
  state.counters["base_rows"] = static_cast<double>(base.num_rows());
  state.counters["index_masks"] = static_cast<double>(stats.index_masks);
  state.counters["candidate_pairs"] = static_cast<double>(stats.candidate_pairs);
  state.counters["detail_rows"] = static_cast<double>(rows);
  TagRoute(state, stats);
}
BENCHMARK(BM_CubeMdJoin)
    ->ArgsProduct({{10000, 50000, 200000}, {1, 2, 3}, {1, 0}})
    ->Unit(benchmark::kMillisecond);

void BM_CubeMdJoinGuarded(benchmark::State& state) {
  // BM_CubeMdJoin with a QueryGuard attached (no limits set, default 4096-row
  // check stride): the delta against the unguarded rows is the whole cost of
  // the guardrail machinery on the hot scan — the budget is < 5%.
  const int64_t rows = state.range(0);
  const int ndims = static_cast<int>(state.range(1));
  const Table& sales = CachedSales(rows, 100, 50, 12);
  std::vector<std::string> all_dims = {"prod", "month", "state"};
  std::vector<std::string> dims(all_dims.begin(), all_dims.begin() + ndims);
  GroupIdMap groups;
  Table base = *CubeByBase(sales, dims, &groups);
  ExprPtr theta = DimsTheta(dims);
  std::vector<AggSpec> aggs = {Sum(dsl::RCol("sale"), "total"), Count("n")};
  MdJoinStats stats;
  for (auto _ : state) {
    QueryGuard guard;
    MdJoinOptions options;
    options.guard = &guard;
    Table cube =
        *MdJoin(base, sales, aggs, theta, options, &stats, MapArm(groups, state.range(2)));
    benchmark::DoNotOptimize(cube.num_rows());
  }
  state.counters["base_rows"] = static_cast<double>(base.num_rows());
  TagRoute(state, stats);
}
BENCHMARK(BM_CubeMdJoinGuarded)
    ->ArgsProduct({{10000, 50000, 200000}, {1, 2, 3}, {1, 0}})
    ->Unit(benchmark::kMillisecond);

void BM_CubeBlockScan(benchmark::State& state) {
  // The 2-D cube with five aggregates: block-at-a-time scan, flat aggregate
  // state, default options.
  const int64_t rows = state.range(0);
  const Table& sales = CachedSales(rows, 100, 50, 12);
  std::vector<std::string> dims = {"prod", "month"};
  GroupIdMap groups;
  Table base = *CubeByBase(sales, dims, &groups);
  ExprPtr theta = DimsTheta(dims);
  std::vector<AggSpec> aggs = {Sum(dsl::RCol("sale"), "total"), Count("n"),
                               Min(dsl::RCol("sale"), "lo"),
                               Max(dsl::RCol("sale"), "hi"),
                               Avg(dsl::RCol("sale"), "mean")};
  MdJoinStats stats;
  for (auto _ : state) {
    Table cube = *MdJoin(base, sales, aggs, theta, {}, &stats,
                         MapArm(groups, state.range(1)));
    benchmark::DoNotOptimize(cube.num_rows());
  }
  state.counters["base_rows"] = static_cast<double>(base.num_rows());
  state.counters["blocks"] = static_cast<double>(stats.blocks);
  state.counters["detail_rows"] = static_cast<double>(rows);
  TagRoute(state, stats);
}
BENCHMARK(BM_CubeBlockScan)
    ->ArgsProduct({{200000, 1000000}, {1, 0}})
    ->Unit(benchmark::kMillisecond);

/// `t` without its typed mirror: the same columns added one by one through
/// AddColumn, which drops the mirror, so an MD-join over it takes the
/// Value-cell path.
Table WithoutMirror(const Table& t) {
  Table out;
  for (int c = 0; c < t.num_columns(); ++c) {
    MDJ_CHECK(out.AddColumn(t.schema().field(c), t.column(c)).ok());
  }
  return out;
}

/// A block file of `t`, written on first use and removed at exit.
class BlockCopy {
 public:
  explicit BlockCopy(const Table& t)
      : path_(std::filesystem::temp_directory_path().string() + "/mdjoin_bench_e1_" +
              std::to_string(static_cast<long>(::getpid())) + "_" +
              std::to_string(t.num_rows()) + ".mdjb") {
    MDJ_CHECK(WriteBlockFile(t, path_).ok());
    Result<std::unique_ptr<PagedTable>> opened = PagedTable::Open(path_);
    MDJ_CHECK(opened.ok()) << opened.status().ToString();
    table_ = std::move(*opened);
  }
  BlockCopy(const BlockCopy&) = delete;
  BlockCopy& operator=(const BlockCopy&) = delete;
  ~BlockCopy() {
    table_.reset();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  const PagedTable& table() const { return *table_; }

 private:
  std::string path_;
  std::unique_ptr<PagedTable> table_;
};

/// The cube's base-values generator alone: CubeByBase over (prod, month,
/// state)[:d] with its group-id map, as a CUBE BY text runs it, reading
/// Sales three ways (arg2): 0 the table with its typed mirror (payloads and
/// dictionary codes), 1 the same cells without the mirror, 2 its default
/// 4096-row blocks, decoded fresh each pass (no cache) and streamed through
/// CuboidsFromFinest.
void BM_CubeBase(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int ndims = static_cast<int>(state.range(1));
  const int source = static_cast<int>(state.range(2));
  const Table& sales = CachedSales(rows, 100, 50, 12);
  static std::map<int64_t, Table>* plain = new std::map<int64_t, Table>();
  static std::map<int64_t, std::unique_ptr<BlockCopy>> blocks;
  if (source == 1 && !plain->contains(rows)) plain->emplace(rows, WithoutMirror(sales));
  if (source == 2 && !blocks.contains(rows)) {
    blocks.emplace(rows, std::make_unique<BlockCopy>(sales));
  }
  const std::vector<std::string> all_dims = {"prod", "month", "state"};
  const std::vector<std::string> dims(all_dims.begin(), all_dims.begin() + ndims);
  const std::vector<CuboidMask> masks = CubeMasks(*CubeLattice::Make(dims));
  GroupIdMap groups;
  MdJoinStats reads;
  int64_t base_rows = 0;
  for (auto _ : state) {
    Result<Table> base =
        source == 0   ? CubeByBase(sales, dims, &groups)
        : source == 1 ? CubeByBase(plain->at(rows), dims, &groups)
                      : CuboidsFromFinest(
                            PagedSource(blocks.at(rows)->table(), nullptr, {},
                                        {dims.begin(), dims.end()}),
                            dims, masks, {}, nullptr, &reads, &groups);
    MDJ_CHECK(base.ok()) << base.status().ToString();
    base_rows = base->num_rows();
    benchmark::DoNotOptimize(groups.row_group.data());
  }
  state.counters["source"] = source;
  state.counters["base_rows"] = static_cast<double>(base_rows);
  state.counters["finest_groups"] =
      static_cast<double>(groups.base_rows.size()) / static_cast<double>(masks.size());
  state.counters["detail_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_CubeBase)
    ->ArgsProduct({{50000, 200000}, {1, 2, 3}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

/// The raw-speed ladder on the 2-D cube. Every arm runs its kernels at the
/// machine's SIMD level; arg1 picks the arm:
///   0 value_path — the scan over a copy of Sales without its typed mirror:
///     Value-cell θ tests and aggregate updates, no dictionary codes.
///   2 auto_full  — Sales with its mirror; the headline arm. The
///     acceptance bar is ≥1.5× over arm 0 at 1M rows.
///   3 auto_pred  — auto_full plus detail-only predicates (a
///     dictionary-coded string test and a sale range), so the compare
///     kernels and the dense-block path fire; the kernel_invocations and
///     dense_blocks counters make that visible.
///   4 value_pred — arm 3's θ over arm 0's mirror-less copy: the paired
///     baseline for the predicated A/B (same query, Value-cell string
///     compares and updates instead of code compares + kernels).
/// There is no arm 1 (a scalar-level pin): the level comes from the machine,
/// and a -DMDJOIN_SIMD=OFF build runs every arm at the scalar level. arg2 is
/// the map arm: 1 passes the generator's group-id map, 0 walks the index.
void BM_CubeRawSpeed(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int arm = static_cast<int>(state.range(1));
  const Table& cached = CachedSales(rows, 100, 50, 12);
  const Table plain = (arm == 0 || arm == 4) ? WithoutMirror(cached) : Table();
  const Table& sales = (arm == 0 || arm == 4) ? plain : cached;
  std::vector<std::string> dims = {"prod", "month"};
  GroupIdMap groups;
  Table base = *CubeByBase(sales, dims, &groups);
  ExprPtr theta = DimsTheta(dims);
  if (arm == 3 || arm == 4) {
    theta = dsl::And(std::move(theta),
                     dsl::Ne(dsl::RCol("state"), dsl::Lit("CA")),
                     dsl::Gt(dsl::RCol("sale"), dsl::Lit(25.0)));
  }
  std::vector<AggSpec> aggs = {Sum(dsl::RCol("sale"), "total"), Count("n"),
                               Min(dsl::RCol("sale"), "lo"),
                               Max(dsl::RCol("sale"), "hi"),
                               Avg(dsl::RCol("sale"), "mean")};
  MdJoinStats stats;
  for (auto _ : state) {
    Table cube = *MdJoin(base, sales, aggs, theta, {}, &stats,
                         MapArm(groups, state.range(2)));
    benchmark::DoNotOptimize(cube.num_rows());
  }
  state.counters["arm"] = arm;
  state.counters["base_rows"] = static_cast<double>(base.num_rows());
  state.counters["detail_rows"] = static_cast<double>(rows);
  state.counters["dense_blocks"] = static_cast<double>(stats.dense_blocks);
  state.counters["kernel_invocations"] =
      static_cast<double>(stats.kernel_invocations);
  TagRoute(state, stats);
  bench::TagConfig(state, sales);
}
BENCHMARK(BM_CubeRawSpeed)
    ->ArgsProduct({{200000, 1000000}, {0, 2, 3, 4}, {1, 0}})
    ->Unit(benchmark::kMillisecond);

void BM_GroupingSetsViaSameOperator(benchmark::State& state) {
  // The decoupling payoff: switching the group definition (cube → unpivot
  // marginals, the [GFC98] use case) changes only the base table.
  const int64_t rows = state.range(0);
  const Table& sales = CachedSales(rows, 100, 50, 12);
  std::vector<std::string> dims = {"prod", "month", "state"};
  GroupIdMap groups;
  Table base = *UnpivotBase(sales, dims, &groups);
  ExprPtr theta = DimsTheta(dims);
  std::vector<AggSpec> aggs = {Sum(dsl::RCol("sale"), "total"), Count("n")};
  MdJoinStats stats;
  for (auto _ : state) {
    Table marginals = *MdJoin(base, sales, aggs, theta, {}, &stats,
                              MapArm(groups, state.range(1)));
    benchmark::DoNotOptimize(marginals.num_rows());
  }
  state.counters["base_rows"] = static_cast<double>(base.num_rows());
  TagRoute(state, stats);
}
BENCHMARK(BM_GroupingSetsViaSameOperator)
    ->ArgsProduct({{10000, 50000, 200000}, {1, 0}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mdjoin

int main(int argc, char** argv) {
  mdjoin::PrintFigure1a();
  return mdjoin::bench::RunBenchMain(argc, argv, "e1");
}
