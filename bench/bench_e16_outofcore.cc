/// E16 — out-of-core MD-join: paged block storage against the in-memory
/// operator. The detail relation lives in a paged columnar block file and is
/// streamed through a fixed-budget block cache sized to ~1/10 of the decoded
/// detail bytes, so the working set provably cannot fit — the experiment the
/// storage layer exists for. Arms:
///
///   BM_InMemoryMdJoin   — the resident baseline (same data, same θ): what
///                         the paged arms give up to stay within budget.
///   BM_PagedColdCache   — fresh 10%-budget cache every iteration: every
///                         block faults, decoded residency stays under the
///                         cache budget (resident_peak / cache_budget ≤ 1 —
///                         the bounded-RSS acceptance arm).
///   BM_PagedWarmCache   — cache sized to hold the hot half; steady-state
///                         iterations serve the resident blocks without
///                         faulting (hit_frac published).
///   BM_ZoneMapPruning   — detail sorted on month, θ adds month = 2: zone
///                         maps refute ≥ half the blocks before decode
///                         (pruned_frac published; the A/B test asserts the
///                         same bound).
///   BM_PagedSpill       — partitioned spill over the paged stream: the
///                         constant-memory escape, spill_bytes published.
///
/// The paged arms decode only the chunks of the columns θ and the
/// aggregates name (cust and sale, 2 of 7; columns_read).
///
/// Counters per arm: detail_decoded_bytes, cache_budget_bytes,
/// resident_peak, blocks_read/faulted/pruned, columns_read, hit_frac,
/// pruned_frac, spill_bytes — all folded into BENCH_e16.json via --json_out.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cube/base_tables.h"
#include "storage/block_cache.h"
#include "storage/block_format.h"
#include "storage/out_of_core.h"
#include "storage/paged_table.h"
#include "storage/spill.h"
#include "table/table_ops.h"

namespace mdjoin {
namespace {

using bench::CachedSales;

constexpr int64_t kRows = 200000;
constexpr int64_t kCustomers = 100;
constexpr int64_t kBlockRows = 4096;

/// One block file per variant, written once per process and removed at exit.
struct PagedData {
  std::string path;
  std::unique_ptr<PagedTable> table;
  int64_t decoded_bytes = 0;
  PagedData() = default;
  PagedData(PagedData&&) = default;
  ~PagedData() {
    table.reset();
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

PagedData MakePaged(const Table& t, const std::string& tag) {
  PagedData d;
  d.path = std::filesystem::temp_directory_path().string() + "/mdjoin_bench_e16_" +
           tag + "_" + std::to_string(static_cast<long>(::getpid())) + ".mdjb";
  BlockFileOptions options;
  options.block_size_rows = kBlockRows;
  Status s = WriteBlockFile(t, d.path, options);
  MDJ_CHECK(s.ok()) << s.ToString();
  Result<std::unique_ptr<PagedTable>> opened = PagedTable::Open(d.path);
  MDJ_CHECK(opened.ok()) << opened.status().ToString();
  d.table = std::move(*opened);
  for (int b = 0; b < d.table->num_blocks(); ++b) {
    d.decoded_bytes += d.table->ApproxBlockBytes(b);
  }
  return d;
}

const Table& Sales() { return CachedSales(kRows, kCustomers); }

// Held by value in function-local statics, whose destructors run at exit
// and remove the block files.
PagedData& PagedSales() {
  static PagedData d = MakePaged(Sales(), "sales");
  return d;
}

/// The zone-map arm's detail: same rows clustered on month, so each block
/// covers a narrow month range and an equality predicate refutes most zones.
PagedData& PagedSalesByMonth() {
  static PagedData d = [] {
    Result<Table> sorted = SortTableBy(Sales(), {"month"});
    MDJ_CHECK(sorted.ok()) << sorted.status().ToString();
    return MakePaged(*sorted, "bymonth");
  }();
  return d;
}

const Table& Base() {
  static Table* base = [] {
    Result<Table> b = GroupByBase(Sales(), {"cust"});
    MDJ_CHECK(b.ok()) << b.status().ToString();
    return new Table(std::move(*b));
  }();
  return *base;
}

std::vector<AggSpec> Aggs() {
  return {Count("n"), Sum(dsl::RCol("sale"), "total")};
}

ExprPtr CustTheta() { return dsl::Eq(dsl::RCol("cust"), dsl::BCol("cust")); }

void BM_InMemoryMdJoin(::benchmark::State& state) {
  const Table& sales = Sales();
  const Table& base = Base();
  const ExprPtr theta = CustTheta();
  for (auto _ : state) {
    Result<Table> out = MdJoin(base, sales, Aggs(), theta);
    MDJ_CHECK(out.ok()) << out.status().ToString();
    ::benchmark::DoNotOptimize(out->num_rows());
  }
  state.counters["detail_rows"] = static_cast<double>(kRows);
  state.counters["detail_decoded_bytes"] =
      static_cast<double>(PagedSales().decoded_bytes);
}
BENCHMARK(BM_InMemoryMdJoin)->MinTime(1.0)->UseRealTime();

void BM_PagedColdCache(::benchmark::State& state) {
  PagedData& paged = PagedSales();
  const Table& base = Base();
  const ExprPtr theta = CustTheta();
  // Detail decoded bytes ≥ 10× the cache budget: the whole point.
  const int64_t budget = paged.decoded_bytes / 10;
  int64_t resident_peak = 0;
  MdJoinStats stats;
  for (auto _ : state) {
    BlockCache::Options copt;
    copt.capacity_bytes = budget;
    BlockCache cache(copt);
    MdJoinOptions md;
    md.block_cache = &cache;
    Result<Table> out = PagedMdJoin(base, *paged.table, Aggs(), theta, md, &stats);
    MDJ_CHECK(out.ok()) << out.status().ToString();
    ::benchmark::DoNotOptimize(out->num_rows());
    resident_peak = std::max(resident_peak, cache.stats().resident_bytes);
  }
  state.counters["detail_rows"] = static_cast<double>(kRows);
  state.counters["detail_decoded_bytes"] = static_cast<double>(paged.decoded_bytes);
  state.counters["cache_budget_bytes"] = static_cast<double>(budget);
  state.counters["resident_peak"] = static_cast<double>(resident_peak);
  state.counters["blocks_read"] = static_cast<double>(stats.blocks_read);
  state.counters["blocks_faulted"] = static_cast<double>(stats.blocks_faulted);
  state.counters["columns_read"] = static_cast<double>(stats.columns.size());
}
BENCHMARK(BM_PagedColdCache)->MinTime(1.0)->UseRealTime();

void BM_PagedWarmCache(::benchmark::State& state) {
  PagedData& paged = PagedSales();
  const Table& base = Base();
  const ExprPtr theta = CustTheta();
  BlockCache::Options copt;
  copt.capacity_bytes = paged.decoded_bytes * 2;
  BlockCache cache(copt);
  MdJoinOptions md;
  md.block_cache = &cache;
  MdJoinStats stats;
  int64_t reads = 0, hits = 0;
  for (auto _ : state) {
    Result<Table> out = PagedMdJoin(base, *paged.table, Aggs(), theta, md, &stats);
    MDJ_CHECK(out.ok()) << out.status().ToString();
    ::benchmark::DoNotOptimize(out->num_rows());
    reads += stats.blocks_read;
    hits += stats.block_cache_hits;
  }
  state.counters["detail_rows"] = static_cast<double>(kRows);
  state.counters["detail_decoded_bytes"] = static_cast<double>(paged.decoded_bytes);
  state.counters["hit_frac"] =
      reads > 0 ? static_cast<double>(hits) / static_cast<double>(reads) : 0;
  state.counters["columns_read"] = static_cast<double>(stats.columns.size());
}
BENCHMARK(BM_PagedWarmCache)->MinTime(1.0)->UseRealTime();

void BM_ZoneMapPruning(::benchmark::State& state) {
  PagedData& paged = PagedSalesByMonth();
  const Table& base = Base();
  const ExprPtr theta =
      dsl::And(CustTheta(), dsl::Eq(dsl::RCol("month"), dsl::Lit(int64_t{2})));
  MdJoinStats stats;
  for (auto _ : state) {
    Result<Table> out = PagedMdJoin(base, *paged.table, Aggs(), theta, {}, &stats);
    MDJ_CHECK(out.ok()) << out.status().ToString();
    ::benchmark::DoNotOptimize(out->num_rows());
  }
  const double total = static_cast<double>(stats.blocks_read + stats.blocks_pruned);
  state.counters["detail_rows"] = static_cast<double>(kRows);
  state.counters["blocks_read"] = static_cast<double>(stats.blocks_read);
  state.counters["blocks_pruned"] = static_cast<double>(stats.blocks_pruned);
  state.counters["pruned_frac"] =
      total > 0 ? static_cast<double>(stats.blocks_pruned) / total : 0;
  state.counters["columns_read"] = static_cast<double>(stats.columns.size());
}
BENCHMARK(BM_ZoneMapPruning)->MinTime(1.0)->UseRealTime();

void BM_PagedSpill(::benchmark::State& state) {
  PagedData& paged = PagedSales();
  const Table& base = Base();
  const ExprPtr theta = CustTheta();
  MdJoinStats stats;
  for (auto _ : state) {
    MdJoinOptions md;
    md.enable_spill = true;
    md.spill_partitions = 8;
    Result<Table> out = PagedMdJoin(base, *paged.table, Aggs(), theta, md, &stats);
    MDJ_CHECK(out.ok()) << out.status().ToString();
    ::benchmark::DoNotOptimize(out->num_rows());
  }
  state.counters["detail_rows"] = static_cast<double>(kRows);
  state.counters["spill_partitions"] = static_cast<double>(stats.spill_partitions);
  state.counters["spill_bytes"] = static_cast<double>(stats.spill_bytes_written);
  state.counters["columns_read"] = static_cast<double>(stats.columns.size());
}
BENCHMARK(BM_PagedSpill)->MinTime(1.0)->UseRealTime();

}  // namespace
}  // namespace mdjoin

int main(int argc, char** argv) {
  return mdjoin::bench::RunBenchMain(argc, argv, "e16");
}
