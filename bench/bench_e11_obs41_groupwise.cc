/// E11 — Observation 4.1: range/value selections on the base-values table
/// transfer through θ's equi conjuncts to the detail relation, enabling
/// group-wise (partition-local) processing — the Ross–Srivastava partitioned
/// cube expressed algebraically (§4.4's final derivation). Compares:
///   (a) the direct MD-join over the full cube base (every tuple probed
///       against every granularity bucket);
///   (b) PartitionedCube: per-value fragments of B against matching
///       fragments of R, plus one full scan for the Di=ALL slice.
/// Also measures the plain Observation 4.1 rewrite on a single range query,
/// over Sales sorted on the range's column: the transferred selection joins
/// θ, and the in-memory source skips the morsels whose zone maps refute it.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/detail_scan.h"
#include "core/mdjoin.h"
#include "cube/base_tables.h"
#include "cube/partitioned_cube.h"
#include "ra/filter.h"
#include "storage/out_of_core.h"
#include "table/table_ops.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using bench::CachedSales;
using bench::DimsTheta;

void BM_DirectCube(benchmark::State& state) {
  const Table& sales = CachedSales(state.range(0), 200, 50, 12);
  std::vector<std::string> dims = {"prod", "month"};
  Table base = *CubeByBase(sales, dims);
  ExprPtr theta = DimsTheta(dims);
  std::vector<AggSpec> aggs = {Sum(RCol("sale"), "total")};
  MdJoinStats stats;
  for (auto _ : state) {
    Table cube = *MdJoin(base, sales, aggs, theta, {}, &stats);
    benchmark::DoNotOptimize(cube.num_rows());
  }
  state.counters["detail_rows_scanned"] = static_cast<double>(stats.detail_rows_scanned);
}
BENCHMARK(BM_DirectCube)->Arg(20000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_PartitionedCubeObs41(benchmark::State& state) {
  const Table& sales = CachedSales(state.range(0), 200, 50, 12);
  std::vector<std::string> dims = {"prod", "month"};
  std::vector<AggSpec> aggs = {Sum(RCol("sale"), "total")};
  PartitionedCubeStats stats;
  for (auto _ : state) {
    Table cube = *PartitionedCube(sales, dims, aggs, /*partition_dim=*/"month", &stats);
    benchmark::DoNotOptimize(cube.num_rows());
  }
  state.counters["partitions"] = static_cast<double>(stats.partitions);
  state.counters["full_scans"] = static_cast<double>(stats.full_detail_scans);
  state.counters["detail_rows_scanned"] = static_cast<double>(stats.detail_rows_scanned);
}
BENCHMARK(BM_PartitionedCubeObs41)
    ->Arg(20000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// The 100 k-row, 2 000-customer Sales sorted on cust, with the typed
/// mirror (and so the per-morsel zone maps) SortTableBy builds over the
/// sorted cells.
const Table& CustSortedSales() {
  static const Table* sorted =
      new Table(*SortTableBy(CachedSales(100000, 2000), {"cust"}));
  return *sorted;
}

void RunRangeCase(benchmark::State& state, bool transfer) {
  // Per-customer totals for cust <= K over Sales sorted on cust. With the
  // transfer (Observation 4.1), θ carries R.cust <= K and the source skips
  // the morsels it refutes; without it, θ is the equi conjunct alone and
  // every morsel is read. Planning the source's morsels and the join are
  // both timed, as the executor runs them over a catalog table.
  const Table& sales = CustSortedSales();
  const int64_t hi = state.range(0);
  Table base = *Filter(*GroupByBase(sales, {"cust"}), Le(Col("cust"), Lit(hi)));
  ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  if (transfer) theta = And(theta, Le(RCol("cust"), Lit(hi)));
  const std::vector<MdJoinComponent> components = {{{Sum(RCol("sale"), "total")}, theta}};
  MdJoinStats stats;
  for (auto _ : state) {
    const TableSource source(
        sales, PlanMorselPruning(sales.schema(), sales.accel()->zones, components));
    Table out = *SourceMdJoin(base, source, components, {}, &stats);
    benchmark::DoNotOptimize(out.num_rows());
  }
  state.counters["detail_rows_scanned"] = static_cast<double>(stats.detail_rows_scanned);
  state.counters["blocks_pruned"] = static_cast<double>(stats.blocks_pruned);
}

void BM_RangeWithTransfer(benchmark::State& state) { RunRangeCase(state, true); }
void BM_RangeWithoutTransfer(benchmark::State& state) { RunRangeCase(state, false); }

BENCHMARK(BM_RangeWithTransfer)
    ->Arg(100)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RangeWithoutTransfer)
    ->Arg(100)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mdjoin

int main(int argc, char** argv) {
  return mdjoin::bench::RunBenchMain(argc, argv, "e11");
}
