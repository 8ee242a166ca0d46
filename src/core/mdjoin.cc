#include "core/mdjoin.h"

#include "core/detail_scan.h"

namespace mdjoin {

const char* RelativeSetRouteName(RelativeSetRoute route) {
  switch (route) {
    case RelativeSetRoute::kNestedLoop:
      return "nested_loop";
    case RelativeSetRoute::kIndex:
      return "index";
    case RelativeSetRoute::kGroupIds:
      return "group_ids";
  }
  return "unknown";
}

std::string MdJoinStats::ToString() const {
  std::string out;
  out += "base_rows=" + std::to_string(base_rows);
  out += " detail_scanned=" + std::to_string(detail_rows_scanned);
  out += " detail_qualified=" + std::to_string(detail_rows_qualified);
  out += " candidate_pairs=" + std::to_string(candidate_pairs);
  out += " matched_pairs=" + std::to_string(matched_pairs);
  out += " agg_updates=" + std::to_string(agg_updates);
  out += " passes=" + std::to_string(passes_over_detail);
  out += " index_masks=" + std::to_string(index_masks);
  out += std::string(" route=") + RelativeSetRouteName(route);
  if (route_reason != nullptr) out += std::string("(") + route_reason + ")";
  if (read != nullptr) out += std::string(" read=") + read;
  if (folded != nullptr) out += " folded=" + folded->ToString();
  for (size_t i = 0; i < columns.size(); ++i) out += (i == 0 ? " cols=" : ",") + columns[i];
  if (blocks > 0) {
    out += " blocks=" + std::to_string(blocks);
    out += " kernel_invocations=" + std::to_string(kernel_invocations);
    out += " kernel_fallback_rows=" + std::to_string(kernel_fallback_rows);
    out += " dense_blocks=" + std::to_string(dense_blocks);
  }
  if (index_probe_lookups > 0) {
    out += " probe_lookups=" + std::to_string(index_probe_lookups);
    out += " probe_memo_hits=" + std::to_string(index_probe_memo_hits);
  }
  if (threads > 1) {
    out += " threads=" + std::to_string(threads);
    out += " morsels=" + std::to_string(morsels);
    out += " steal_waits=" + std::to_string(steal_waits);
  }
  if (memory_degraded) {
    out += " degraded_rows_per_pass=" + std::to_string(base_rows_per_pass_effective);
  }
  if (blocks_read > 0 || blocks_pruned > 0) {
    out += " blocks_read=" + std::to_string(blocks_read);
    out += " blocks_pruned=" + std::to_string(blocks_pruned);
    out += " blocks_faulted=" + std::to_string(blocks_faulted);
    out += " block_cache_hits=" + std::to_string(block_cache_hits);
  }
  if (spill_partitions > 0) {
    out += " spill_partitions=" + std::to_string(spill_partitions);
    out += " spill_bytes=" + std::to_string(spill_bytes_written);
  }
  return out;
}

void MdJoinStats::Accumulate(const MdJoinStats& other) {
  detail_rows_scanned += other.detail_rows_scanned;
  detail_rows_qualified += other.detail_rows_qualified;
  candidate_pairs += other.candidate_pairs;
  matched_pairs += other.matched_pairs;
  agg_updates += other.agg_updates;
  passes_over_detail += other.passes_over_detail;
  index_masks += other.index_masks;
  memory_degraded = memory_degraded || other.memory_degraded;
  blocks += other.blocks;
  kernel_invocations += other.kernel_invocations;
  setup_ms += other.setup_ms;
  scan_ms += other.scan_ms;
  merge_ms += other.merge_ms;
  finalize_ms += other.finalize_ms;
  kernel_fallback_rows += other.kernel_fallback_rows;
  dense_blocks += other.dense_blocks;
  index_probe_lookups += other.index_probe_lookups;
  index_probe_memo_hits += other.index_probe_memo_hits;
  morsels += other.morsels;
  steal_waits += other.steal_waits;
  blocks_read += other.blocks_read;
  blocks_pruned += other.blocks_pruned;
  blocks_faulted += other.blocks_faulted;
  block_cache_hits += other.block_cache_hits;
  spill_partitions += other.spill_partitions;
  spill_bytes_written += other.spill_bytes_written;
}

Result<Table> MdJoin(const Table& base, const Table& detail,
                     const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                     const MdJoinOptions& options, MdJoinStats* stats,
                     const GroupIdMap* groups) {
  return RunMdJoin(base, TableSource(detail), {{aggs, theta}}, options, stats, groups);
}

Result<Table> ParallelMdJoin(const Table& base, const Table& detail,
                             const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                             int num_partitions, int num_threads,
                             const MdJoinOptions& options, MdJoinStats* stats) {
  if (num_partitions < 1 || num_threads < 1) {
    return Status::InvalidArgument("ParallelMdJoin: partitions and threads must be >= 1");
  }
  MdJoinOptions eff = options;
  eff.num_threads = num_threads;
  return RunMdJoin(base, TableSource(detail), {{aggs, theta}}, eff, stats,
                   /*groups=*/nullptr, num_partitions);
}

}  // namespace mdjoin
