#include "storage/out_of_core.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "analyze/range_analysis.h"
#include "core/detail_scan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/plan.h"
#include "storage/block_cache.h"
#include "storage/spill.h"

namespace mdjoin {

namespace {

Counter* BlocksPrunedCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "mdjoin_blocks_pruned_total",
      "morsels (storage blocks or in-memory morsels) refuted by zone maps, never read");
  return c;
}

/// Touches every instrument of the storage family so a metrics dump of any
/// paged run carries the complete catalog, idle spill/cache counters included
/// (validate_obs.py --expect-storage requires each name). The registry dedups
/// by name, so instruments already registered by their owning module (block
/// cache, spill writer) are returned, not duplicated.
void RegisterStorageMetrics() {
  BlocksPrunedCounter();
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("mdjoin_blocks_read_total",
                      "storage blocks served to paged scans (faults + cache hits)");
  registry.GetCounter("mdjoin_blocks_faulted_total",
                      "storage block loads that ran the decoder (cache miss or no cache)");
  registry.GetCounter("mdjoin_column_chunks_decoded_total",
                      "column chunks verified and decoded by block loads");
  registry.GetGauge("mdjoin_block_cache_bytes",
                    "decoded bytes resident in the block cache (all caches summed)");
  registry.GetCounter("mdjoin_block_cache_hit_total",
                      "block-cache lookups served resident");
  registry.GetCounter("mdjoin_block_cache_miss_total",
                      "block-cache lookups that ran a loader");
  registry.GetCounter("mdjoin_block_cache_evictions_total",
                      "blocks evicted from the cache");
  registry.GetCounter("mdjoin_spill_bytes_total",
                      "bytes written to spill partition files");
  registry.GetCounter("mdjoin_spill_partitions_total",
                      "spill partition pairs written and joined");
}

/// The schema indices of `columns` in `table`, ascending; without any, the
/// first column whose chunks decode smallest over the file, so a reader of
/// no column still sees every row.
std::vector<int> ProjectedColumns(const PagedTable& table,
                                  const std::set<std::string>& columns) {
  std::vector<int> cols;
  const Schema& schema = table.schema();
  for (int c = 0; c < schema.num_fields(); ++c) {
    if (columns.count(schema.field(c).name) > 0) cols.push_back(c);
  }
  if (!cols.empty() || schema.num_fields() == 0) return cols;
  int64_t best = std::numeric_limits<int64_t>::max();
  int smallest = 0;
  for (int c = 0; c < schema.num_fields(); ++c) {
    int64_t bytes = 0;
    for (int b = 0; b < table.num_blocks(); ++b) bytes += table.ApproxBlockBytes(b, {c});
    if (bytes < best) {
      best = bytes;
      smallest = c;
    }
  }
  return {smallest};
}

}  // namespace

std::set<std::string> DetailColumns(const std::vector<MdJoinComponent>& components) {
  std::set<std::string> columns;
  for (const MdJoinComponent& c : components) {
    if (c.theta != nullptr) c.theta->CollectColumns(Side::kDetail, &columns);
    for (const AggSpec& agg : c.aggs) {
      if (agg.argument != nullptr) agg.argument->CollectColumns(Side::kDetail, &columns);
    }
  }
  return columns;
}

PagedSource::PagedSource(const PagedTable& table, BlockCache* cache,
                         const std::vector<MdJoinComponent>& prune_by,
                         const std::set<std::string>& columns)
    : table_(&table), cols_(ProjectedColumns(table, columns)), cache_(cache) {
  RegisterStorageMetrics();
  std::vector<Field> fields;
  for (int c : cols_) fields.push_back(table.schema().field(c));
  stub_ = Table(Schema(std::move(fields)));
  const std::vector<bool> keep =
      PlanMorselPruning(table.schema(), table.zones(), prune_by);
  for (int b = 0; b < table.num_blocks(); ++b) {
    if (!keep[static_cast<size_t>(b)]) continue;
    kept_.push_back(b);
    if (cache_ == nullptr) {
      morsel_bytes_ = std::max(morsel_bytes_, table.ApproxBlockBytes(b, cols_));
    }
  }
}

std::vector<std::string> PagedSource::decoded_columns() const {
  std::vector<std::string> names;
  names.reserve(cols_.size());
  for (const Field& f : stub_.schema().fields()) names.push_back(f.name);
  return names;
}

Status PagedSource::Read(int64_t m, QueryGuard* guard, MdJoinStats* stats,
                         const ScanFn& scan) const {
  const int b = kept_[static_cast<size_t>(m)];
  Span block_span("paged_block", "storage");
  block_span.SetArg("block", b);
  bool hit = false;
  MDJ_ASSIGN_OR_RETURN(BlockPin pin, table_->Fault(b, cols_, cache_, &hit));
  ++stats->blocks_read;
  if (hit) {
    ++stats->block_cache_hits;
  } else {
    ++stats->blocks_faulted;
  }
  // An uncached decode is this query's own transient memory for the
  // duration of the scan; cached residency is the cache's charge to make.
  ScopedReservation resident;
  if (cache_ == nullptr) {
    MDJ_RETURN_NOT_OK(resident.Reserve(guard, table_->ApproxBlockBytes(b, cols_),
                                       "decoded block"));
  }
  return scan(pin.table(), 0, pin.table().num_rows(), table_->block_row_offset(b));
}

Status RegisterPagedTable(Catalog* catalog, std::string name,
                          const PagedTable& table) {
  return catalog->RegisterPaged(std::move(name), &table, table.schema(),
                                table.num_rows());
}

bool ZoneCouldMatch(const ZoneMapPredicate& pred, const ColumnZoneMap& zone) {
  // Each payload class present in the morsel is tested against what the
  // predicate admits for that class; the morsel survives if any class might
  // hold a qualifying cell. Missing classes (count 0) cannot save a morsel,
  // which is exactly the sharpening per-class counts buy over the bare
  // min/max/has_null triple.
  if (pred.allow_null && zone.null_count > 0) return true;
  if (pred.allow_all && zone.all_count > 0) return true;
  if (pred.allow_nan && zone.nan_count > 0) return true;
  if (zone.has_numeric()) {
    // Delegate the interval logic to the official predicate with the
    // non-numeric escape hatches cleared — the zone counts above already
    // handled those classes exactly.
    ZoneMapPredicate numeric_only = pred;
    numeric_only.allow_null = false;
    numeric_only.allow_non_numeric = false;
    numeric_only.allow_nan = false;
    if (numeric_only.CouldMatch(zone.num_min, zone.num_max,
                                /*block_has_null=*/false)) {
      return true;
    }
  }
  if (zone.string_count > 0 && pred.allow_string &&
      pred.CouldMatchString(zone.str_min, zone.str_max)) {
    return true;
  }
  return false;
}

std::vector<bool> PlanMorselPruning(const Schema& schema, const MorselZoneMaps& zones,
                                    const std::vector<MdJoinComponent>& components) {
  std::vector<bool> keep(zones.size(), components.empty());
  for (const MdJoinComponent& c : components) {
    const RangeAnalysis ra = AnalyzeRanges(c.theta);
    if (!ra.satisfiable) continue;
    // Resolve predicate columns once; a predicate naming no stored column (a
    // computed detail expression) cannot prune.
    std::vector<std::pair<size_t, const ZoneMapPredicate*>> preds;
    for (const ZoneMapPredicate& zp : ra.zone_predicates) {
      std::optional<int> col = schema.FindField(zp.column);
      if (col.has_value()) preds.emplace_back(static_cast<size_t>(*col), &zp);
    }
    for (size_t m = 0; m < zones.size(); ++m) {
      keep[m] = keep[m] || std::all_of(preds.begin(), preds.end(), [&](const auto& p) {
                  return ZoneCouldMatch(*p.second, zones[m][p.first]);
                });
    }
  }
  return keep;
}

Result<Table> PagedMdJoin(const Table& base, const PagedTable& detail,
                          const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                          const MdJoinOptions& options, MdJoinStats* stats) {
  return PagedMdJoin(base, detail, std::vector<MdJoinComponent>{{aggs, theta}}, options,
                     stats);
}

Result<Table> PagedMdJoin(const Table& base, const PagedTable& detail,
                          const std::vector<MdJoinComponent>& components,
                          const MdJoinOptions& options, MdJoinStats* stats,
                          const GroupIdMap* groups) {
  MdJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = MdJoinStats{};
  for (const MdJoinComponent& c : components) {
    if (c.theta == nullptr) {
      return Status::InvalidArgument("PagedMdJoin: θ-condition must not be null");
    }
  }
  Span span("paged_mdjoin", "storage");
  const PagedSource source(detail, options.block_cache, components,
                           DetailColumns(components));
  Result<Table> out = SourceMdJoin(base, source, components, options, stats, groups);
  stats->columns = source.decoded_columns();
  span.SetArg("blocks_read", stats->blocks_read);
  span.SetArg("blocks_pruned", stats->blocks_pruned);
  return out;
}

Result<Table> SourceMdJoin(const Table& base, const DetailSource& detail,
                           const std::vector<MdJoinComponent>& components,
                           const MdJoinOptions& options, MdJoinStats* stats,
                           const GroupIdMap* groups) {
  MdJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  const bool spill = options.enable_spill && components.size() == 1;
  Result<Table> out =
      spill ? SpillMdJoin(base, detail, components[0].aggs, components[0].theta, options,
                          stats)
            : RunMdJoin(base, detail, components, options, stats, groups);
  if (spill && groups != nullptr) stats->route_reason = "spill";
  BlocksPrunedCounter()->Increment(stats->blocks_pruned);
  return out;
}

}  // namespace mdjoin
