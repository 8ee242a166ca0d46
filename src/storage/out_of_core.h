#ifndef MDJOIN_STORAGE_OUT_OF_CORE_H_
#define MDJOIN_STORAGE_OUT_OF_CORE_H_

#include <set>
#include <string>
#include <vector>

#include "agg/agg_spec.h"
#include "analyze/range_analysis.h"
#include "common/result.h"
#include "core/detail_scan.h"
#include "core/mdjoin.h"
#include "storage/paged_table.h"

namespace mdjoin {

/// The pruning test: may a morsel whose column statistics are `zone` hold a
/// cell satisfying `pred`? Composes the per-class zone counts with the
/// numeric-interval test (ZoneMapPredicate::CouldMatch) and the string-window
/// test, so a θ that admits strings can still prune all-numeric morsels and
/// vice versa — strictly sharper than CouldMatch alone, never less sound.
bool ZoneCouldMatch(const ZoneMapPredicate& pred, const ColumnZoneMap& zone);

/// The one pruning decision, for every source that reads R in morsels: a
/// paged table's blocks (their footer zone maps) and an in-memory table's
/// kMorselRows-row morsels (the zone maps of its typed mirror, TableAccel).
/// keep[m] is true iff some component's θ could match a row of morsel m by
/// the AnalyzeRanges facts on its detail columns: a θ without such facts
/// keeps every morsel, one the analysis proves unsatisfiable keeps none.
/// Without components every morsel is kept.
std::vector<bool> PlanMorselPruning(const Schema& schema, const MorselZoneMaps& zones,
                                    const std::vector<MdJoinComponent>& components);

/// The columns of R an MD-join over `components` reads: those its θs and
/// its aggregate arguments name on the detail side.
std::set<std::string> DetailColumns(const std::vector<MdJoinComponent>& components);

/// A paged relation as the MD-join driver and the base generators read it:
/// one morsel per storage block, faulted through `cache` (or decoded into a
/// guard-charged ephemeral pin without one), handed over with the block's
/// first row number. Only the blocks PlanMorselPruning keeps for `prune_by`
/// are read (every block without components), and of each only the chunks
/// of `columns`: the names the reader references (DetailColumns for a join;
/// a generator's dimensions and selection columns), in schema order. A name
/// R lacks is left out, so binding it fails as it would against the whole
/// schema; a reader that names no column of R gets the file's smallest
/// column, so its morsels keep their row counts. θ compiles against a
/// zero-row table with the projected schema: every chunk the scan sees is a
/// decoded block, foreign to that table, so the typed-mirror machinery stays
/// off.
class PagedSource final : public DetailSource {
 public:
  PagedSource(const PagedTable& table, BlockCache* cache,
              const std::vector<MdJoinComponent>& prune_by,
              const std::set<std::string>& columns);

  const Table& prepared() const override { return stub_; }
  int64_t num_morsels() const override { return static_cast<int64_t>(kept_.size()); }
  int64_t num_rows() const override { return table_->num_rows(); }
  int64_t pruned_per_pass() const override {
    return table_->num_blocks() - static_cast<int64_t>(kept_.size());
  }
  int64_t morsel_bytes() const override { return morsel_bytes_; }
  Status Read(int64_t m, QueryGuard* guard, MdJoinStats* stats,
              const ScanFn& scan) const override;
  std::vector<std::string> decoded_columns() const override;

 private:
  const PagedTable* table_;
  std::vector<int> cols_;  // schema indices decoded per block, ascending
  Table stub_;
  BlockCache* cache_;
  std::vector<int> kept_;
  int64_t morsel_bytes_ = 0;  // largest kept block's decode, when uncached
};

/// The out-of-core MD-join: MdJoin() semantics with the detail relation living
/// in a block file (storage/block_format) instead of RAM, run by the one
/// MD-join driver (core/detail_scan.h) with one storage block as its morsel.
/// Bit-identical to the in-memory evaluator — same row order, same float
/// accumulation order — at one thread, with spill on or off; the A/B tests in
/// out_of_core_test.cc enforce exactly that.
///
/// Before any pass the driver's detail source refutes each block against its
/// footer zone maps (PlanMorselPruning): a
/// refuted block provably holds no θ-matching row and is never faulted, let
/// alone decoded (stats->blocks_pruned). Of a surviving block only the
/// chunks of DetailColumns(components) are decoded (stats->columns names
/// them). Surviving blocks fault through
/// options.block_cache when one is given (shared residency, LRU within its
/// byte budget, singleflight dedup of concurrent faults) or decode into an
/// ephemeral pin charged to the query's guard otherwise. Each decoded block is
/// scanned like an in-memory morsel, so every scan optimization short of the
/// prepared table's typed mirror runs unchanged. options.num_threads workers
/// pull blocks from the driver's shared cursor.
///
/// options.enable_spill engages the partitioned-spill escape hatch
/// (storage/spill.h) when θ carries an equi conjunct: B and the *streamed*
/// surviving blocks of R hash-partition to spill files, then per-partition
/// in-memory joins merge back in base order. Peak residency is one decoded
/// block plus one partition pair, never the whole detail relation.
Result<Table> PagedMdJoin(const Table& base, const PagedTable& detail,
                          const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                          const MdJoinOptions& options = {},
                          MdJoinStats* stats = nullptr);

/// The generalized MD-join (core/generalized.h) over a paged detail relation:
/// a block survives zone-map pruning when any component's θ could match a row
/// of it. Spill engages only for a single component, and never reads
/// `groups`, the map the generator of `base` built from `detail` (MdJoin()).
Result<Table> PagedMdJoin(const Table& base, const PagedTable& detail,
                          const std::vector<MdJoinComponent>& components,
                          const MdJoinOptions& options = {},
                          MdJoinStats* stats = nullptr,
                          const GroupIdMap* groups = nullptr);

/// The MD-join of `base` with R read through any detail source: the
/// catalog's table in place, a paged table's blocks, or an executed plan.
/// options.enable_spill with a single component runs SpillMdJoin (which
/// never reads `groups`); everything else runs the one driver, RunMdJoin.
/// Blocks the source pruned count into mdjoin_blocks_pruned_total.
Result<Table> SourceMdJoin(const Table& base, const DetailSource& detail,
                           const std::vector<MdJoinComponent>& components,
                           const MdJoinOptions& options, MdJoinStats* stats,
                           const GroupIdMap* groups = nullptr);

class Catalog;  // optimizer/plan.h

/// Registers `table` under `name` in the catalog, filling the catalog's
/// storage-opaque schema/row-count fields from the table itself (the plan
/// layer cannot dereference a PagedTable — see Catalog::RegisterPaged).
/// `table` must outlive the catalog binding.
Status RegisterPagedTable(Catalog* catalog, std::string name,
                          const PagedTable& table);

}  // namespace mdjoin

#endif  // MDJOIN_STORAGE_OUT_OF_CORE_H_
