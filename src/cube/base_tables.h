#ifndef MDJOIN_CUBE_BASE_TABLES_H_
#define MDJOIN_CUBE_BASE_TABLES_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "cube/lattice.h"
#include "expr/expr.h"
#include "table/table.h"

namespace mdjoin {

class DetailSource;   // core/detail_scan.h
class QueryGuard;     // common/query_guard.h
struct GroupIdMap;    // core/mdjoin.h
struct MdJoinStats;   // core/mdjoin.h

/// Generators for base-values relations (the B operand of an MD-join). This
/// is the paper's central decoupling: the *same* MD-join aggregates any of
/// these — a plain group-by list, a full data cube, a rollup hierarchy,
/// user-chosen grouping sets, unpivot marginals, or an arbitrary user table
/// of interesting points (Example 2.4, which needs no generator at all).
/// All outputs have schema = the dimension columns (types taken from `t`),
/// with the ALL marker filling rolled-up positions.
///
/// The multi-cuboid generators (cube, rollup, grouping sets, unpivot) also
/// hand out, when `groups` is non-null, the GroupIdMap of B over `t`: the
/// relative sets an MD-join of B with `t` on dimension equality reads by
/// group id instead of probing an index.

/// select distinct dims from t — the GROUP BY base values.
Result<Table> GroupByBase(const Table& t, const std::vector<std::string>& dims);

/// One cuboid: distinct combinations of the dims grouped by `mask`, with ALL
/// in the remaining positions.
Result<Table> CuboidBase(const Table& t, const CubeLattice& lattice, CuboidMask mask);

/// CUBE BY dims (Example 2.1): the union of all 2^d cuboids.
Result<Table> CubeByBase(const Table& t, const std::vector<std::string>& dims,
                         GroupIdMap* groups = nullptr);

/// ROLLUP(d1, ..., dk): the prefix cuboids (d1..dk), (d1..dk-1), ..., ().
Result<Table> RollupBase(const Table& t, const std::vector<std::string>& dims,
                         GroupIdMap* groups = nullptr);

/// GROUPING SETS: caller-selected cuboids, named per set. `dims` fixes the
/// output column order; every set must be a subset of `dims`.
Result<Table> GroupingSetsBase(const Table& t, const std::vector<std::string>& dims,
                               const std::vector<std::vector<std::string>>& sets,
                               GroupIdMap* groups = nullptr);

/// UNPIVOT [GFC98]: the marginals — one single-attribute grouping set per
/// dimension (what decision-tree learners consume, §2 Example 2.1).
Result<Table> UnpivotBase(const Table& t, const std::vector<std::string>& dims,
                          GroupIdMap* groups = nullptr);

/// The cuboids CubeByBase emits, in its order: the full cuboid first, then
/// coarser levels, the grand total last.
std::vector<CuboidMask> CubeMasks(const CubeLattice& lattice);

/// The cuboids `masks` of σ_where(R) over `dims`, in that order, from one
/// pass over R read morsel by morsel (a paged R streams block by block;
/// storage counters go into `reads`, which may be null). `where` holds
/// conjuncts over R's columns; they run as the MD-join's predicate kernels
/// over each morsel, and a row they reject joins no group. The pass numbers
/// the finest groups over the dims some mask groups (every dim, with
/// `groups`) on key words (table/key_numbering.h), read from a chunk's typed
/// mirror where it has one, and each cuboid then deduplicates only those:
/// the same rows, in the same order, as a dedup of each cuboid over all of
/// σ_where(R) wherever Value::Equals is transitive (it is not for int64
/// cells beyond ±2^53 beside float64 ones).
/// With `groups`, also fills the GroupIdMap of the result over R (a
/// rejected row's group is -1), marking it unusable when a kept row's key
/// cell is NaN or ALL, or a key column holds both int64 and float64 cells.
/// `guard` is checked once per morsel.
Result<Table> CuboidsFromFinest(const DetailSource& r, const std::vector<std::string>& dims,
                                const std::vector<CuboidMask>& masks,
                                const std::vector<ExprPtr>& where, QueryGuard* guard,
                                MdJoinStats* reads, GroupIdMap* groups);

/// The ALL-mask of row `row` of a base table whose first columns are
/// `lattice.dims()`: bit i set iff dims[i] is a concrete (non-ALL) value.
Result<CuboidMask> RowCuboid(const Table& base, const CubeLattice& lattice, int64_t row);

/// Splits a multi-granularity base table into per-cuboid partitions (a
/// Theorem 4.1 partition along granularity — what turns a cube-shaped B into
/// individually hash-indexable pieces). Returns {mask, rows-of-that-cuboid}
/// pairs in ascending mask order; absent cuboids are omitted.
struct CuboidPartition {
  CuboidMask mask;
  Table table;
};
Result<std::vector<CuboidPartition>> PartitionByCuboid(const Table& base,
                                                       const CubeLattice& lattice);

/// Widens a grouped result whose key columns are (a permutation of) the
/// `mask` attributes of `dims` to the full cube schema `cube_schema`
/// ([dims..., aggregate columns...]), writing ALL in rolled-up positions.
/// Key columns are located by name; the remaining columns are copied in
/// order. Shared by the PIPESORT executor and subcube materialization.
Result<Table> WidenGroupedToCube(const Table& grouped,
                                 const std::vector<std::string>& dims, CuboidMask mask,
                                 const Schema& cube_schema);

}  // namespace mdjoin

#endif  // MDJOIN_CUBE_BASE_TABLES_H_
