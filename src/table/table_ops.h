#ifndef MDJOIN_TABLE_TABLE_OPS_H_
#define MDJOIN_TABLE_TABLE_OPS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "table/table.h"

namespace mdjoin {

/// Structural table utilities shared by the relational-algebra layer, the
/// cube generators and the MD-join evaluator. These operate positionally or
/// by column name and are independent of the expression system.

/// One sort key: column index plus direction.
struct SortKey {
  int column;
  bool ascending = true;
};

/// Returns a copy of `t` sorted by `keys` (stable). When `t` carries a typed
/// mirror (table/table_accel.h) the copy gets its own, so a sorted catalog
/// table prunes morsels on its sort columns.
Table SortTable(const Table& t, const std::vector<SortKey>& keys);

/// Sorts by named columns, all ascending.
Result<Table> SortTableBy(const Table& t, const std::vector<std::string>& columns);

/// Row indices of `t` in sorted order (stable), without materializing.
std::vector<int64_t> SortedRowIndices(const Table& t, const std::vector<SortKey>& keys);

/// Indices of the rows of `t` that first show each distinct projection on
/// `cols`, in scan order: each row joins the earliest kept row whose
/// projection Value::Equals its own (structural equality, so ALL equals ALL
/// and NaN equals nothing). Rows are numbered on key words
/// (table/key_numbering.h); no key is materialized per row.
std::vector<int64_t> FirstOccurrenceRows(const Table& t, const std::vector<int>& cols);

/// Distinct rows over all columns (first occurrence kept, original order).
Table Distinct(const Table& t);

/// Distinct over the named columns only; output schema is those columns.
Result<Table> DistinctOn(const Table& t, const std::vector<std::string>& columns);

/// Appends all rows of `b` to a copy of `a`. Schemas must match exactly.
Result<Table> Concat(const Table& a, const Table& b);

/// Concatenates many tables; at least one required (defines the schema).
Result<Table> ConcatAll(const std::vector<Table>& tables);

/// New table containing rows of `t` selected by `rows`, in that order.
Table TakeRows(const Table& t, const std::vector<int64_t>& rows);

/// Splits `t` into `n` pieces of near-equal size, preserving order
/// (Theorem 4.1 partitioning: any partition of B is valid).
std::vector<Table> PartitionIntoN(const Table& t, int n);

/// Splits `t` into groups of rows sharing values of the named columns
/// (structural equality: ALL groups with ALL).
Result<std::vector<Table>> PartitionByColumns(const Table& t,
                                              const std::vector<std::string>& columns);

/// Multiset equality of rows, ignoring row order; schemas must match by type
/// and arity (names may differ). The workhorse assertion for the theorem
/// property tests.
bool TablesEqualUnordered(const Table& a, const Table& b);

/// Exact equality including row order and column names.
bool TablesEqualOrdered(const Table& a, const Table& b);

/// Like TablesEqualOrdered, but float64 cells compare with relative tolerance
/// `rel_tol` (plus a tiny absolute floor near zero). Needed when comparing
/// aggregation strategies that sum doubles in different orders — IEEE
/// addition is not associative, so two correct plans can differ in the last
/// ulps once groups grow to thousands of rows.
bool TablesApproxEqualOrdered(const Table& a, const Table& b, double rel_tol = 1e-9);

/// Unordered (multiset) version of the approximate comparison: rows are
/// matched greedily by sorting both tables on all columns first, so it
/// requires tolerant cells to sort adjacently — true for aggregate outputs
/// keyed by exact group columns.
bool TablesApproxEqualUnordered(const Table& a, const Table& b, double rel_tol = 1e-9);

/// Resolves names to column indices; error on unknown.
Result<std::vector<int>> ResolveColumns(const Schema& schema,
                                        const std::vector<std::string>& names);

/// Returns a copy of `t` with columns renamed via parallel vectors.
Result<Table> RenameColumns(const Table& t, const std::vector<std::string>& from,
                            const std::vector<std::string>& to);

/// Returns a copy of `t` with every column name prefixed ("S." etc).
Table PrefixColumns(const Table& t, const std::string& prefix);

}  // namespace mdjoin

#endif  // MDJOIN_TABLE_TABLE_OPS_H_
