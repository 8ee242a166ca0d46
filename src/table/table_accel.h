#ifndef MDJOIN_TABLE_TABLE_ACCEL_H_
#define MDJOIN_TABLE_TABLE_ACCEL_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "table/dictionary.h"
#include "table/table.h"

namespace mdjoin {

/// Rows per morsel of an in-memory table: the unit its zone maps summarize
/// and a detail scan reads (core/detail_scan.h), and the rows per vectorized
/// block (a guarded scan clamps its blocks to the guard's check stride, so a
/// cancel is seen within one stride). A paged relation's morsel is one
/// storage block.
constexpr int64_t kMorselRows = 1024;

/// Statistics of one column over one morsel (an in-memory table's
/// kMorselRows rows, or a storage block), so pruning can refute the morsel
/// without reading it. The numeric window [num_min, num_max] spans the
/// non-NaN numeric cells only; presence of the other payload classes is
/// tracked by count so a ZoneMapPredicate can reason about each class
/// independently (ZoneCouldMatch, storage/out_of_core.h).
struct ColumnZoneMap {
  double num_min = std::numeric_limits<double>::infinity();
  double num_max = -std::numeric_limits<double>::infinity();
  int64_t null_count = 0;
  int64_t all_count = 0;
  int64_t nan_count = 0;
  int64_t numeric_count = 0;  // finite + ±inf numerics (excludes NaN)
  int64_t string_count = 0;
  std::string str_min;  // meaningful iff string_count > 0
  std::string str_max;

  bool has_null() const { return null_count > 0; }
  bool has_numeric() const { return numeric_count > 0; }

  std::string ToString() const;
};

/// Zone maps of a relation cut into morsels: zones[m][c] summarizes column
/// c of morsel m.
using MorselZoneMaps = std::vector<std::vector<ColumnZoneMap>>;

/// The zone map of `n` Value cells (the block writer's, and the fallback for
/// a column the typed mirror cannot flatten).
ColumnZoneMap ComputeZone(const Value* cells, int64_t n);

/// Typed mirror of one Table column for the SIMD kernels. Table cells are
/// Value variants — great for NULL/ALL/mixed-type generality, hostile to
/// vector units. A FlatColumn unpacks a column into a contiguous primitive
/// array plus a null bytemap when (and only when) every cell is one storage
/// type or NULL:
///
///   kInt64   — all cells int64/NULL;  payload in `i64` (null slots hold 0)
///   kFloat64 — all cells float64/NULL; payload in `f64`
///   kDict    — all cells string/NULL; payload in `codes` against a sorted
///              Dictionary (null slots hold -1), so θ string tests run as
///              int32 compares and strings are only decoded at output
///   kNone    — ALL cells, mixed types, or empty: engines use the Value path
///
/// ALL never flattens by design: it appears in base-values tables, and the
/// accelerator serves the detail side of scans.
struct FlatColumn {
  enum class Rep { kNone, kInt64, kFloat64, kDict };

  Rep rep = Rep::kNone;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<int32_t> codes;
  std::vector<uint8_t> nulls;  // 0/1 per row; empty when has_nulls is false
  bool has_nulls = false;
  std::shared_ptr<const Dictionary> dict;

  /// Null bytemap for the SIMD mask helpers, nullptr when the column is
  /// null-free (kernels then skip the mask pass entirely).
  const uint8_t* null_bytes() const { return has_nulls ? nulls.data() : nullptr; }

  bool flat() const { return rep != Rep::kNone; }
};

/// Immutable per-table bundle of FlatColumns and per-morsel zone maps,
/// built once at load time (TableBuilder::Finish, the CSV loader) and cached
/// on the Table behind a shared_ptr. Tables assembled through mutators
/// (operator outputs) simply have no accelerator: they scan through the
/// Value path and are never pruned. Every Table mutator drops the cache so a
/// stale mirror can never be read.
struct TableAccel {
  std::vector<FlatColumn> cols;
  /// One entry per kMorselRows-row morsel, computed from the typed payloads
  /// (Value cells only for a column that does not flatten).
  MorselZoneMaps zones;
  int64_t num_rows = 0;

  static std::shared_ptr<const TableAccel> Build(const Table& table);

  int64_t ApproxBytes() const;
};

}  // namespace mdjoin

#endif  // MDJOIN_TABLE_TABLE_ACCEL_H_
