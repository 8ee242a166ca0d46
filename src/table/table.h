#ifndef MDJOIN_TABLE_TABLE_H_
#define MDJOIN_TABLE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/key.h"
#include "types/schema.h"
#include "types/value.h"

namespace mdjoin {

struct TableAccel;

/// In-memory columnar relation: a Schema plus one Value vector per column.
/// Cheap to move, explicit to copy (Clone). All engine operators (relational
/// algebra, cube generators, the MD-join itself) consume and produce Tables.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  /// A table of `num_rows` rows whose columns are `columns`, one per field
  /// of `schema`, each `num_rows` cells long.
  Table(Schema schema, std::vector<std::vector<Value>> columns, int64_t num_rows);

  Table(Table&&) = default;
  Table& operator=(Table&&) = default;
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  Table Clone() const;

  const Schema& schema() const { return schema_; }
  int num_columns() const { return schema_.num_fields(); }
  int64_t num_rows() const { return num_rows_; }

  const Value& Get(int64_t row, int col) const {
    MDJ_DCHECK(row >= 0 && row < num_rows_);
    MDJ_DCHECK(col >= 0 && col < num_columns());
    return columns_[col][row];
  }
  void Set(int64_t row, int col, Value v) {
    MDJ_DCHECK(row >= 0 && row < num_rows_);
    MDJ_DCHECK(col >= 0 && col < num_columns());
    columns_[col][row] = std::move(v);
    accel_.reset();
  }

  const std::vector<Value>& column(int col) const { return columns_[col]; }

  /// Moves the columns out, leaving a table with no columns or rows.
  std::vector<std::vector<Value>> ReleaseColumns() &&;

  /// Appends a row without type checking (internal fast path; use
  /// TableBuilder for checked construction). `values` must have one entry per
  /// column.
  void AppendRowUnchecked(std::vector<Value> values);

  /// Appends row `row` of `src`; schemas must have equal arity.
  void AppendRowFrom(const Table& src, int64_t row);

  /// Materializes row `row` as a RowKey over all columns.
  RowKey GetRow(int64_t row) const;

  /// Materializes row `row` projected onto `cols`.
  RowKey GetRowKey(int64_t row, const std::vector<int>& cols) const;

  /// Appends an entire column; only valid while the table has 0 rows or the
  /// column length matches num_rows(). Returns error on name clash.
  Status AddColumn(Field field, std::vector<Value> values);

  void Reserve(int64_t rows);

  /// Rough heap footprint of the table's cells (Value storage plus string
  /// payloads), used by the QueryGuard memory accountant when the executor
  /// materializes intermediates. O(rows × columns).
  int64_t ApproxBytes() const;

  /// Typed columnar mirror for the SIMD kernels (table/table_accel.h), or
  /// null when none was built. Built explicitly at load time via
  /// RebuildAccel(); every mutator drops it, so a non-null accelerator is
  /// always in sync with the cells. Engines treat null as "use the Value
  /// path" — never an error.
  const std::shared_ptr<const TableAccel>& accel() const { return accel_; }

  /// (Re)builds the typed mirror from the current cells. Called by
  /// TableBuilder::Finish and the CSV loader; operator outputs skip it.
  void RebuildAccel();

  /// Human-readable grid (delegates to printer.h).
  std::string ToString(int64_t max_rows = 50) const;

 private:
  Schema schema_;
  std::vector<std::vector<Value>> columns_;
  int64_t num_rows_ = 0;
  std::shared_ptr<const TableAccel> accel_;  // immutable snapshot, shareable
};

}  // namespace mdjoin

#endif  // MDJOIN_TABLE_TABLE_H_
