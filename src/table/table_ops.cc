#include "table/table_ops.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "common/logging.h"
#include "table/key_numbering.h"
#include "table/table_accel.h"

namespace mdjoin {

std::vector<int64_t> SortedRowIndices(const Table& t, const std::vector<SortKey>& keys) {
  std::vector<int64_t> idx(static_cast<size_t>(t.num_rows()));
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](int64_t a, int64_t b) {
    for (const SortKey& k : keys) {
      int c = t.Get(a, k.column).Compare(t.Get(b, k.column));
      if (c != 0) return k.ascending ? c < 0 : c > 0;
    }
    return false;
  });
  return idx;
}

Table SortTable(const Table& t, const std::vector<SortKey>& keys) {
  Table out = TakeRows(t, SortedRowIndices(t, keys));
  if (t.accel() != nullptr) out.RebuildAccel();
  return out;
}

Result<Table> SortTableBy(const Table& t, const std::vector<std::string>& columns) {
  MDJ_ASSIGN_OR_RETURN(std::vector<int> cols, ResolveColumns(t.schema(), columns));
  std::vector<SortKey> keys;
  keys.reserve(cols.size());
  for (int c : cols) keys.push_back({c, /*ascending=*/true});
  return SortTable(t, keys);
}

std::vector<int64_t> FirstOccurrenceRows(const Table& t, const std::vector<int>& cols) {
  KeyNumbering keys(cols.size());
  keys.Reserve(t.num_rows());
  std::vector<int64_t> groups(static_cast<size_t>(kMorselRows));
  std::vector<int64_t> out;
  for (int64_t start = 0; start < t.num_rows(); start += kMorselRows) {
    const int n = static_cast<int>(std::min(kMorselRows, t.num_rows() - start));
    keys.Number(t, cols, start, nullptr, n, groups.data());
    for (int i = 0; i < n; ++i) {
      if (groups[static_cast<size_t>(i)] == static_cast<int64_t>(out.size())) {
        out.push_back(start + i);
      }
    }
  }
  return out;
}

Table Distinct(const Table& t) {
  std::vector<int> cols(static_cast<size_t>(t.num_columns()));
  std::iota(cols.begin(), cols.end(), 0);
  return TakeRows(t, FirstOccurrenceRows(t, cols));
}

Result<Table> DistinctOn(const Table& t, const std::vector<std::string>& columns) {
  MDJ_ASSIGN_OR_RETURN(std::vector<int> cols, ResolveColumns(t.schema(), columns));
  std::vector<Field> fields;
  fields.reserve(cols.size());
  for (int c : cols) fields.push_back(t.schema().field(c));
  Table out{Schema(std::move(fields))};
  for (int64_t r : FirstOccurrenceRows(t, cols)) out.AppendRowUnchecked(t.GetRowKey(r, cols));
  return out;
}

Result<Table> Concat(const Table& a, const Table& b) {
  if (!a.schema().Equals(b.schema())) {
    return Status::InvalidArgument("Concat: schema mismatch [", a.schema().ToString(),
                                   "] vs [", b.schema().ToString(), "]");
  }
  Table out = a.Clone();
  for (int64_t r = 0; r < b.num_rows(); ++r) out.AppendRowFrom(b, r);
  return out;
}

Result<Table> ConcatAll(const std::vector<Table>& tables) {
  if (tables.empty()) return Status::InvalidArgument("ConcatAll: no input tables");
  Table out = tables[0].Clone();
  for (size_t i = 1; i < tables.size(); ++i) {
    if (!tables[i].schema().Equals(out.schema())) {
      return Status::InvalidArgument("ConcatAll: schema mismatch at table ", i);
    }
    for (int64_t r = 0; r < tables[i].num_rows(); ++r) out.AppendRowFrom(tables[i], r);
  }
  return out;
}

Table TakeRows(const Table& t, const std::vector<int64_t>& rows) {
  Table out(t.schema());
  out.Reserve(static_cast<int64_t>(rows.size()));
  for (int64_t r : rows) out.AppendRowFrom(t, r);
  return out;
}

std::vector<Table> PartitionIntoN(const Table& t, int n) {
  MDJ_CHECK(n > 0);
  std::vector<Table> out;
  out.reserve(static_cast<size_t>(n));
  int64_t rows = t.num_rows();
  int64_t base = rows / n, extra = rows % n;
  int64_t start = 0;
  for (int i = 0; i < n; ++i) {
    int64_t len = base + (i < extra ? 1 : 0);
    Table piece(t.schema());
    piece.Reserve(len);
    for (int64_t r = start; r < start + len; ++r) piece.AppendRowFrom(t, r);
    start += len;
    out.push_back(std::move(piece));
  }
  return out;
}

Result<std::vector<Table>> PartitionByColumns(const Table& t,
                                              const std::vector<std::string>& columns) {
  MDJ_ASSIGN_OR_RETURN(std::vector<int> cols, ResolveColumns(t.schema(), columns));
  std::unordered_map<RowKey, size_t, RowKeyHash, RowKeyEqual> group_of;
  std::vector<Table> out;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    RowKey key = t.GetRowKey(r, cols);
    auto [it, inserted] = group_of.try_emplace(std::move(key), out.size());
    if (inserted) out.emplace_back(t.schema());
    out[it->second].AppendRowFrom(t, r);
  }
  return out;
}

namespace {

bool SchemasCompatible(const Schema& a, const Schema& b) {
  if (a.num_fields() != b.num_fields()) return false;
  for (int i = 0; i < a.num_fields(); ++i) {
    // Numeric columns are interchangeable: an int64 SUM and the same SUM
    // computed as float64 must still compare equal row-wise.
    DataType ta = a.field(i).type, tb = b.field(i).type;
    if (ta != tb && !(IsNumeric(ta) && IsNumeric(tb))) return false;
  }
  return true;
}

}  // namespace

bool TablesEqualUnordered(const Table& a, const Table& b) {
  if (!SchemasCompatible(a.schema(), b.schema())) return false;
  if (a.num_rows() != b.num_rows()) return false;
  std::unordered_map<RowKey, int64_t, RowKeyHash, RowKeyEqual> counts;
  for (int64_t r = 0; r < a.num_rows(); ++r) ++counts[a.GetRow(r)];
  for (int64_t r = 0; r < b.num_rows(); ++r) {
    auto it = counts.find(b.GetRow(r));
    if (it == counts.end() || it->second == 0) return false;
    --it->second;
  }
  return true;
}

bool TablesEqualOrdered(const Table& a, const Table& b) {
  if (!a.schema().Equals(b.schema())) return false;
  if (a.num_rows() != b.num_rows()) return false;
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      if (!a.Get(r, c).Equals(b.Get(r, c))) return false;
    }
  }
  return true;
}

namespace {

bool CellsApproxEqual(const Value& a, const Value& b, double rel_tol) {
  if (a.is_float64() || b.is_float64()) {
    if (!a.is_numeric() || !b.is_numeric()) return a.Equals(b);
    double x = a.AsDouble(), y = b.AsDouble();
    if (x == y) return true;
    double scale = std::max(std::abs(x), std::abs(y));
    return std::abs(x - y) <= rel_tol * std::max(scale, 1.0);
  }
  return a.Equals(b);
}

bool RowsApproxEqual(const Table& a, int64_t ra, const Table& b, int64_t rb,
                     double rel_tol) {
  for (int c = 0; c < a.num_columns(); ++c) {
    if (!CellsApproxEqual(a.Get(ra, c), b.Get(rb, c), rel_tol)) return false;
  }
  return true;
}

std::vector<SortKey> AllColumnKeys(const Table& t) {
  std::vector<SortKey> keys;
  for (int c = 0; c < t.num_columns(); ++c) keys.push_back({c, true});
  return keys;
}

}  // namespace

bool TablesApproxEqualOrdered(const Table& a, const Table& b, double rel_tol) {
  if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) return false;
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    if (!RowsApproxEqual(a, r, b, r, rel_tol)) return false;
  }
  return true;
}

bool TablesApproxEqualUnordered(const Table& a, const Table& b, double rel_tol) {
  if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) return false;
  Table sa = SortTable(a, AllColumnKeys(a));
  Table sb = SortTable(b, AllColumnKeys(b));
  // Sorting may interleave rows whose float cells differ in the last ulps; a
  // bounded look-back window absorbs those local swaps.
  constexpr int64_t kWindow = 8;
  std::vector<bool> used(static_cast<size_t>(sb.num_rows()), false);
  for (int64_t r = 0; r < sa.num_rows(); ++r) {
    bool matched = false;
    for (int64_t w = std::max<int64_t>(0, r - kWindow);
         w < std::min(sb.num_rows(), r + kWindow + 1); ++w) {
      if (!used[static_cast<size_t>(w)] && RowsApproxEqual(sa, r, sb, w, rel_tol)) {
        used[static_cast<size_t>(w)] = true;
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

Result<std::vector<int>> ResolveColumns(const Schema& schema,
                                        const std::vector<std::string>& names) {
  std::vector<int> out;
  out.reserve(names.size());
  for (const auto& name : names) {
    MDJ_ASSIGN_OR_RETURN(int idx, schema.GetFieldIndex(name));
    out.push_back(idx);
  }
  return out;
}

Result<Table> RenameColumns(const Table& t, const std::vector<std::string>& from,
                            const std::vector<std::string>& to) {
  if (from.size() != to.size()) {
    return Status::InvalidArgument("RenameColumns: from/to size mismatch");
  }
  std::vector<Field> fields = t.schema().fields();
  for (size_t i = 0; i < from.size(); ++i) {
    MDJ_ASSIGN_OR_RETURN(int idx, t.schema().GetFieldIndex(from[i]));
    fields[idx].name = to[i];
  }
  Table out = t.Clone();
  Table renamed{Schema(std::move(fields))};
  for (int64_t r = 0; r < out.num_rows(); ++r) renamed.AppendRowFrom(out, r);
  return renamed;
}

Table PrefixColumns(const Table& t, const std::string& prefix) {
  std::vector<Field> fields = t.schema().fields();
  for (Field& f : fields) f.name = prefix + f.name;
  Table out{Schema(std::move(fields))};
  for (int64_t r = 0; r < t.num_rows(); ++r) out.AppendRowFrom(t, r);
  return out;
}

}  // namespace mdjoin
