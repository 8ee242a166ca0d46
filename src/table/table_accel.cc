#include "table/table_accel.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace mdjoin {

namespace {

/// Folds one non-NaN numeric cell into `z`, exactly as ComputeZone does.
void AddNumeric(ColumnZoneMap* z, double d) {
  ++z->numeric_count;
  z->num_min = std::min(z->num_min, d);
  z->num_max = std::max(z->num_max, d);
}

/// The zone map of rows [lo, hi) of a flat column, from its payload: equal
/// to ComputeZone over the same cells (code order is string order).
ColumnZoneMap FlatZone(const FlatColumn& col, int64_t lo, int64_t hi) {
  ColumnZoneMap z;
  int32_t code_min = std::numeric_limits<int32_t>::max(), code_max = -1;
  for (int64_t i = lo; i < hi; ++i) {
    const size_t r = static_cast<size_t>(i);
    if (col.has_nulls && col.nulls[r] != 0) {
      ++z.null_count;
    } else if (col.rep == FlatColumn::Rep::kInt64) {
      AddNumeric(&z, static_cast<double>(col.i64[r]));
    } else if (col.rep == FlatColumn::Rep::kFloat64) {
      if (std::isnan(col.f64[r])) {
        ++z.nan_count;
      } else {
        AddNumeric(&z, col.f64[r]);
      }
    } else {
      ++z.string_count;
      code_min = std::min(code_min, col.codes[r]);
      code_max = std::max(code_max, col.codes[r]);
    }
  }
  if (z.string_count > 0) {
    z.str_min = col.dict->Decode(code_min);
    z.str_max = col.dict->Decode(code_max);
  }
  return z;
}

FlatColumn BuildColumn(const std::vector<Value>& cells) {
  FlatColumn out;
  const size_t n = cells.size();
  if (n == 0) return out;  // kNone: nothing to accelerate

  // One classification pass: the column flattens iff every cell shares one
  // storage type (or is NULL). A single ALL or mixed-type cell vetoes.
  bool any_int = false, any_float = false, any_string = false, any_null = false;
  for (const Value& v : cells) {
    if (v.is_null()) {
      any_null = true;
    } else if (v.is_int64()) {
      any_int = true;
    } else if (v.is_float64()) {
      any_float = true;
    } else if (v.is_string()) {
      any_string = true;
    } else {
      return out;  // ALL
    }
    if (static_cast<int>(any_int) + static_cast<int>(any_float) +
            static_cast<int>(any_string) >
        1) {
      return out;  // mixed types
    }
  }
  if (!any_int && !any_float && !any_string) return out;  // all NULL

  out.has_nulls = any_null;
  if (any_null) out.nulls.assign(n, 0);

  if (any_int) {
    out.rep = FlatColumn::Rep::kInt64;
    out.i64.resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (cells[i].is_null()) {
        out.nulls[i] = 1;
        out.i64[i] = 0;
      } else {
        out.i64[i] = cells[i].int64();
      }
    }
  } else if (any_float) {
    out.rep = FlatColumn::Rep::kFloat64;
    out.f64.resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (cells[i].is_null()) {
        out.nulls[i] = 1;
        out.f64[i] = 0.0;
      } else {
        out.f64[i] = cells[i].float64();
      }
    }
  } else {
    out.rep = FlatColumn::Rep::kDict;
    std::vector<std::string> values;
    values.reserve(n);
    for (const Value& v : cells) {
      if (!v.is_null()) values.push_back(v.string());
    }
    auto dict = std::make_shared<Dictionary>(Dictionary::Build(std::move(values)));
    out.codes.resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (cells[i].is_null()) {
        out.nulls[i] = 1;
        out.codes[i] = -1;
      } else {
        out.codes[i] = dict->CodeOf(cells[i].string());
      }
    }
    out.dict = std::move(dict);
  }
  return out;
}

}  // namespace

ColumnZoneMap ComputeZone(const Value* cells, int64_t n) {
  ColumnZoneMap z;
  bool first_string = true;
  for (int64_t i = 0; i < n; ++i) {
    const Value& v = cells[i];
    if (v.is_null()) {
      ++z.null_count;
    } else if (v.is_all()) {
      ++z.all_count;
    } else if (v.is_string()) {
      ++z.string_count;
      const std::string& s = v.string();
      if (first_string) {
        z.str_min = s;
        z.str_max = s;
        first_string = false;
      } else {
        if (s < z.str_min) z.str_min = s;
        if (s > z.str_max) z.str_max = s;
      }
    } else {
      const double d = v.AsDouble();
      if (std::isnan(d)) {
        ++z.nan_count;
      } else {
        AddNumeric(&z, d);
      }
    }
  }
  return z;
}

std::string ColumnZoneMap::ToString() const {
  std::string out = StrCat("num:[", num_min, ", ", num_max, "]×", numeric_count,
                           " null:", null_count, " all:", all_count,
                           " nan:", nan_count);
  if (string_count > 0) {
    out += StrCat(" str:['", str_min, "', '", str_max, "']×", string_count);
  }
  return out;
}

std::shared_ptr<const TableAccel> TableAccel::Build(const Table& table) {
  auto accel = std::make_shared<TableAccel>();
  const int64_t n = table.num_rows();
  accel->num_rows = n;
  accel->cols.reserve(static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    accel->cols.push_back(BuildColumn(table.column(c)));
  }
  for (int64_t lo = 0; lo < n; lo += kMorselRows) {
    const int64_t hi = std::min(lo + kMorselRows, n);
    std::vector<ColumnZoneMap>& zones = accel->zones.emplace_back();
    zones.reserve(accel->cols.size());
    for (int c = 0; c < table.num_columns(); ++c) {
      const FlatColumn& col = accel->cols[static_cast<size_t>(c)];
      zones.push_back(col.flat() ? FlatZone(col, lo, hi)
                                 : ComputeZone(table.column(c).data() + lo, hi - lo));
    }
  }
  return accel;
}

int64_t TableAccel::ApproxBytes() const {
  int64_t bytes = 0;
  for (const FlatColumn& col : cols) {
    bytes += static_cast<int64_t>(col.i64.capacity() * sizeof(int64_t));
    bytes += static_cast<int64_t>(col.f64.capacity() * sizeof(double));
    bytes += static_cast<int64_t>(col.codes.capacity() * sizeof(int32_t));
    bytes += static_cast<int64_t>(col.nulls.capacity());
    if (col.dict != nullptr) bytes += col.dict->ApproxBytes();
  }
  for (const std::vector<ColumnZoneMap>& morsel : zones) {
    bytes += static_cast<int64_t>(morsel.capacity() * sizeof(ColumnZoneMap));
  }
  return bytes;
}

}  // namespace mdjoin
