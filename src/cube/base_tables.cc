#include "cube/base_tables.h"

#include <map>

#include "table/table_ops.h"

namespace mdjoin {

namespace {

/// Schema of a base table over `dims`, typed from `t`.
Result<Schema> BaseSchema(const Table& t, const std::vector<std::string>& dims) {
  std::vector<Field> fields;
  fields.reserve(dims.size());
  for (const std::string& d : dims) {
    MDJ_ASSIGN_OR_RETURN(int idx, t.schema().GetFieldIndex(d));
    fields.push_back(t.schema().field(idx));
  }
  return Schema(std::move(fields));
}

/// Appends to `out` (schema over `dims`, whose columns in `t` are `cols`)
/// one row per row of `t` in `rows`: the grouped dims of `mask` from `t`, ALL
/// in the rolled-up positions.
void AppendCuboidRows(const Table& t, const std::vector<int>& cols, CuboidMask mask,
                      const std::vector<int64_t>& rows, Table* out) {
  for (int64_t r : rows) {
    std::vector<Value> row(cols.size(), Value::All());
    for (size_t i = 0; i < cols.size(); ++i) {
      if (mask & (CuboidMask{1} << i)) row[i] = t.Get(r, cols[i]);
    }
    out->AppendRowUnchecked(std::move(row));
  }
}

/// The columns of `cols` (one per dim) that `mask` groups.
std::vector<int> GroupedColumns(const std::vector<int>& cols, CuboidMask mask) {
  std::vector<int> grouped;
  for (size_t i = 0; i < cols.size(); ++i) {
    if (mask & (CuboidMask{1} << i)) grouped.push_back(cols[i]);
  }
  return grouped;
}

/// The cuboids `masks` of `t` over `dims`, in that order, from one pass over
/// `t`: the pass finds the first-occurrence rows of the finest cuboid (every
/// dim grouped), and each cuboid then deduplicates only those rows. The first
/// row of `t` with a coarse key is also the first occurrence of its finest
/// key, so every cuboid keeps the rows, in the order, that its own scan of
/// `t` would (Theorem 4.5 applied to the keys alone). Only row indices are
/// held; no intermediate table is built.
Result<Table> CuboidsFromFinest(const Table& t, const std::vector<std::string>& dims,
                                const std::vector<CuboidMask>& masks) {
  MDJ_ASSIGN_OR_RETURN(Schema schema, BaseSchema(t, dims));
  MDJ_ASSIGN_OR_RETURN(std::vector<int> cols, ResolveColumns(t.schema(), dims));
  Table out{std::move(schema)};
  const std::vector<int64_t> finest = FirstOccurrenceRows(t, cols);
  for (CuboidMask mask : masks) {
    const std::vector<int> grouped = GroupedColumns(cols, mask);
    AppendCuboidRows(t, cols, mask,
                     grouped.size() == cols.size() ? finest
                                                   : FirstOccurrenceRows(t, grouped, &finest),
                     &out);
  }
  return out;
}

}  // namespace

Result<Table> GroupByBase(const Table& t, const std::vector<std::string>& dims) {
  return DistinctOn(t, dims);
}

Result<Table> CuboidBase(const Table& t, const CubeLattice& lattice, CuboidMask mask) {
  MDJ_ASSIGN_OR_RETURN(Schema schema, BaseSchema(t, lattice.dims()));
  MDJ_ASSIGN_OR_RETURN(std::vector<int> cols, ResolveColumns(t.schema(), lattice.dims()));
  Table out{std::move(schema)};
  AppendCuboidRows(t, cols, mask, FirstOccurrenceRows(t, GroupedColumns(cols, mask)), &out);
  return out;
}

Result<Table> CubeByBase(const Table& t, const std::vector<std::string>& dims) {
  MDJ_ASSIGN_OR_RETURN(CubeLattice lattice, CubeLattice::Make(dims));
  // Full cuboid first, then coarser ones, grand total last — the natural
  // reading order of Figure 1(a).
  std::vector<CuboidMask> masks;
  for (int level = lattice.num_dims(); level >= 0; --level) {
    for (CuboidMask mask : lattice.CuboidsAtLevel(level)) masks.push_back(mask);
  }
  return CuboidsFromFinest(t, dims, masks);
}

Result<Table> RollupBase(const Table& t, const std::vector<std::string>& dims) {
  // Prefix masks: full, drop last dim, ..., grand total.
  std::vector<CuboidMask> masks;
  for (int k = static_cast<int>(dims.size()); k >= 0; --k) {
    masks.push_back((CuboidMask{1} << k) - 1);
  }
  return CuboidsFromFinest(t, dims, masks);
}

Result<Table> GroupingSetsBase(const Table& t, const std::vector<std::string>& dims,
                               const std::vector<std::vector<std::string>>& sets) {
  std::vector<CuboidMask> masks;
  masks.reserve(sets.size());
  for (const std::vector<std::string>& set : sets) {
    CuboidMask mask = 0;
    for (const std::string& attr : set) {
      bool found = false;
      for (size_t i = 0; i < dims.size(); ++i) {
        if (dims[i] == attr) {
          mask |= CuboidMask{1} << i;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument("grouping set attribute '", attr,
                                       "' is not among the declared dimensions");
      }
    }
    masks.push_back(mask);
  }
  return CuboidsFromFinest(t, dims, masks);
}

Result<Table> UnpivotBase(const Table& t, const std::vector<std::string>& dims) {
  std::vector<std::vector<std::string>> sets;
  sets.reserve(dims.size());
  for (const std::string& d : dims) sets.push_back({d});
  return GroupingSetsBase(t, dims, sets);
}

Result<CuboidMask> RowCuboid(const Table& base, const CubeLattice& lattice, int64_t row) {
  CuboidMask mask = 0;
  for (int i = 0; i < lattice.num_dims(); ++i) {
    MDJ_ASSIGN_OR_RETURN(int idx,
                         base.schema().GetFieldIndex(lattice.dims()[static_cast<size_t>(i)]));
    if (!base.Get(row, idx).is_all()) mask |= CuboidMask{1} << i;
  }
  return mask;
}

Result<std::vector<CuboidPartition>> PartitionByCuboid(const Table& base,
                                                       const CubeLattice& lattice) {
  std::map<CuboidMask, Table> pieces;
  for (int64_t r = 0; r < base.num_rows(); ++r) {
    MDJ_ASSIGN_OR_RETURN(CuboidMask mask, RowCuboid(base, lattice, r));
    auto it = pieces.find(mask);
    if (it == pieces.end()) {
      it = pieces.emplace(mask, Table(base.schema())).first;
    }
    it->second.AppendRowFrom(base, r);
  }
  std::vector<CuboidPartition> out;
  out.reserve(pieces.size());
  for (auto& [mask, table] : pieces) {
    out.push_back(CuboidPartition{mask, std::move(table)});
  }
  return out;
}

Result<Table> WidenGroupedToCube(const Table& grouped,
                                 const std::vector<std::string>& dims, CuboidMask mask,
                                 const Schema& cube_schema) {
  Table out{cube_schema};
  out.Reserve(grouped.num_rows());
  std::vector<int> dim_src(dims.size(), -1);  // grouped column feeding each dim
  int key_columns = 0;
  for (size_t i = 0; i < dims.size(); ++i) {
    if (mask & (CuboidMask{1} << i)) {
      MDJ_ASSIGN_OR_RETURN(dim_src[i], grouped.schema().GetFieldIndex(dims[i]));
      ++key_columns;
    }
  }
  const int agg_columns = grouped.num_columns() - key_columns;
  if (agg_columns < 0 ||
      cube_schema.num_fields() != static_cast<int>(dims.size()) + agg_columns) {
    return Status::InvalidArgument("WidenGroupedToCube: schema arity mismatch");
  }
  for (int64_t r = 0; r < grouped.num_rows(); ++r) {
    std::vector<Value> row;
    row.reserve(static_cast<size_t>(cube_schema.num_fields()));
    for (size_t i = 0; i < dims.size(); ++i) {
      row.push_back(dim_src[i] < 0 ? Value::All() : grouped.Get(r, dim_src[i]));
    }
    for (int c = 0; c < agg_columns; ++c) row.push_back(grouped.Get(r, key_columns + c));
    out.AppendRowUnchecked(std::move(row));
  }
  return out;
}

}  // namespace mdjoin
