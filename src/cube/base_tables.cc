#include "cube/base_tables.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "common/simd.h"
#include "core/detail_scan.h"
#include "expr/kernels.h"
#include "table/key_numbering.h"
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

}  // namespace

std::vector<CuboidMask> CubeMasks(const CubeLattice& lattice) {
  // Full cuboid first, then coarser ones, grand total last — the natural
  // reading order of Figure 1(a).
  std::vector<CuboidMask> masks;
  for (int level = lattice.num_dims(); level >= 0; --level) {
    for (CuboidMask mask : lattice.CuboidsAtLevel(level)) masks.push_back(mask);
  }
  return masks;
}

Result<Table> CuboidsFromFinest(const DetailSource& r, const std::vector<std::string>& dims,
                                const std::vector<CuboidMask>& masks,
                                const std::vector<ExprPtr>& where, QueryGuard* guard,
                                MdJoinStats* reads, GroupIdMap* groups) {
  const Schema& schema = r.prepared().schema();
  MDJ_ASSIGN_OR_RETURN(Schema base_schema, BaseSchema(r.prepared(), dims));
  MDJ_ASSIGN_OR_RETURN(std::vector<int> all_cols, ResolveColumns(schema, dims));
  // The pass numbers the groups of the dims some mask groups (all of them
  // for a map, whose NULL and θ-equality checks read every key cell); the
  // others are ALL in every cuboid. slot[d] is dim d's place among them.
  CuboidMask numbered = 0;
  for (CuboidMask m : masks) numbered |= m;
  std::vector<int> cols;
  std::vector<int> slot(all_cols.size(), -1);
  for (size_t d = 0; d < all_cols.size(); ++d) {
    if (groups != nullptr || (numbered & (CuboidMask{1} << d)) != 0) {
      slot[d] = static_cast<int>(cols.size());
      cols.push_back(all_cols[d]);
    }
  }
  const size_t ndims = cols.size();
  MdJoinStats local_reads;
  if (reads == nullptr) reads = &local_reads;
  if (groups != nullptr) {
    *groups = GroupIdMap{};
    groups->dims = dims;
    groups->row_group.assign(static_cast<size_t>(r.num_rows()), -1);
  }
  PredicateKernels kernels;
  if (!where.empty()) {
    MDJ_ASSIGN_OR_RETURN(kernels, PredicateKernels::Compile(where, schema,
                                                            r.prepared().accel(),
                                                            simd::BestLevel()));
  }
  std::vector<uint32_t> sel(static_cast<size_t>(kMorselRows));
  std::vector<uint64_t> mask(
      2 * static_cast<size_t>(simd::MaskWords(static_cast<int>(kMorselRows))));
  KernelStats kernel_stats;

  // One pass over R: each kept row's finest group, and whether θ-equality
  // and group membership can disagree on some key cell.
  KeyNumbering finest(ndims);
  std::vector<uint8_t> kinds(ndims, 0);  // per dim: 1 int64 seen, 2 float64 seen
  std::vector<int64_t> block_groups(static_cast<size_t>(kMorselRows));
  for (int64_t m = 0; m < r.num_morsels(); ++m) {
    if (guard != nullptr) MDJ_RETURN_NOT_OK(guard->Check());
    MDJ_RETURN_NOT_OK(r.Read(m, guard, reads,
                             [&](const Table& chunk, int64_t lo, int64_t hi,
                                 int64_t first_row) -> Status {
      for (int64_t start = lo; start < hi; start += kMorselRows) {
        int n = static_cast<int>(std::min<int64_t>(kMorselRows, hi - start));
        const uint32_t* lanes = nullptr;
        if (!kernels.empty()) {
          const BlockFilter kept =
              kernels.FilterBlock(chunk, start, n, sel.data(), mask.data(), &kernel_stats);
          n = kept.count;
          if (!kept.dense) lanes = sel.data();
        }
        finest.Number(chunk, cols, start, lanes, n, block_groups.data());
        if (groups == nullptr) continue;
        for (int i = 0; i < n; ++i) {
          bool null_key = false;
          for (size_t d = 0; d < ndims; ++d) {
            const KeyWord& w = finest.words(d)[i];
            null_key = null_key || w.cls == KeyWord::kNull;
            if (w.cls == KeyWord::kAll) groups->unusable = "a key column holds ALL";
            if (w.cls == KeyWord::kFloat64 && std::isnan(std::bit_cast<double>(w.bits))) {
              groups->unusable = "a key column holds NaN";
            }
            kinds[d] |= w.cls == KeyWord::kInt64 ? 1 : w.cls == KeyWord::kFloat64 ? 2 : 0;
          }
          // θ-equality matches a NULL key to nothing, not even ALL.
          const int64_t row = first_row + start + (lanes != nullptr ? int64_t{lanes[i]} : i);
          groups->row_group[static_cast<size_t>(row)] =
              null_key ? -1 : static_cast<int32_t>(block_groups[static_cast<size_t>(i)]);
        }
      }
      return Status::OK();
    }));
  }

  // Each cuboid deduplicates the finest groups only, in their order. The
  // first row of R with a coarse key is also the first occurrence of its
  // finest key, so every cuboid keeps the rows, in the order, that its own
  // scan of R would (Theorem 4.5 applied to the keys alone) wherever
  // Value::Equals is transitive.
  const size_t nmasks = masks.size();
  if (groups != nullptr) {
    groups->stride = static_cast<int64_t>(nmasks);
    groups->base_rows.resize(static_cast<size_t>(finest.size()) * nmasks);
  }
  std::vector<std::vector<int64_t>> firsts(nmasks);  // each cuboid's first groups
  std::vector<int64_t> coarse_of;
  int64_t offset = 0;
  for (size_t i = 0; i < nmasks; ++i) {
    std::vector<size_t> pos;
    for (size_t d = 0; d < all_cols.size(); ++d) {
      if (masks[i] & (CuboidMask{1} << d)) pos.push_back(static_cast<size_t>(slot[d]));
    }
    std::vector<int64_t>& first = firsts[i];
    if (pos.size() == ndims) {
      first.resize(static_cast<size_t>(finest.size()));
      std::iota(first.begin(), first.end(), 0);
      coarse_of = first;
    } else {
      finest.Coarsen(pos, &first, &coarse_of);
    }
    if (groups != nullptr) {
      for (int64_t g = 0; g < finest.size(); ++g) {
        groups->base_rows[static_cast<size_t>(g) * nmasks + i] =
            offset + coarse_of[static_cast<size_t>(g)];
      }
    }
    offset += static_cast<int64_t>(first.size());
  }
  std::vector<std::vector<Value>> out_cols(all_cols.size());
  for (size_t d = 0; d < all_cols.size(); ++d) {
    out_cols[d].reserve(static_cast<size_t>(offset));
    for (size_t i = 0; i < nmasks; ++i) {
      const bool grouped = (masks[i] & (CuboidMask{1} << d)) != 0;
      for (int64_t g : firsts[i]) {
        out_cols[d].push_back(grouped ? finest.Cell(static_cast<size_t>(slot[d]), g)
                                      : Value::All());
      }
    }
  }
  if (groups != nullptr) {
    for (size_t d = 0; d < ndims; ++d) {
      if (kinds[d] == 3) groups->unusable = "a key column holds both int64 and float64 cells";
    }
    if (finest.size() > std::numeric_limits<int32_t>::max()) {
      groups->unusable = "more finest groups than a group id can number";
    }
  }
  Table out;
  for (size_t d = 0; d < all_cols.size(); ++d) {
    MDJ_RETURN_NOT_OK(out.AddColumn(base_schema.field(static_cast<int>(d)),
                                    std::move(out_cols[d])));
  }
  return out;
}

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

Result<Table> CubeByBase(const Table& t, const std::vector<std::string>& dims,
                         GroupIdMap* groups) {
  MDJ_ASSIGN_OR_RETURN(CubeLattice lattice, CubeLattice::Make(dims));
  return CuboidsFromFinest(TableSource(t), dims, CubeMasks(lattice), {}, nullptr, nullptr,
                           groups);
}

Result<Table> RollupBase(const Table& t, const std::vector<std::string>& dims,
                         GroupIdMap* groups) {
  if (dims.size() > kMaxCuboidDims) {
    return Status::InvalidArgument("rollup limited to ", kMaxCuboidDims, " dimensions");
  }
  // Prefix masks: full, drop last dim, ..., grand total.
  std::vector<CuboidMask> masks;
  for (int k = static_cast<int>(dims.size()); k >= 0; --k) {
    masks.push_back(PrefixMask(static_cast<size_t>(k)));
  }
  return CuboidsFromFinest(TableSource(t), dims, masks, {}, nullptr, nullptr, groups);
}

Result<Table> GroupingSetsBase(const Table& t, const std::vector<std::string>& dims,
                               const std::vector<std::vector<std::string>>& sets,
                               GroupIdMap* groups) {
  if (dims.size() > kMaxCuboidDims) {
    return Status::InvalidArgument("grouping sets limited to ", kMaxCuboidDims,
                                   " dimensions");
  }
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
  return CuboidsFromFinest(TableSource(t), dims, masks, {}, nullptr, nullptr, groups);
}

Result<Table> UnpivotBase(const Table& t, const std::vector<std::string>& dims,
                          GroupIdMap* groups) {
  std::vector<std::vector<std::string>> sets;
  sets.reserve(dims.size());
  for (const std::string& d : dims) sets.push_back({d});
  return GroupingSetsBase(t, dims, sets, groups);
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
