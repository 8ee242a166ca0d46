#include "storage/spill.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>

#include "common/failpoint.h"
#include "common/hash_util.h"
#include "common/simd.h"
#include "common/string_util.h"
#include "expr/compile.h"
#include "expr/conjuncts.h"
#include "expr/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/block_format.h"

namespace mdjoin {

namespace {

constexpr char kSpillMagic[4] = {'M', 'D', 'J', 'S'};
constexpr size_t kSpillBufBytes = 1 << 20;

Counter* SpillBytesCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "mdjoin_spill_bytes_total", "bytes written to spill partition files");
  return c;
}

Counter* SpillPartitionsCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "mdjoin_spill_partitions_total",
      "spill partition pairs written and joined");
  return c;
}

/// Per-writer buffer size for a spill with 2P writers open at once: each
/// takes a 1/(4P) share of the guard's byte headroom (soft budget or hard
/// limit, whichever binds first), so all buffers together claim at most half
/// of it and decoded blocks / the partition read-back keep room. Unbudgeted
/// guards get the full default. The 4 KiB floor keeps flushes sensibly
/// batched; a budget too tight even for that fails at Reserve(), which is
/// the honest answer.
int64_t SpillWriterBufBytes(const QueryGuard* guard, int num_partitions) {
  if (guard == nullptr) return static_cast<int64_t>(kSpillBufBytes);
  const int64_t headroom = guard->headroom_bytes();
  if (headroom == std::numeric_limits<int64_t>::max()) {
    return static_cast<int64_t>(kSpillBufBytes);
  }
  const int64_t share = headroom / (4 * std::max(num_partitions, 1));
  return std::clamp<int64_t>(share, int64_t{4} << 10,
                             static_cast<int64_t>(kSpillBufBytes));
}

/// Removes the listed files on scope exit, errors ignored — cleanup of a
/// failed query must not mask the query's own status.
struct SpillFileJanitor {
  std::vector<std::string> paths;
  ~SpillFileJanitor() {
    for (const std::string& p : paths) {
      std::error_code ec;
      std::filesystem::remove(p, ec);
    }
  }
};

}  // namespace

std::string MakeSpillPath(const std::string& dir, const std::string& tag) {
  static std::atomic<uint64_t> seq{0};
  std::string base = dir;
  if (base.empty()) base = std::filesystem::temp_directory_path().string();
  return StrCat(base, "/mdjoin-spill-", static_cast<int64_t>(getpid()), "-",
                static_cast<int64_t>(seq.fetch_add(1)), "-", tag, ".spl");
}

int ChooseSpillPartitions(const MdJoinOptions& options, int64_t base_rows,
                          int64_t num_aggs) {
  if (options.spill_partitions > 0) return options.spill_partitions;
  int64_t p = 4;
  if (options.guard != nullptr && options.guard->has_memory_budget()) {
    const int64_t state_bytes =
        base_rows * std::max<int64_t>(num_aggs, 1) * kGuardBytesPerAggState;
    const int64_t headroom =
        std::max<int64_t>(options.guard->remaining_soft_bytes(), 1);
    p = (state_bytes + headroom - 1) / headroom;
  }
  return static_cast<int>(std::min<int64_t>(64, std::max<int64_t>(2, p)));
}

// ---------------------------------------------------------------------------
// SpillWriter / ReadSpillFile
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SpillWriter>> SpillWriter::Create(std::string path,
                                                         int num_columns,
                                                         QueryGuard* guard,
                                                         int64_t buf_bytes) {
  auto w = std::unique_ptr<SpillWriter>(new SpillWriter());
  w->path_ = std::move(path);
  w->buf_limit_ =
      buf_bytes > 0 ? static_cast<size_t>(buf_bytes) : kSpillBufBytes;
  w->out_.open(w->path_, std::ios::binary | std::ios::trunc);
  if (!w->out_) {
    return Status::Internal("cannot open spill file for writing: ", w->path_);
  }
  MDJ_RETURN_NOT_OK(w->buf_bytes_.Reserve(
      guard, static_cast<int64_t>(w->buf_limit_), "spill write buffer"));
  w->buf_.append(kSpillMagic, sizeof(kSpillMagic));
  const uint32_t ncols = static_cast<uint32_t>(num_columns);
  w->buf_.append(reinterpret_cast<const char*>(&ncols), sizeof(ncols));
  return w;
}

Status SpillWriter::Flush() {
  if (buf_.empty()) return Status::OK();
  const bool fault = MDJ_FAILPOINT("storage:spill_write");
  if (!fault) {
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  }
  if (fault || !out_) {
    return Status::Internal(
        "spill write failed: ", path_,
        fault ? " (failpoint storage:spill_write)" : "");
  }
  bytes_ += static_cast<int64_t>(buf_.size());
  SpillBytesCounter()->Increment(static_cast<int64_t>(buf_.size()));
  buf_.clear();
  return Status::OK();
}

Status SpillWriter::AppendRow(const Table& src, int64_t row) {
  const int ncols = src.num_columns();
  for (int c = 0; c < ncols; ++c) {
    AppendTaggedValue(&buf_, src.column(c)[static_cast<size_t>(row)]);
  }
  ++rows_;
  if (buf_.size() >= buf_limit_) return Flush();
  return Status::OK();
}

Status SpillWriter::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  MDJ_RETURN_NOT_OK(Flush());
  out_.flush();
  out_.close();
  buf_bytes_.Release();
  if (out_.fail()) return Status::Internal("spill flush failed: ", path_);
  return Status::OK();
}

Result<Table> ReadSpillFile(const std::string& path, const Schema& schema,
                            QueryGuard* guard) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Internal("cannot open spill file: ", path);
  in.seekg(0, std::ios::end);
  const int64_t size = static_cast<int64_t>(in.tellg());
  in.seekg(0);

  ScopedReservation io_bytes;
  MDJ_RETURN_NOT_OK(io_bytes.Reserve(guard, size, "spill partition read"));
  std::string data(static_cast<size_t>(size), '\0');
  in.read(data.data(), static_cast<std::streamsize>(size));
  if (!in) return Status::Internal("spill read failed: ", path);

  const int ncols = schema.num_fields();
  if (size < 8 || std::memcmp(data.data(), kSpillMagic, 4) != 0) {
    return Status::Internal("spill file corrupt: ", path, " bad magic");
  }
  uint32_t file_cols = 0;
  std::memcpy(&file_cols, data.data() + 4, sizeof(file_cols));
  if (file_cols != static_cast<uint32_t>(ncols)) {
    return Status::Internal("spill file corrupt: ", path, " has ", file_cols,
                            " columns, schema expects ", ncols);
  }

  std::vector<std::vector<Value>> cols(static_cast<size_t>(ncols));
  size_t pos = 8;
  int64_t rows = 0;
  while (pos < data.size()) {
    for (int c = 0; c < ncols; ++c) {
      Value v;
      if (!ParseTaggedValue(data.data(), data.size(), &pos, &v)) {
        return Status::Internal("spill file corrupt: ", path,
                                " truncated at row ", rows);
      }
      cols[static_cast<size_t>(c)].push_back(std::move(v));
    }
    if ((++rows & 0xfff) == 0 && guard != nullptr) {
      MDJ_RETURN_NOT_OK(guard->Check());
    }
  }
  Table out;
  for (int c = 0; c < ncols; ++c) {
    MDJ_RETURN_NOT_OK(
        out.AddColumn(schema.field(c), std::move(cols[static_cast<size_t>(c)])));
  }
  return out;
}

// ---------------------------------------------------------------------------
// SpillMdJoin
// ---------------------------------------------------------------------------

Result<Table> SpillMdJoin(const Table& base, const DetailSource& detail,
                          const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                          const MdJoinOptions& options, MdJoinStats* stats) {
  Span span("spill_mdjoin", "storage");
  MdJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = MdJoinStats{};
  QueryGuard* guard = options.guard;

  // Every join below is one call into the MD-join driver; their counters
  // fold into the spill driver's.
  auto join = [&](const Table& b, const DetailSource& r) -> Result<Table> {
    MdJoinStats s;
    Result<Table> res = RunMdJoin(b, r, {{aggs, theta}}, options, &s);
    stats->Accumulate(s);
    stats->threads = std::max(stats->threads, s.threads);
    stats->route = s.route;
    return res;
  };

  if (theta == nullptr) {
    return Status::InvalidArgument("SpillMdJoin: θ-condition must not be null");
  }
  ThetaParts parts = AnalyzeTheta(theta);
  if (parts.equi.empty() || base.num_rows() == 0) {
    // Nothing to partition on: Theorem-4.1 multi-pass (guard degradation
    // inside the driver) is the only memory escape.
    MDJ_ASSIGN_OR_RETURN(Table out, join(base, detail));
    stats->base_rows = base.num_rows();
    return out;
  }
  const Schema& detail_schema = detail.prepared().schema();

  // Compile each equi key's side expression standalone: by construction the
  // base_expr reads only B columns, the detail_expr only R columns.
  std::vector<CompiledExpr> base_keys, detail_keys;
  for (const EquiPair& pair : parts.equi) {
    MDJ_ASSIGN_OR_RETURN(CompiledExpr bk,
                         CompileExpr(pair.base_expr, &base.schema(), nullptr));
    MDJ_ASSIGN_OR_RETURN(CompiledExpr dk,
                         CompileExpr(pair.detail_expr, nullptr, &detail_schema));
    base_keys.push_back(std::move(bk));
    detail_keys.push_back(std::move(dk));
  }

  const int P = ChooseSpillPartitions(options, base.num_rows(),
                                      static_cast<int64_t>(aggs.size()));
  stats->spill_partitions = P;
  SpillPartitionsCounter()->Increment(P);

  // Route base rows. NULL-key rows match nothing anywhere, so any partition
  // returns them with identity aggregates; partition 0 is as good as any.
  std::vector<std::vector<int64_t>> groups(static_cast<size_t>(P));
  std::vector<int64_t> broadcast;  // ALL-key rows: match across partitions
  {
    RowCtx ctx;
    ctx.base = &base;
    GuardTicket ticket(guard, /*count_rows=*/false);
    for (int64_t r = 0; r < base.num_rows(); ++r) {
      ctx.base_row = r;
      size_t h = 0;
      bool has_null = false, has_all = false;
      for (const CompiledExpr& k : base_keys) {
        const Value v = k.Eval(ctx);
        if (v.is_null()) has_null = true;
        if (v.is_all()) has_all = true;
        HashCombine(&h, v.Hash());
      }
      if (has_null) {
        groups[0].push_back(r);
      } else if (has_all) {
        broadcast.push_back(r);
      } else {
        groups[h % static_cast<size_t>(P)].push_back(r);
      }
      MDJ_RETURN_NOT_OK(ticket.Tick());
    }
    MDJ_RETURN_NOT_OK(ticket.Finish());
  }

  // Spill both relations. Partition files keep original row order, which is
  // what makes per-base-row accumulation order — and so float sums — match
  // the in-memory scan exactly.
  SpillFileJanitor janitor;
  std::vector<std::string> b_paths(static_cast<size_t>(P)),
      r_paths(static_cast<size_t>(P));
  {
    const int64_t writer_buf = SpillWriterBufBytes(guard, P);
    std::vector<std::unique_ptr<SpillWriter>> b_writers, r_writers;
    for (int i = 0; i < P; ++i) {
      b_paths[static_cast<size_t>(i)] =
          MakeSpillPath(options.spill_dir, StrCat("b", i));
      r_paths[static_cast<size_t>(i)] =
          MakeSpillPath(options.spill_dir, StrCat("r", i));
      janitor.paths.push_back(b_paths[static_cast<size_t>(i)]);
      janitor.paths.push_back(r_paths[static_cast<size_t>(i)]);
      MDJ_ASSIGN_OR_RETURN(std::unique_ptr<SpillWriter> bw,
                           SpillWriter::Create(b_paths[static_cast<size_t>(i)],
                                               base.num_columns(), guard,
                                               writer_buf));
      MDJ_ASSIGN_OR_RETURN(std::unique_ptr<SpillWriter> rw,
                           SpillWriter::Create(r_paths[static_cast<size_t>(i)],
                                               detail_schema.num_fields(), guard,
                                               writer_buf));
      b_writers.push_back(std::move(bw));
      r_writers.push_back(std::move(rw));
    }

    for (int i = 0; i < P; ++i) {
      for (int64_t r : groups[static_cast<size_t>(i)]) {
        MDJ_RETURN_NOT_OK(b_writers[static_cast<size_t>(i)]->AppendRow(base, r));
      }
    }

    // R streams one morsel at a time, in row order. θ's R-only conjuncts (a
    // folded WHERE among them) run first as the scan's predicate kernels, so
    // a row no base row can match is never written.
    PredicateKernels kernels;
    if (options.push_detail_selection && !parts.detail_only.empty()) {
      MDJ_ASSIGN_OR_RETURN(kernels, PredicateKernels::Compile(parts.detail_only,
                                                              detail_schema,
                                                              detail.prepared().accel(),
                                                              simd::BestLevel()));
    }
    std::vector<uint32_t> sel(static_cast<size_t>(kMorselRows));
    std::vector<uint64_t> mask(
        2 * static_cast<size_t>(simd::MaskWords(static_cast<int>(kMorselRows))));
    KernelStats kernel_stats;
    GuardTicket ticket(guard, /*count_rows=*/false);
    RowCtx ctx;
    auto route_row = [&](const Table& chunk, int64_t t) -> Status {
      ctx.detail_row = t;
      size_t h = 0;
      bool has_null = false, has_all = false;
      for (const CompiledExpr& k : detail_keys) {
        const Value v = k.Eval(ctx);
        if (v.is_null()) has_null = true;
        if (v.is_all()) has_all = true;
        HashCombine(&h, v.Hash());
      }
      if (has_null) {
        // θ-equality: NULL matches nothing — drop the row here and now.
      } else if (has_all) {
        for (int i = 0; i < P; ++i) {
          MDJ_RETURN_NOT_OK(r_writers[static_cast<size_t>(i)]->AppendRow(chunk, t));
        }
      } else {
        MDJ_RETURN_NOT_OK(r_writers[h % static_cast<size_t>(P)]->AppendRow(chunk, t));
      }
      return ticket.Tick();
    };
    auto route = [&](const Table& chunk, int64_t lo, int64_t hi, int64_t) -> Status {
      ctx.detail = &chunk;
      for (int64_t start = lo; start < hi; start += kMorselRows) {
        const int n = static_cast<int>(std::min<int64_t>(kMorselRows, hi - start));
        if (kernels.empty()) {
          for (int i = 0; i < n; ++i) MDJ_RETURN_NOT_OK(route_row(chunk, start + i));
          continue;
        }
        if (guard != nullptr) MDJ_RETURN_NOT_OK(guard->Check());
        const BlockFilter kept =
            kernels.FilterBlock(chunk, start, n, sel.data(), mask.data(), &kernel_stats);
        for (int i = 0; i < kept.count; ++i) {
          const int lane = kept.dense ? i : static_cast<int>(sel[static_cast<size_t>(i)]);
          MDJ_RETURN_NOT_OK(route_row(chunk, start + lane));
        }
      }
      return Status::OK();
    };
    stats->blocks_pruned += detail.pruned_per_pass();
    for (int64_t m = 0; m < detail.num_morsels(); ++m) {
      MDJ_RETURN_NOT_OK(detail.Read(m, guard, stats, route));
    }
    MDJ_RETURN_NOT_OK(ticket.Finish());

    for (int i = 0; i < P; ++i) {
      MDJ_RETURN_NOT_OK(b_writers[static_cast<size_t>(i)]->Finish());
      MDJ_RETURN_NOT_OK(r_writers[static_cast<size_t>(i)]->Finish());
      stats->spill_bytes_written += b_writers[static_cast<size_t>(i)]->bytes_written() +
                                    r_writers[static_cast<size_t>(i)]->bytes_written();
    }
  }

  // One partition pair resident at a time; scatter each result back to the
  // original base order.
  const int nbase_cols = base.num_columns();
  std::vector<Field> agg_fields;
  std::vector<std::vector<Value>> agg_vals;
  auto scatter = [&](const Table& res, const std::vector<int64_t>& rows)
      -> Status {
    if (agg_fields.empty()) {
      for (int c = nbase_cols; c < res.num_columns(); ++c) {
        agg_fields.push_back(res.schema().field(c));
        agg_vals.emplace_back(static_cast<size_t>(base.num_rows()));
      }
    }
    GuardTicket ticket(guard, /*count_rows=*/false);
    for (size_t k = 0; k < rows.size(); ++k) {
      for (size_t a = 0; a < agg_fields.size(); ++a) {
        agg_vals[a][static_cast<size_t>(rows[k])] =
            res.column(nbase_cols + static_cast<int>(a))[k];
      }
      MDJ_RETURN_NOT_OK(ticket.Tick());
    }
    return ticket.Finish();
  };

  for (int i = 0; i < P; ++i) {
    if (groups[static_cast<size_t>(i)].empty()) continue;
    MDJ_ASSIGN_OR_RETURN(
        Table b_i, ReadSpillFile(b_paths[static_cast<size_t>(i)], base.schema(),
                                 guard));
    MDJ_ASSIGN_OR_RETURN(
        Table r_i, ReadSpillFile(r_paths[static_cast<size_t>(i)], detail_schema, guard));
    ScopedReservation resident;
    MDJ_RETURN_NOT_OK(resident.Reserve(guard, b_i.ApproxBytes() + r_i.ApproxBytes(),
                                       "spill partition tables"));
    MDJ_ASSIGN_OR_RETURN(Table res, join(b_i, TableSource(r_i)));
    MDJ_RETURN_NOT_OK(scatter(res, groups[static_cast<size_t>(i)]));
  }

  // Broadcast group (ALL equi keys): its rows may match detail rows of every
  // partition, so it joins against the full original detail stream.
  if (!broadcast.empty()) {
    Table b_all(base.schema());
    for (int64_t r : broadcast) b_all.AppendRowFrom(base, r);
    ScopedReservation resident;
    MDJ_RETURN_NOT_OK(
        resident.Reserve(guard, b_all.ApproxBytes(), "spill broadcast group"));
    MDJ_ASSIGN_OR_RETURN(Table res, join(b_all, detail));
    MDJ_RETURN_NOT_OK(scatter(res, broadcast));
  }

  stats->base_rows = base.num_rows();

  Table out;
  for (int c = 0; c < nbase_cols; ++c) {
    std::vector<Value> col = base.column(c);
    MDJ_RETURN_NOT_OK(out.AddColumn(base.schema().field(c), std::move(col)));
  }
  for (size_t a = 0; a < agg_fields.size(); ++a) {
    MDJ_RETURN_NOT_OK(out.AddColumn(agg_fields[a], std::move(agg_vals[a])));
  }
  span.SetArg("partitions", P);
  span.SetArg("spill_bytes", stats->spill_bytes_written);
  return out;
}

}  // namespace mdjoin
