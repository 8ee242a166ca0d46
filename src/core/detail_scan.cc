#include "core/detail_scan.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <unordered_set>
#include <utility>

#include "common/failpoint.h"
#include "common/morsel_scheduler.h"
#include "common/thread_pool.h"
#include "expr/compile.h"
#include "expr/conjuncts.h"
#include "expr/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mdjoin {

namespace {

/// θ compiled once per query and shared by every pass, job, and worker.
/// Read-only after CompileTheta, so one instance can be probed from many
/// threads.
struct CompiledTheta {
  CompiledExpr base_pred;    // B-only conjuncts; invalid when there are none
  PredicateKernels kernels;  // pushed-down R-only conjuncts (Theorem 4.2)
  bool has_kernels = false;
  CompiledExpr residual;     // conjuncts evaluated per candidate pair
  bool indexed = false;      // equi part served by a BaseIndex
};

/// Compiles the classified θ-conjuncts for one (base, detail) pair. Disabled
/// optimizations (pushdown, index) fold their conjuncts back into the
/// residual so results are identical either way. The pushed-down kernels
/// plan over the detail table's typed mirror when it carries one.
Result<CompiledTheta> CompileTheta(const ThetaParts& parts, const Schema& base_schema,
                                   const Table& detail, const MdJoinOptions& options) {
  CompiledTheta ct;
  const Schema& detail_schema = detail.schema();
  if (!parts.base_only.empty()) {
    MDJ_ASSIGN_OR_RETURN(ct.base_pred,
                         CompileExpr(CombineConjuncts(parts.base_only), &base_schema,
                                     /*detail_schema=*/nullptr));
  }

  std::vector<ExprPtr> residual_conjuncts = parts.residual;
  if (options.push_detail_selection) {
    if (!parts.detail_only.empty()) {
      MDJ_ASSIGN_OR_RETURN(
          ct.kernels,
          PredicateKernels::Compile(parts.detail_only, detail_schema, detail.accel(),
                                    simd::BestLevel()));
      ct.has_kernels = true;
    }
  } else {
    residual_conjuncts.insert(residual_conjuncts.end(), parts.detail_only.begin(),
                              parts.detail_only.end());
  }

  // Without the index the equi conjuncts must be re-checked per pair.
  ct.indexed = options.use_index && !parts.equi.empty();
  if (!ct.indexed) {
    for (const EquiPair& pair : parts.equi) {
      residual_conjuncts.push_back(
          Expr::Binary(BinaryOp::kEq, pair.base_expr, pair.detail_expr));
    }
  }

  if (!residual_conjuncts.empty()) {
    MDJ_ASSIGN_OR_RETURN(ct.residual,
                         CompileExpr(CombineConjuncts(std::move(residual_conjuncts)),
                                     &base_schema, &detail_schema));
  }
  return ct;
}

/// One component bound and compiled against (B, R); its aggregates occupy
/// [first_agg, first_agg + num_aggs) of the query's flat aggregate list.
struct BoundComponent {
  ThetaParts parts;
  CompiledTheta theta;
  size_t first_agg = 0;
  size_t num_aggs = 0;
};

/// Typed argument read: when an aggregate's argument is a plain detail column
/// with an int64/float64 mirror and the accumulator is flat, the match loop
/// reads the primitive payload and calls the typed UpdateMany — no Value is
/// touched. NULL cells are skipped outright, which is exactly what every flat
/// kind does with a NULL Value.
struct ArgPlan {
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const uint8_t* nulls = nullptr;
};

/// Everything bound once per query and shared read-only by every scan job.
struct BoundJoin {
  const Table* base = nullptr;
  const Table* detail = nullptr;  // the source's prepared table
  std::vector<BoundAgg> aggs;
  std::vector<BoundComponent> comps;
  std::vector<const Value*> arg_cols;  // plain detail-column arguments
  std::vector<ArgPlan> plans;          // typed arguments; all-null without a mirror
  int64_t block = kMorselRows;
  const GroupIdMap* groups = nullptr;  // relative sets by group id, when chosen
};

/// One prepared scan job: the read-only machinery for aggregating the base
/// rows [lo, hi) against morsels of R — per component the active rows and a
/// base index whose memory reservation lives as long as the job; nothing
/// when the join reads relative sets from a GroupIdMap. Safe to call
/// ScanChunk concurrently from many workers; all mutation happens through
/// the caller's DetailScanWorker.
class DetailScan {
 public:
  static Result<DetailScan> Prepare(const BoundJoin& q, int64_t lo, int64_t hi,
                                    QueryGuard* guard) {
    DetailScan scan;
    scan.q_ = &q;
    scan.parts_.resize(q.comps.size());
    if (q.groups != nullptr) return scan;
    for (size_t c = 0; c < q.comps.size(); ++c) {
      const CompiledTheta& ct = q.comps[c].theta;
      Part& part = scan.parts_[c];
      // Rows eligible for updates: those satisfying the B-only conjuncts. The
      // others still appear in the output (with identity aggregates) but can
      // never match.
      RowCtx ctx;
      ctx.base = q.base;
      for (int64_t row = lo; row < hi; ++row) {
        ctx.base_row = row;
        if (!ct.base_pred.valid() || ct.base_pred.EvalBool(ctx)) {
          part.active.push_back(row);
        }
      }
      // Index on the equi part (§4.5), or nested loop when disabled/absent.
      // The per-job index is the memory the guard's soft budget governs; the
      // driver sized the pass so this reservation fits.
      if (ct.indexed) {
        MDJ_RETURN_NOT_OK(part.index_bytes.Reserve(
            guard,
            static_cast<int64_t>(part.active.size()) * kGuardBytesPerIndexedBaseRow,
            "base index"));
        MDJ_ASSIGN_OR_RETURN(part.index, BaseIndex::Build(*q.base, part.active,
                                                          q.comps[c].parts.equi,
                                                          q.detail->schema()));
        scan.index_masks_ += part.index.num_masks();
      }
    }
    return scan;
  }

  /// Scans rows [lo, hi) of `chunk`, a table with the detail schema whose
  /// row r is row first_row + r of R, folding matches into `worker`'s
  /// partials. Machinery bound to the prepared table (typed mirror, hoisted
  /// argument columns, code-key probe memos) engages only when `chunk` IS
  /// that table; a decoded storage block resolves arguments per call and
  /// probes by value. Work counters flush into worker->stats before
  /// returning — including on a guard trip, so cancelled queries report how
  /// far they got.
  Status ScanChunk(const Table& chunk, int64_t lo, int64_t hi, int64_t first_row,
                   DetailScanWorker* worker) const;

  int64_t index_masks() const { return index_masks_; }

 private:
  struct Part {
    std::vector<int64_t> active;
    BaseIndex index;
    ScopedReservation index_bytes;
  };

  const BoundJoin* q_ = nullptr;
  std::vector<Part> parts_;
  int64_t index_masks_ = 0;
};

Status DetailScan::ScanChunk(const Table& chunk, int64_t lo, int64_t hi,
                             int64_t first_row, DetailScanWorker* worker) const {
  Span span("scan_range", "scan");
  const BoundJoin& q = *q_;
  const std::vector<BoundAgg>& aggs = q.aggs;
  const bool home = (&chunk == q.detail);
  const Value* const* arg_cols = q.arg_cols.data();
  const ArgPlan* plans = q.plans.data();
  std::vector<const Value*> foreign_args;
  std::vector<ArgPlan> untyped;
  if (!home) {
    foreign_args.assign(aggs.size(), nullptr);
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].detail_arg_col >= 0) {
        foreign_args[a] = chunk.column(aggs[a].detail_arg_col).data();
      }
    }
    arg_cols = foreign_args.data();
    untyped.resize(aggs.size());
    plans = untyped.data();
  }

  RowCtx ctx;
  ctx.base = q.base;
  ctx.detail = &chunk;
  // Work counters stay in locals and flush into the worker's stats once per
  // call; per-row stores into shared stat structs were measurable in the
  // scan loop.
  int64_t scanned = 0, qualified = 0, cand_pairs = 0, matched = 0, updates = 0;
  int64_t blocks = 0;
  KernelStats kstats;
  Status status;

  const size_t k = parts_.size();
  for (size_t c = 0; c < k; ++c) {
    // The code-key probe memo reads the prepared table's typed mirror; a
    // foreign chunk's codes, if it has any, live in a different mirror.
    worker->scratch[c].allow_code_keys = home;
  }
  const GroupIdMap* groups = q.groups;
  const int64_t block = q.block;
  if (static_cast<int64_t>(worker->sel.size()) < block) {
    worker->sel.resize(static_cast<size_t>(block));
    worker->qual.resize(static_cast<size_t>(block));
  }
  const size_t mask_words =
      2 * static_cast<size_t>(simd::MaskWords(static_cast<int>(block)));
  if (worker->mask.size() < mask_words) worker->mask.resize(mask_words);
  uint32_t* sel = worker->sel.data();
  uint64_t* mask = worker->mask.data();
  uint8_t* qual = worker->qual.data();
  std::vector<AggStateColumn>& cols = worker->cols;

  for (int64_t start = lo; start < hi && status.ok(); start += block) {
    const int n = static_cast<int>(std::min<int64_t>(block, hi - start));
    ++blocks;
    scanned += n;
    // A row qualifies when it survives at least one component's pushed-down
    // selection; with one component that is simply its selection count.
    if (k > 1) std::fill(qual, qual + n, uint8_t{0});
    int64_t pairs_this_block = 0;
    for (size_t c = 0; c < k; ++c) {
      const BoundComponent& comp = q.comps[c];
      const CompiledTheta& ct = comp.theta;
      const Part& part = parts_[c];
      BlockFilter filt;
      if (ct.has_kernels) {
        filt = ct.kernels.FilterBlock(chunk, start, n, sel, mask, &kstats);
      } else {
        filt.count = n;
        filt.dense = true;
      }
      if (k == 1) qualified += filt.count;
      for (int i = 0; i < filt.count; ++i) {
        // Dense blocks never wrote sel; translate lane i on the fly.
        const int off = filt.dense ? i : static_cast<int>(sel[static_cast<size_t>(i)]);
        if (k > 1) qual[off] = 1;
        const int64_t t = start + off;

        const int64_t* cand;
        int64_t ncand;
        if (groups != nullptr) {
          // Rel(t) is t's finest group's base rows; a NULL dim has none.
          const int64_t g = groups->row_group[static_cast<size_t>(first_row + t)];
          cand = groups->base_rows.data() + std::max<int64_t>(g, 0) * groups->stride;
          ncand = g < 0 ? 0 : groups->stride;
        } else if (ct.indexed) {
          const BaseIndex::ProbeResult pr =
              part.index.ProbeSpan(chunk, t, &worker->scratch[c], &worker->candidates);
          cand = pr.rows;
          ncand = pr.count;
        } else {
          cand = part.active.data();
          ncand = static_cast<int64_t>(part.active.size());
        }
        pairs_this_block += ncand;
        if (ncand == 0) continue;

        ctx.detail_row = t;
        // Resolve the residual once into a match list, then fold the row into
        // every aggregate column-at-a-time: kind dispatch and argument
        // decoding happen once per (row, aggregate), not once per pair.
        const int64_t* match_rows = cand;
        int64_t nmatch = ncand;
        if (ct.residual.valid()) {
          worker->matched_buf.clear();
          for (int64_t m = 0; m < ncand; ++m) {
            ctx.base_row = cand[m];
            if (ct.residual.EvalBool(ctx)) worker->matched_buf.push_back(cand[m]);
          }
          match_rows = worker->matched_buf.data();
          nmatch = static_cast<int64_t>(worker->matched_buf.size());
        }
        if (nmatch == 0) continue;
        matched += nmatch;
        updates += nmatch * static_cast<int64_t>(comp.num_aggs);
        for (size_t a = comp.first_agg; a < comp.first_agg + comp.num_aggs; ++a) {
          const BoundAgg& agg = aggs[a];
          const ArgPlan& plan = plans[a];
          if (plan.i64 != nullptr) {
            if (plan.nulls == nullptr || plan.nulls[t] == 0) {
              cols[a].UpdateManyI64(match_rows, nmatch, plan.i64[t]);
            }
          } else if (plan.f64 != nullptr) {
            if (plan.nulls == nullptr || plan.nulls[t] == 0) {
              cols[a].UpdateManyF64(match_rows, nmatch, plan.f64[t]);
            }
          } else if (arg_cols[a] != nullptr) {
            cols[a].UpdateMany(match_rows, nmatch, arg_cols[a][t]);
          } else if (!agg.has_arg) {
            cols[a].UpdateCountStarMany(match_rows, nmatch);
          } else {
            // Computed argument: may reference the base row, so per pair.
            for (int64_t m = 0; m < nmatch; ++m) {
              ctx.base_row = match_rows[m];
              agg.UpdateColumnFromRow(&cols[a], match_rows[m], ctx);
            }
          }
        }
      }
    }
    if (k > 1) {
      for (int i = 0; i < n; ++i) qualified += qual[i];
    }
    cand_pairs += pairs_this_block;
    status = worker->ticket.TickBlock(n, pairs_this_block);
  }

  MdJoinStats& s = worker->stats;
  s.detail_rows_scanned += scanned;
  s.detail_rows_qualified += qualified;
  s.candidate_pairs += cand_pairs;
  s.matched_pairs += matched;
  s.agg_updates += updates;
  s.blocks += blocks;
  s.kernel_invocations += kstats.kernel_invocations;
  s.kernel_fallback_rows += kstats.fallback_rows;
  s.dense_blocks += kstats.dense_blocks;

  // One registry flush per call keeps the scan loop free of shared atomics
  // while the fleet-wide counters stay ~a-morsel fresh.
  static Counter* c_scanned = MetricsRegistry::Global().GetCounter(
      "mdjoin_detail_rows_scanned_total", "detail tuples read by MD-join scans");
  static Counter* c_qualified = MetricsRegistry::Global().GetCounter(
      "mdjoin_detail_rows_qualified_total",
      "detail tuples surviving pushed-down selection");
  static Counter* c_pairs = MetricsRegistry::Global().GetCounter(
      "mdjoin_candidate_pairs_total", "(base, detail) pairs tested after index pruning");
  static Counter* c_matched = MetricsRegistry::Global().GetCounter(
      "mdjoin_matched_pairs_total", "pairs satisfying the full theta condition");
  static Counter* c_blocks = MetricsRegistry::Global().GetCounter(
      "mdjoin_scan_blocks_total", "vectorized detail blocks processed");
  static Counter* c_kernels = MetricsRegistry::Global().GetCounter(
      "mdjoin_kernel_invocations_total", "columnar predicate kernel runs");
  c_scanned->Increment(scanned);
  c_qualified->Increment(qualified);
  c_pairs->Increment(cand_pairs);
  c_matched->Increment(matched);
  c_blocks->Increment(blocks);
  c_kernels->Increment(kstats.kernel_invocations);

  span.SetArg("rows", hi - lo);
  span.SetArg("matched", matched);
  return status;
}

/// Binds every component's aggregates and compiles its θ against (B, R).
Result<BoundJoin> Bind(const Table& base, const Table& detail,
                       const std::vector<MdJoinComponent>& components,
                       const MdJoinOptions& options) {
  if (components.empty()) return Status::InvalidArgument("MD-join: no components");
  BoundJoin q;
  q.base = &base;
  q.detail = &detail;
  std::unordered_set<std::string> seen_outputs;
  for (const MdJoinComponent& comp : components) {
    if (comp.theta == nullptr) {
      return Status::InvalidArgument("MD-join: θ-condition must not be null");
    }
    MDJ_ASSIGN_OR_RETURN(std::vector<BoundAgg> bound,
                         BindAggs(comp.aggs, &base.schema(), &detail.schema()));
    BoundComponent bc;
    bc.first_agg = q.aggs.size();
    bc.num_aggs = bound.size();
    for (BoundAgg& b : bound) {
      if (!seen_outputs.insert(b.output_field.name).second) {
        return Status::InvalidArgument("MD-join: duplicate output column '",
                                       b.output_field.name, "' across components");
      }
      q.aggs.push_back(std::move(b));
    }
    bc.parts = AnalyzeTheta(comp.theta);
    MDJ_ASSIGN_OR_RETURN(bc.theta, CompileTheta(bc.parts, base.schema(), detail, options));
    q.comps.push_back(std::move(bc));
  }

  // Plain detail-column arguments read straight from column storage, and
  // typed plans over the prepared table's mirror when it has one; both
  // hoisted out of the scan.
  const std::shared_ptr<const TableAccel>& accel = detail.accel();
  q.arg_cols.assign(q.aggs.size(), nullptr);
  q.plans.resize(q.aggs.size());
  for (size_t a = 0; a < q.aggs.size(); ++a) {
    const int c = q.aggs[a].detail_arg_col;
    if (c < 0) continue;
    q.arg_cols[a] = detail.column(c).data();
    if (accel == nullptr || q.aggs[a].fn->flat_kind() == FlatAggKind::kNone) continue;
    const FlatColumn& fc = accel->cols[static_cast<size_t>(c)];
    if (fc.rep == FlatColumn::Rep::kInt64) {
      q.plans[a].i64 = fc.i64.data();
    } else if (fc.rep == FlatColumn::Rep::kFloat64) {
      q.plans[a].f64 = fc.f64.data();
    } else {
      continue;
    }
    q.plans[a].nulls = fc.null_bytes();
  }

  // The guard promises trip latency within ~one check stride of detail rows;
  // that promise outranks block shape.
  if (options.guard != nullptr && options.guard->check_stride() > 0) {
    q.block = std::min<int64_t>(q.block, options.guard->check_stride());
  }
  return q;
}

/// Runs task(i) for i in [0, n): inline on the caller without a pool, else as
/// one pool task each. A failing task trips the shared guard so its siblings
/// stop at their next stride check; the first failure wins.
Status RunTasks(ThreadPool* pool, int n, QueryGuard* guard,
                const std::function<Status(int)>& task) {
  if (pool == nullptr) {
    for (int i = 0; i < n; ++i) MDJ_RETURN_NOT_OK(task(i));
    return Status::OK();
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    tasks.push_back([&, i] {
      Tracing::SetThreadName("mdjoin worker");
      Status st = task(i);
      if (!st.ok()) guard->Trip(st);
    });
  }
  pool->SubmitBatch(std::move(tasks));
  pool->Wait();
  return guard->TripStatus();
}

/// One worker's share of a pass: pull (job, morsel) units from the shared
/// cursor, read each morsel, and scan it into the worker's partials.
Status ScanMorsels(const std::vector<DetailScan>& jobs, const DetailSource& detail,
                   MorselScheduler* scheduler, QueryGuard* guard, int index,
                   DetailScanWorker* worker) {
  Span worker_span("worker.scan", "parallel");
  worker_span.SetArg("worker", index);
  if (MDJ_FAILPOINT("parallel:fragment_error")) {
    return Status::Internal("worker ", index,
                            " failed (failpoint parallel:fragment_error)");
  }
  Status st;
  int64_t last_job = -1;
  int64_t morsels = 0;
  MorselScheduler::Morsel m;
  while (st.ok() && scheduler->Next(&m)) {
    if (m.job != last_job) {
      // Job switch: the probe memos cache the previous job's indexes.
      worker->BeginJob();
      last_job = m.job;
    }
    Span morsel_span("morsel", "parallel");
    morsel_span.SetArg("job", m.job);
    morsel_span.SetArg("morsel", m.morsel);
    ++morsels;
    const DetailScan& job = jobs[static_cast<size_t>(m.job)];
    st = detail.Read(m.morsel, guard, &worker->stats,
                     [&job, worker](const Table& chunk, int64_t lo, int64_t hi,
                                    int64_t first_row) {
                       return job.ScanChunk(chunk, lo, hi, first_row, worker);
                     });
  }
  if (!st.ok()) return st;
  // The pull loop ends on a drained poll — the cursor's steal_wait.
  TraceInstant("steal_wait", "parallel", "worker", index);
  worker_span.SetArg("morsels", morsels);
  return worker->FinishScan();
}

bool ThetaProvablyFalse(const ExprPtr& theta) {
  ExprPtr folded = FoldConstants(theta);
  return folded != nullptr && folded->kind() == ExprKind::kLiteral &&
         !folded->literal().IsTruthy();
}

/// Why `groups` cannot give the relative sets of every component of `q` over
/// `detail`, or null when it can: the map must be exact and built from R, and
/// every θ must be indexed on exactly its dims with no B-only conjunct (a
/// map row lists every cuboid's row; a B-only conjunct would drop some).
const char* GroupIdsFailure(const BoundJoin& q, const GroupIdMap& groups,
                            const DetailSource& detail) {
  if (groups.unusable != nullptr) return groups.unusable;
  const int64_t nbase = q.base->num_rows();
  if (static_cast<int64_t>(groups.row_group.size()) != detail.num_rows() ||
      std::any_of(groups.base_rows.begin(), groups.base_rows.end(),
                  [nbase](int64_t r) { return r < 0 || r >= nbase; })) {
    return "the map was not built for this base and detail relation";
  }
  for (const BoundComponent& c : q.comps) {
    if (!c.theta.indexed) return "the index is disabled or θ has no equi part";
    if (!c.parts.base_only.empty()) return "θ has a B-only conjunct";
    if (const char* why = DimensionEqualityFailure(c.parts.equi, groups.dims)) return why;
  }
  return nullptr;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

TableSource::TableSource(const Table& table, const std::vector<bool>& keep)
    : table_(&table) {
  const int64_t morsels = (table.num_rows() + kMorselRows - 1) / kMorselRows;
  MDJ_CHECK(keep.empty() || static_cast<int64_t>(keep.size()) == morsels);
  for (int64_t m = 0; m < morsels; ++m) {
    if (keep.empty() || keep[static_cast<size_t>(m)]) kept_.push_back(m);
  }
  pruned_ = morsels - static_cast<int64_t>(kept_.size());
}

DetailScanWorker::DetailScanWorker(int64_t base_rows, const std::vector<BoundAgg>& aggs,
                                   size_t num_components, QueryGuard* guard)
    : scratch(num_components), ticket(guard) {
  cols.reserve(aggs.size());
  for (const BoundAgg& b : aggs) cols.push_back(AggStateColumn::Make(b.fn, base_rows));
}

void DetailScanWorker::BeginJob() {
  // The probe memo caches full-key → candidates for one specific index;
  // serving those lists against a different job's index would be wrong. Its
  // probe counters are fleet-wide, though: fold them before the reset.
  for (BaseIndex::ProbeScratch& s : scratch) {
    stats.index_probe_lookups += s.probe_lookups;
    stats.index_probe_memo_hits += s.probe_hits;
    s = BaseIndex::ProbeScratch{};
  }
}

Status DetailScanWorker::FinishScan() {
  for (BaseIndex::ProbeScratch& s : scratch) {
    stats.index_probe_lookups += s.probe_lookups;
    stats.index_probe_memo_hits += s.probe_hits;
    s.probe_lookups = 0;  // folded; the next BeginJob must not double-count
    s.probe_hits = 0;
  }
  return ticket.Finish();
}

Status MergeWorkerPartials(DetailScanWorker* into, const DetailScanWorker& from,
                           QueryGuard* guard) {
  // A liveness-only ticket: merged cells are not detail rows, so nothing is
  // charged against the row budget, but a cancel/deadline still lands within
  // one stride of cells — even inside a single wide column.
  GuardTicket ticket(guard, /*count_rows=*/false);
  const int64_t chunk =
      std::max<int64_t>(1, guard != nullptr ? guard->check_stride() : 1 << 16);
  for (size_t i = 0; i < into->cols.size(); ++i) {
    const int64_t groups = into->cols[i].groups();
    for (int64_t lo = 0; lo < groups; lo += chunk) {
      const int64_t hi = std::min<int64_t>(lo + chunk, groups);
      into->cols[i].MergeRange(from.cols[i], lo, hi);
      MDJ_RETURN_NOT_OK(ticket.TickBlock(hi - lo, 0));
    }
  }
  return ticket.Finish();
}

Result<Table> RunMdJoin(const Table& base, const DetailSource& detail,
                        const std::vector<MdJoinComponent>& components,
                        const MdJoinOptions& options, MdJoinStats* stats,
                        const GroupIdMap* groups, int base_fragments) {
  const auto setup_start = std::chrono::steady_clock::now();
  MdJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = MdJoinStats{};
  stats->base_rows = base.num_rows();
  const int64_t nbase = base.num_rows();

  QueryGuard* guard = options.guard;
  // Observe a pre-issued cancel / expired deadline before doing any work.
  if (guard != nullptr) MDJ_RETURN_NOT_OK(guard->Check());
  MDJ_ASSIGN_OR_RETURN(BoundJoin q, Bind(base, detail.prepared(), components, options));

  // Aggregate states live for the whole query (every pass updates them), so
  // their footprint is reserved up front and cannot be degraded away.
  const int64_t state_bytes_per_worker =
      static_cast<int64_t>(q.aggs.size()) * nbase * kGuardBytesPerAggState;
  ScopedReservation state_bytes;
  MDJ_RETURN_NOT_OK(
      state_bytes.Reserve(guard, state_bytes_per_worker, "aggregate states"));

  // Empty-multiset short-circuit: with no detail morsel to read, or every θ
  // constant-folding to a non-truthy literal, no (b, t) pair can qualify — the
  // outer semantics still emit every base row with identity aggregates.
  bool provably_empty = detail.num_morsels() == 0;
  if (!provably_empty) {
    provably_empty = std::all_of(components.begin(), components.end(),
                                 [](const MdJoinComponent& c) {
                                   return ThetaProvablyFalse(c.theta);
                                 });
  }

  // Index memory per base row of a pass: one entry in each indexed
  // component's BaseIndex.
  int64_t index_bytes_per_row = 0;
  for (const BoundComponent& c : q.comps) {
    if (c.theta.indexed) index_bytes_per_row += kGuardBytesPerIndexedBaseRow;
  }
  stats->route =
      index_bytes_per_row > 0 ? RelativeSetRoute::kIndex : RelativeSetRoute::kNestedLoop;
  int64_t rows_per_pass =
      options.base_rows_per_pass > 0 ? options.base_rows_per_pass : nbase;
  const int fragments = std::max(1, base_fragments);

  // Workers: never more than one pass can keep busy, and — under a memory
  // budget — only as many extra partial-state copies as fit beside the
  // smallest pass the schedule could fall back to (one row when the soft
  // budget may degrade passes, a full pass otherwise). Worker 0's partials
  // are the aggregate states reserved above.
  int workers = 1;
  if (!provably_empty && nbase > 0) {
    workers = static_cast<int>(std::clamp<int64_t>(
        detail.num_morsels() * fragments, 1, std::max(1, options.num_threads)));
  }
  if (workers > 1 && guard != nullptr && state_bytes_per_worker > 0) {
    const int64_t headroom = guard->headroom_bytes();
    if (headroom != std::numeric_limits<int64_t>::max()) {
      const int64_t floor_rows =
          guard->has_memory_budget() ? 1 : std::min(rows_per_pass, nbase);
      const int64_t spare = headroom - floor_rows * index_bytes_per_row;
      const int64_t fit = std::max<int64_t>(spare, 0) / state_bytes_per_worker;
      workers = static_cast<int>(std::min<int64_t>(workers, 1 + fit));
    }
  }
  stats->threads = workers;
  // Parallel workers need a guard for the error short-circuit even when the
  // caller supplied none.
  QueryGuard fallback_guard;
  if (workers > 1 && guard == nullptr) guard = &fallback_guard;
  ScopedReservation partial_bytes;
  if (workers > 1) {
    MDJ_RETURN_NOT_OK(partial_bytes.Reserve(
        guard, static_cast<int64_t>(workers - 1) * state_bytes_per_worker,
        "worker partials"));
  }

  // The generator's group-id map replaces the per-job indexes when it gives
  // every θ's relative sets, B runs in one pass and one fragment, and the
  // guard takes it beside what the workers reserve for the morsels they
  // decode during the scan.
  ScopedReservation map_bytes;
  if (groups != nullptr) {
    const char* why = GroupIdsFailure(q, *groups, detail);
    if (why == nullptr && fragments > 1) why = "B is split into base fragments";
    if (why == nullptr && rows_per_pass < nbase) why = "B is split into passes";
    if (why == nullptr && guard != nullptr &&
        groups->ApproxBytes() > guard->headroom_bytes() - workers * detail.morsel_bytes()) {
      why = "the map does not fit the guard's headroom";
    }
    if (why == nullptr) {
      MDJ_RETURN_NOT_OK(map_bytes.Reserve(guard, groups->ApproxBytes(), "group-id map"));
      q.groups = groups;
      stats->route = RelativeSetRoute::kGroupIds;
      index_bytes_per_row = 0;
    } else {
      stats->route_reason = why;
    }
  }

  // Theorem 4.1 memory staging: ceil(|B| / budget) passes over R. Under a
  // guard soft memory budget the per-pass base partition is additionally
  // capped so the per-pass indexes fit the remaining budget beside the
  // morsels the workers decode — graceful degradation to multi-pass, trading
  // scans of R for memory, before the hard limit ever has to fail the query.
  if (guard != nullptr && guard->has_memory_budget() && index_bytes_per_row > 0 &&
      nbase > 0) {
    const int64_t fit =
        (guard->remaining_soft_bytes() - workers * detail.morsel_bytes()) /
        index_bytes_per_row;
    if (fit < rows_per_pass) {
      rows_per_pass = std::max<int64_t>(1, fit);
      stats->memory_degraded = true;
    }
  }
  stats->base_rows_per_pass_effective = rows_per_pass;

  // The schedule: B splits into `fragments` contiguous fragments, each cut
  // into jobs of at most rows_per_pass rows; a pass runs consecutive jobs
  // whose rows together fit rows_per_pass (at least one job per pass).
  std::vector<std::vector<std::pair<int64_t, int64_t>>> passes;
  {
    int64_t start = 0, pass_rows = 0;
    for (int f = 0; f < fragments; ++f) {
      const int64_t len = nbase / fragments + (f < nbase % fragments ? 1 : 0);
      for (int64_t lo = start; lo < start + len; lo += rows_per_pass) {
        const int64_t hi = std::min(lo + rows_per_pass, start + len);
        if (passes.empty() || pass_rows + (hi - lo) > rows_per_pass) {
          passes.emplace_back();
          pass_rows = 0;
        }
        passes.back().emplace_back(lo, hi);
        pass_rows += hi - lo;
      }
      start += len;
    }
  }

  std::vector<std::unique_ptr<DetailScanWorker>> slots(static_cast<size_t>(workers));
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers);

  stats->setup_ms += MsSince(setup_start);
  Status run = [&]() -> Status {
    if (provably_empty) {
      stats->blocks_pruned += detail.pruned_per_pass();
      return Status::OK();
    }
    for (const auto& pass : passes) {
      Span pass_span("mdjoin.pass", "mdjoin");
      pass_span.SetArg("pass", stats->passes_over_detail);
      ++stats->passes_over_detail;
      stats->blocks_pruned += detail.pruned_per_pass();
      const auto prepare_start = std::chrono::steady_clock::now();
      std::vector<DetailScan> jobs;
      jobs.reserve(pass.size());
      for (const auto& [lo, hi] : pass) {
        MDJ_ASSIGN_OR_RETURN(DetailScan job, DetailScan::Prepare(q, lo, hi, guard));
        stats->index_masks += job.index_masks();
        jobs.push_back(std::move(job));
      }
      stats->setup_ms += MsSince(prepare_start);
      const auto scan_start = std::chrono::steady_clock::now();
      MorselScheduler scheduler(static_cast<int64_t>(jobs.size()), detail.num_morsels());
      Status st = RunTasks(pool.get(), workers, guard, [&](int w) -> Status {
        // Allocated inside the task so its partial-state columns are
        // first-touched on the thread that updates them.
        std::unique_ptr<DetailScanWorker>& slot = slots[static_cast<size_t>(w)];
        if (slot == nullptr) {
          slot = std::make_unique<DetailScanWorker>(nbase, q.aggs, q.comps.size(), guard);
        }
        return ScanMorsels(jobs, detail, &scheduler, guard, w, slot.get());
      });
      stats->morsels += scheduler.dispatched();
      stats->steal_waits += scheduler.steal_waits();
      stats->scan_ms += MsSince(scan_start);
      MDJ_RETURN_NOT_OK(st);
      // Leaving the scope releases this pass's indexes before the next
      // pass's are built, and the last pass's before finalize.
    }
    return Status::OK();
  }();

  // Worker counters fold into *stats before any error exit, so cancelled
  // queries report how far they got.
  for (const auto& slot : slots) {
    if (slot != nullptr) stats->Accumulate(slot->stats);
  }
  static Counter* c_morsels = MetricsRegistry::Global().GetCounter(
      "mdjoin_morsels_dispatched_total", "morsels claimed from scan cursors");
  static Counter* c_steals = MetricsRegistry::Global().GetCounter(
      "mdjoin_steal_waits_total", "drained cursor polls (workers finding no work)");
  c_morsels->Increment(stats->morsels);
  c_steals->Increment(stats->steal_waits);
  MDJ_RETURN_NOT_OK(run);

  // The short-circuit never made a worker: create one so finalization has the
  // pre-allocated identity states.
  if (slots[0] == nullptr) {
    slots[0] = std::make_unique<DetailScanWorker>(nbase, q.aggs, q.comps.size(), guard);
  }
  // Pairwise tree merge: level k combines slots i and i + 2^k, so each
  // level's merges touch disjoint slots and run concurrently; slots[0] ends
  // up holding the grand total after ⌈log₂ workers⌉ levels.
  const auto merge_start = std::chrono::steady_clock::now();
  for (int step = 1; step < workers; step *= 2) {
    const int pairs = (workers - step + 2 * step - 1) / (2 * step);
    MDJ_RETURN_NOT_OK(RunTasks(pool.get(), pairs, guard, [&](int p) -> Status {
      const size_t into = 2 * static_cast<size_t>(step) * static_cast<size_t>(p);
      const size_t from = into + static_cast<size_t>(step);
      if (slots[from] == nullptr) return Status::OK();
      Span merge_span("merge_partials", "parallel");
      merge_span.SetArg("into", static_cast<int64_t>(into));
      merge_span.SetArg("from", static_cast<int64_t>(from));
      return MergeWorkerPartials(slots[into].get(), *slots[from], guard);
    }));
  }
  pool.reset();
  slots.resize(1);
  partial_bytes.Release();
  map_bytes.Release();
  stats->merge_ms += MsSince(merge_start);

  // Output: base columns, then one column per aggregate finalized column by
  // column from the merged states.
  const auto finalize_start = std::chrono::steady_clock::now();
  ScopedReservation output_bytes;
  MDJ_RETURN_NOT_OK(output_bytes.Reserve(
      guard,
      nbase * static_cast<int64_t>(base.num_columns() + q.aggs.size()) *
          kGuardBytesPerOutputCell,
      "materialized output"));
  const DetailScanWorker& merged = *slots[0];
  Table out;
  for (int c = 0; c < base.num_columns(); ++c) {
    std::vector<Value> col = base.column(c);
    MDJ_RETURN_NOT_OK(out.AddColumn(base.schema().field(c), std::move(col)));
  }
  for (size_t a = 0; a < q.aggs.size(); ++a) {
    std::vector<Value> col(static_cast<size_t>(nbase));
    for (int64_t r = 0; r < nbase; ++r) {
      col[static_cast<size_t>(r)] = merged.cols[a].Finalize(r);
    }
    MDJ_RETURN_NOT_OK(out.AddColumn(q.aggs[a].output_field, std::move(col)));
  }
  stats->finalize_ms += MsSince(finalize_start);
  return out;
}

}  // namespace mdjoin
