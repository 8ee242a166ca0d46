#include "optimizer/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <set>

#include "analyze/plan_analyzer.h"
#include "analyze/plan_invariants.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/cost.h"
#include "stats/feedback.h"

#include "core/detail_scan.h"
#include "cube/base_tables.h"
#include "expr/conjuncts.h"
#include "ra/filter.h"
#include "ra/group_by.h"
#include "ra/join.h"
#include "ra/project.h"
#include "storage/out_of_core.h"
#include "storage/spill.h"
#include "table/table_ops.h"

namespace mdjoin {

namespace {

/// Optional memo for ExecutePlanCse: explain-rendering of a subtree → result.
using CseCache = std::unordered_map<std::string, Table>;

Result<Table> Exec(const PlanPtr& plan, const Catalog& catalog,
                   const MdJoinOptions& md_options, ExecStats* stats,
                   CseCache* cse = nullptr, OperatorProfile* parent_profile = nullptr);

Result<Table> ExecNode(const PlanPtr& plan, const Catalog& catalog,
                       const MdJoinOptions& md_options, ExecStats* stats,
                       CseCache* cse, OperatorProfile* profile = nullptr);

Status AccountMaterialization(const MdJoinOptions& md_options, const Table& t);

/// CPU time of the calling thread, for OperatorProfile::cpu_ms. The executor
/// recurses on one thread, so this is inclusive of children (like elapsed_ms)
/// but excludes the MD-join driver's worker threads — a node whose wall time
/// far exceeds its cpu_ms is either parallel or blocked.
double ThreadCpuMs() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

Result<Table> Exec(const PlanPtr& plan, const Catalog& catalog,
                   const MdJoinOptions& md_options, ExecStats* stats, CseCache* cse,
                   OperatorProfile* parent_profile) {
  // Guard gate per plan node: a cancel/deadline issued between operators is
  // observed here even when no MD-join scan is running; inside scans the
  // stride checks take over.
  if (md_options.guard != nullptr) {
    MDJ_RETURN_NOT_OK(md_options.guard->Check());
  }
  if (MDJ_FAILPOINT("executor:node_error")) {
    return Status::Internal("plan node '", plan->Label(),
                            "' failed (failpoint executor:node_error)");
  }
  Span node_span(PlanKindToString(plan->kind()), "plan");
  if (parent_profile != nullptr) {
    auto node = std::make_unique<OperatorProfile>();
    OperatorProfile* raw = node.get();
    raw->label = plan->Label();
    parent_profile->children.push_back(std::move(node));
    const auto start = std::chrono::steady_clock::now();
    const double cpu_start = ThreadCpuMs();
    Result<Table> result = ExecNode(plan, catalog, md_options, stats, cse, raw);
    raw->elapsed_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  start)
            .count();
    raw->cpu_ms = ThreadCpuMs() - cpu_start;
    double child_ms = 0;
    for (const auto& c : raw->children) child_ms += c->elapsed_ms;
    raw->self_ms = raw->elapsed_ms - child_ms;
    if (result.ok()) {
      raw->output_rows = result->num_rows();
      node_span.SetArg("rows", raw->output_rows);
      MDJ_RETURN_NOT_OK(AccountMaterialization(md_options, *result));
    }
    return result;
  }
  if (cse != nullptr) {
    std::string key = ExplainPlan(plan);
    auto it = cse->find(key);
    if (it != cse->end()) {
      ++stats->cse_hits;
      return it->second.Clone();
    }
    MDJ_ASSIGN_OR_RETURN(Table out, ExecNode(plan, catalog, md_options, stats, cse));
    MDJ_RETURN_NOT_OK(AccountMaterialization(md_options, out));
    cse->emplace(std::move(key), out.Clone());
    return out;
  }
  MDJ_ASSIGN_OR_RETURN(Table out, ExecNode(plan, catalog, md_options, stats, cse));
  MDJ_RETURN_NOT_OK(AccountMaterialization(md_options, out));
  return out;
}

/// Charges a freshly materialized node output against the guard's memory
/// accountant. The reservation is transient (released immediately): the
/// executor hands tables up the tree rather than owning them, so this checks
/// each materialization against the hard limit and feeds the high-water
/// counter without double-charging long-lived results. ApproxBytes walks
/// every cell, so it runs once.
Status AccountMaterialization(const MdJoinOptions& md_options, const Table& t) {
  if (md_options.guard == nullptr) return Status::OK();
  const int64_t bytes = t.ApproxBytes();
  MDJ_RETURN_NOT_OK(md_options.guard->ReserveBytes(bytes, "materialized node output"));
  md_options.guard->ReleaseBytes(bytes);
  return Status::OK();
}

/// R as an MD-join or a base generator reads it. A plan
/// σ_p1(…σ_pk(TableRef T)…) resolves to T where it lives — the catalog's own
/// Table, read in place (no clone, so its typed mirror, flat kernels and
/// code-key memos engage), or a paged table, read block by block — plus the
/// conjuncts of p1…pk, which run as θ conjuncts (Theorem 4.2 read right to
/// left) or through the generator's kernels instead of as a Filter. Any
/// other plan is executed once into `owned`.
struct DetailInput {
  const Table* table = nullptr;       // the catalog's table, read in place
  const PagedTable* paged = nullptr;  // a paged catalog table
  Table owned;                        // the executed plan, when R did not resolve
  std::vector<ExprPtr> where;         // selections on R folded into θ

  const char* read() const {
    return paged != nullptr ? "blocks" : table != nullptr ? "in_place" : "materialized";
  }

  /// A source over R that skips the morsels no θ of `prune_by` can match
  /// (PlanMorselPruning over the blocks' or the mirror's zone maps) and, on
  /// paged storage, decodes only the chunks of `columns`. An executed R has
  /// no mirror, so it is read whole.
  std::unique_ptr<DetailSource> Source(BlockCache* cache,
                                       const std::vector<MdJoinComponent>& prune_by,
                                       const std::set<std::string>& columns) const {
    if (paged != nullptr) {
      return std::make_unique<PagedSource>(*paged, cache, prune_by, columns);
    }
    if (table != nullptr && table->accel() != nullptr) {
      return std::make_unique<TableSource>(
          *table, PlanMorselPruning(table->schema(), table->accel()->zones, prune_by));
    }
    return std::make_unique<TableSource>(table != nullptr ? *table : owned);
  }

  /// The selections as one condition; null without any.
  ExprPtr Folded() const { return where.empty() ? nullptr : CombineConjuncts(where); }
};

/// Fills `in` with the catalog storage `plan` reads and its selections, or
/// else with the executed plan (profiled as a child of `profile`).
Status ReadDetail(const PlanPtr& plan, const Catalog& catalog,
                  const MdJoinOptions& md_options, ExecStats* stats, CseCache* cse,
                  OperatorProfile* profile, DetailInput* in) {
  DetailSelections peeled = PeelDetailSelections(plan);
  const PlanPtr& node = peeled.inner;
  if (node->kind() == PlanKind::kTableRef) {
    in->paged = catalog.FindPaged(node->table_name);
    if (in->paged == nullptr) {
      Result<const Table*> table = catalog.Lookup(node->table_name);
      if (table.ok()) in->table = *table;
    }
  }
  if (in->paged == nullptr && in->table == nullptr) {
    MDJ_ASSIGN_OR_RETURN(in->owned, Exec(plan, catalog, md_options, stats, cse, profile));
    return Status::OK();
  }
  in->where = std::move(peeled.conjuncts);
  return Status::OK();
}

/// `components` with `where` ANDed into every θ.
std::vector<MdJoinComponent> FoldIntoTheta(std::vector<MdJoinComponent> components,
                                           const std::vector<ExprPtr>& where) {
  if (where.empty()) return components;
  for (MdJoinComponent& c : components) {
    if (c.theta == nullptr) continue;  // the driver rejects it
    std::vector<ExprPtr> conjuncts = {c.theta};
    conjuncts.insert(conjuncts.end(), where.begin(), where.end());
    c.theta = CombineConjuncts(std::move(conjuncts));
  }
  return components;
}

/// The cuboids `masks` of R over `dims` from one generator pass over `in`
/// (its selections applied by the generator's kernels; R skips the morsels
/// they refute), with `groups` as CuboidsFromFinest fills it. How R was read
/// and its block counts go on `profile`.
Result<Table> Generate(const DetailInput& in, const std::vector<std::string>& dims,
                       const std::vector<CuboidMask>& masks,
                       const MdJoinOptions& md_options, OperatorProfile* profile,
                       GroupIdMap* groups) {
  const ExprPtr folded = in.Folded();
  std::vector<MdJoinComponent> prune_by;
  if (folded != nullptr) prune_by.push_back({{}, folded});
  std::set<std::string> columns(dims.begin(), dims.end());
  for (const ExprPtr& w : in.where) w->CollectColumns(Side::kDetail, &columns);
  const std::unique_ptr<DetailSource> source =
      in.Source(md_options.block_cache, prune_by, columns);
  MdJoinStats reads;
  Result<Table> base =
      CuboidsFromFinest(*source, dims, masks, in.where, md_options.guard, &reads, groups);
  if (profile != nullptr) {
    profile->read = in.read();
    profile->columns = source->decoded_columns();
    if (folded != nullptr) profile->folded = folded->ToString();
    profile->blocks_read = reads.blocks_read;
    profile->blocks_pruned = source->pruned_per_pass();
    profile->blocks_faulted = reads.blocks_faulted;
    profile->block_cache_hits = reads.block_cache_hits;
  }
  return base;
}

/// Copies one MD-join evaluation's counters into an operator profile.
void FillMdJoinProfile(OperatorProfile* profile, const MdJoinStats& s) {
  profile->is_mdjoin = true;
  profile->route = RelativeSetRouteName(s.route);
  if (s.route_reason != nullptr) profile->route_reason = s.route_reason;
  if (s.read != nullptr) profile->read = s.read;
  profile->columns = s.columns;
  if (s.folded != nullptr) profile->folded = s.folded->ToString();
  profile->setup_ms = s.setup_ms;
  profile->scan_ms = s.scan_ms;
  profile->merge_ms = s.merge_ms;
  profile->finalize_ms = s.finalize_ms;
  profile->detail_rows_scanned = s.detail_rows_scanned;
  profile->detail_rows_qualified = s.detail_rows_qualified;
  profile->candidate_pairs = s.candidate_pairs;
  profile->matched_pairs = s.matched_pairs;
  profile->agg_updates = s.agg_updates;
  profile->passes = s.passes_over_detail;
  profile->blocks = s.blocks;
  profile->kernel_invocations = s.kernel_invocations;
  profile->index_probe_lookups = s.index_probe_lookups;
  profile->index_probe_memo_hits = s.index_probe_memo_hits;
  profile->morsels = s.morsels;
  profile->steal_waits = s.steal_waits;
  profile->num_threads = std::max(1, s.threads);
  profile->blocks_read = s.blocks_read;
  profile->blocks_pruned = s.blocks_pruned;
  profile->blocks_faulted = s.blocks_faulted;
  profile->block_cache_hits = s.block_cache_hits;
  profile->spill_partitions = s.spill_partitions;
  profile->spill_bytes_written = s.spill_bytes_written;
}

/// The base child of a CertifyGroupIds-certified MD-join: one generator pass
/// over R′ builds B and fills `groups`. R′ is read where it lives when it
/// resolves; otherwise it is executed once into `detail`, which the MD-join
/// then scans too. Profiled as the join's base child (plus R′'s executed
/// plan after it, in the detail position), so the profile keeps the plan's
/// shape; the base node's time is the generator's alone.
Result<Table> ExecGroupedBase(const PlanPtr& plan, const GroupIdsCertificate& cert,
                              const Catalog& catalog, const MdJoinOptions& md_options,
                              ExecStats* stats, CseCache* cse, OperatorProfile* profile,
                              DetailInput* detail, GroupIdMap* groups) {
  const PlanPtr& base_plan = plan->child(0);
  OperatorProfile* node = nullptr;
  if (profile != nullptr) {
    profile->children.push_back(std::make_unique<OperatorProfile>());
    node = profile->children.back().get();
    node->label = base_plan->Label();
  }
  MDJ_RETURN_NOT_OK(
      ReadDetail(cert.detail, catalog, md_options, stats, cse, profile, detail));
  ++stats->nodes_executed;
  Span span(PlanKindToString(base_plan->kind()), "plan");
  const auto start = std::chrono::steady_clock::now();
  const double cpu_start = ThreadCpuMs();
  Result<Table> base = Generate(*detail, cert.dims, cert.masks, md_options, node, groups);
  if (node != nullptr) {
    node->elapsed_ms = node->self_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    node->cpu_ms = ThreadCpuMs() - cpu_start;
    if (base.ok()) node->output_rows = base->num_rows();
  }
  MDJ_RETURN_NOT_OK(base.status());
  stats->rows_materialized += base->num_rows();
  MDJ_RETURN_NOT_OK(AccountMaterialization(md_options, *base));
  return base;
}

Result<Table> ExecNode(const PlanPtr& plan, const Catalog& catalog,
                       const MdJoinOptions& md_options, ExecStats* stats,
                       CseCache* cse, OperatorProfile* profile) {
  ++stats->nodes_executed;
  switch (plan->kind()) {
    case PlanKind::kTableRef: {
      // A relation consumed outside an MD-join's detail position or a base
      // generator's input (which read it where it lives, DetailInput):
      // copied whole, a paged one decoded block by block and charged to the
      // guard while assembling.
      ++stats->tables_materialized;
      if (const PagedTable* paged = catalog.FindPaged(plan->table_name)) {
        MDJ_ASSIGN_OR_RETURN(Table all, paged->ReadAll(md_options.guard));
        if (profile != nullptr) {
          profile->blocks_read = profile->blocks_faulted = paged->num_blocks();
        }
        stats->rows_materialized += all.num_rows();
        return all;
      }
      MDJ_ASSIGN_OR_RETURN(const Table* t, catalog.Lookup(plan->table_name));
      Table copy = t->Clone();
      stats->rows_materialized += copy.num_rows();
      return copy;
    }
    case PlanKind::kFilter: {
      MDJ_ASSIGN_OR_RETURN(Table child, Exec(plan->child(0), catalog, md_options, stats, cse, profile));
      MDJ_ASSIGN_OR_RETURN(Table out, Filter(child, plan->predicate));
      stats->rows_materialized += out.num_rows();
      return out;
    }
    case PlanKind::kProject: {
      MDJ_ASSIGN_OR_RETURN(Table child, Exec(plan->child(0), catalog, md_options, stats, cse, profile));
      MDJ_ASSIGN_OR_RETURN(Table out, Project(std::move(child), plan->projections));
      stats->rows_materialized += out.num_rows();
      return out;
    }
    case PlanKind::kDistinct: {
      MDJ_ASSIGN_OR_RETURN(Table child, Exec(plan->child(0), catalog, md_options, stats, cse, profile));
      Table out = Distinct(child);
      stats->rows_materialized += out.num_rows();
      return out;
    }
    case PlanKind::kUnion: {
      std::vector<Table> pieces;
      pieces.reserve(plan->children().size());
      for (const PlanPtr& c : plan->children()) {
        MDJ_ASSIGN_OR_RETURN(Table piece, Exec(c, catalog, md_options, stats, cse, profile));
        pieces.push_back(std::move(piece));
      }
      MDJ_ASSIGN_OR_RETURN(Table out, ConcatAll(pieces));
      stats->rows_materialized += out.num_rows();
      return out;
    }
    case PlanKind::kPartition: {
      MDJ_ASSIGN_OR_RETURN(Table child, Exec(plan->child(0), catalog, md_options, stats, cse, profile));
      std::vector<Table> parts = PartitionIntoN(child, plan->partition_count);
      Table out = std::move(parts[static_cast<size_t>(plan->partition_index)]);
      stats->rows_materialized += out.num_rows();
      return out;
    }
    case PlanKind::kHashJoin: {
      MDJ_ASSIGN_OR_RETURN(Table left, Exec(plan->child(0), catalog, md_options, stats, cse, profile));
      MDJ_ASSIGN_OR_RETURN(Table right, Exec(plan->child(1), catalog, md_options, stats, cse, profile));
      MDJ_ASSIGN_OR_RETURN(Table out, HashJoin(left, right, plan->left_keys,
                                               plan->right_keys, plan->join_type));
      stats->rows_materialized += out.num_rows();
      return out;
    }
    case PlanKind::kGroupBy: {
      MDJ_ASSIGN_OR_RETURN(Table child, Exec(plan->child(0), catalog, md_options, stats, cse, profile));
      MDJ_ASSIGN_OR_RETURN(Table out, GroupBy(child, plan->group_columns, plan->aggs));
      stats->rows_materialized += out.num_rows();
      return out;
    }
    case PlanKind::kMdJoin:
    case PlanKind::kGeneralizedMdJoin: {
      std::vector<MdJoinComponent> components =
          plan->kind() == PlanKind::kMdJoin
              ? std::vector<MdJoinComponent>{{plan->aggs, plan->theta}}
              : plan->components;
      // B generated from the detail relation itself: one generator pass over
      // R′ gives B and each detail row's relative set by group id; the
      // selections between the detail child and R′ join R′'s in θ.
      const Result<GroupIdsCertificate> by_groups = CertifyGroupIds(plan);
      GroupIdMap groups;
      Table base;
      DetailInput detail;
      if (by_groups.ok()) {
        MDJ_ASSIGN_OR_RETURN(base,
                             ExecGroupedBase(plan, *by_groups, catalog, md_options, stats,
                                             cse, profile, &detail, &groups));
        detail.where.insert(detail.where.end(), by_groups->extra.begin(),
                            by_groups->extra.end());
      } else {
        MDJ_ASSIGN_OR_RETURN(base, Exec(plan->child(0), catalog, md_options, stats, cse, profile));
        MDJ_RETURN_NOT_OK(ReadDetail(plan->child(1), catalog, md_options, stats, cse,
                                     profile, &detail));
      }
      components = FoldIntoTheta(std::move(components), detail.where);
      const std::unique_ptr<DetailSource> source =
          detail.Source(md_options.block_cache, components, DetailColumns(components));
      ++stats->mdjoin_operators;
      MdJoinStats md_stats;
      Result<Table> out = SourceMdJoin(base, *source, components, md_options, &md_stats,
                                       by_groups.ok() ? &groups : nullptr);
      md_stats.read = detail.read();
      md_stats.folded = detail.Folded();
      md_stats.columns = source->decoded_columns();
      stats->detail_rows_scanned += md_stats.detail_rows_scanned;
      stats->candidate_pairs += md_stats.candidate_pairs;
      stats->matched_pairs += md_stats.matched_pairs;
      // On failure the stats still hold partial counts; the profile takes
      // them either way so a cancelled query's profile stays truthful.
      if (profile != nullptr) {
        FillMdJoinProfile(profile, md_stats);
        if (!by_groups.ok()) {
          // The diagnostic reads "[error] <rule> at <path>: <why>".
          const std::string& why = by_groups.status().message();
          const size_t colon = why.find(": ");
          profile->route_reason = colon == std::string::npos ? why : why.substr(colon + 2);
        }
      }
      MDJ_RETURN_NOT_OK(out.status());
      stats->rows_materialized += out->num_rows();
      return out;
    }
    case PlanKind::kCubeBase:
    case PlanKind::kCuboidBase: {
      std::vector<CuboidMask> masks = {plan->cuboid_mask};
      if (plan->kind() == PlanKind::kCubeBase) {
        MDJ_ASSIGN_OR_RETURN(CubeLattice lattice, CubeLattice::Make(plan->cube_dims));
        masks = CubeMasks(lattice);
      }
      DetailInput input;
      MDJ_RETURN_NOT_OK(
          ReadDetail(plan->child(0), catalog, md_options, stats, cse, profile, &input));
      MDJ_ASSIGN_OR_RETURN(Table out, Generate(input, plan->cube_dims, masks, md_options,
                                               profile, /*groups=*/nullptr));
      stats->rows_materialized += out.num_rows();
      return out;
    }
    case PlanKind::kSort: {
      MDJ_ASSIGN_OR_RETURN(Table child, Exec(plan->child(0), catalog, md_options, stats, cse, profile));
      MDJ_ASSIGN_OR_RETURN(std::vector<int> cols,
                           ResolveColumns(child.schema(), plan->sort_columns));
      std::vector<SortKey> keys;
      for (size_t i = 0; i < cols.size(); ++i) {
        keys.push_back({cols[i], plan->sort_ascending[i]});
      }
      Table out = SortTable(child, keys);
      stats->rows_materialized += out.num_rows();
      return out;
    }
    case PlanKind::kEmptyRef: {
      if (plan->empty_schema == nullptr) {
        return Status::InvalidArgument("EmptyRef carries no schema");
      }
      return Table{*plan->empty_schema};
    }
  }
  return Status::Internal("unreachable plan kind");
}

/// Debug invariant mode: statically verify the plan before evaluating it,
/// when asked to by the options or the MDJOIN_VERIFY_PLANS environment
/// variable. Executing an ill-formed tree would surface as a confusing
/// runtime error deep inside some operator; the analyzer diagnostic names
/// the offending node and rule instead.
/// Lockstep walk over the plan and profile trees, annotating each profiled
/// operator with the cost model's estimated cardinality. Estimation runs over
/// the same catalog (and optional feedback store) the optimizer saw, so
/// `est=` in the rendering is the number the plan was ranked with. Profile
/// children can be a prefix of plan children (R read where it lives is never
/// executed), hence the bounds guard, and a group-id join's executed R′ may
/// sit where its detail child σ(R′) is, hence the label check; a failed
/// estimate leaves est_rows at -1 and the node renders without it.
void AnnotateEstimates(const PlanPtr& plan, OperatorProfile* profile,
                       const Catalog& catalog, const FeedbackStore* feedback) {
  if (plan == nullptr || profile == nullptr || profile->label != plan->Label()) return;
  Result<PlanCost> cost = EstimateCost(plan, catalog, feedback);
  if (cost.ok()) profile->est_rows = cost->output_rows;
  const size_t n = std::min(profile->children.size(), plan->children().size());
  for (size_t i = 0; i < n; ++i) {
    AnnotateEstimates(plan->child(static_cast<int>(i)), profile->children[i].get(),
                      catalog, feedback);
  }
}

double MaxQError(const OperatorProfile& node) {
  double worst = node.qerror();
  for (const auto& child : node.children) {
    worst = std::max(worst, MaxQError(*child));
  }
  return worst;
}

/// Feeds each operator's measured output cardinality (and for MD-joins the
/// detail-scan volume and selectivity) back into the store under the
/// subtree's fingerprint. Runs only on complete executions: partial counts
/// from a tripped guard would poison the EWMA.
void HarvestFeedback(const PlanPtr& plan, const OperatorProfile& profile,
                     FeedbackStore* feedback) {
  if (profile.label != plan->Label()) return;  // see AnnotateEstimates
  feedback->Record(PlanFingerprint(plan),
                   static_cast<double>(profile.output_rows),
                   profile.is_mdjoin
                       ? static_cast<double>(profile.detail_rows_scanned)
                       : -1.0,
                   profile.is_mdjoin ? profile.selectivity() : -1.0);
  const size_t n = std::min(profile.children.size(), plan->children().size());
  for (size_t i = 0; i < n; ++i) {
    HarvestFeedback(plan->child(static_cast<int>(i)), *profile.children[i],
                    feedback);
  }
}

Histogram* PlanQErrorHistogram() {
  static Histogram* h = MetricsRegistry::Global().GetHistogram(
      "mdjoin_plan_qerror", {1, 2, 3, 5, 8, 16, 32, 64, 128, 256},
      "per-query worst cardinality q-error of EXPLAIN ANALYZE estimates");
  return h;
}

Status MaybeVerify(const PlanPtr& plan, const Catalog& catalog,
                   const MdJoinOptions& md_options, const char* context) {
  if (!md_options.verify_plans && !VerifyPlansEnabledByEnv()) return Status::OK();
  return VerifyPlan(plan, catalog, context);
}

}  // namespace

Result<Table> ExecutePlan(const PlanPtr& plan, const Catalog& catalog,
                          const MdJoinOptions& md_options, ExecStats* stats) {
  if (plan == nullptr) return Status::InvalidArgument("ExecutePlan: null plan");
  MDJ_RETURN_NOT_OK(MaybeVerify(plan, catalog, md_options, "ExecutePlan"));
  ExecStats local;
  if (stats == nullptr) stats = &local;
  *stats = ExecStats{};
  return Exec(plan, catalog, md_options, stats);
}

Result<Table> ExecutePlanCse(const PlanPtr& plan, const Catalog& catalog,
                             const MdJoinOptions& md_options, ExecStats* stats) {
  if (plan == nullptr) return Status::InvalidArgument("ExecutePlanCse: null plan");
  MDJ_RETURN_NOT_OK(MaybeVerify(plan, catalog, md_options, "ExecutePlanCse"));
  ExecStats local;
  if (stats == nullptr) stats = &local;
  *stats = ExecStats{};
  CseCache cache;
  return Exec(plan, catalog, md_options, stats, &cache);
}

Result<Table> ExplainAnalyze(const PlanPtr& plan, const Catalog& catalog,
                             const MdJoinOptions& md_options, QueryProfile* profile) {
  if (profile == nullptr) {
    return Status::InvalidArgument("ExplainAnalyze: null profile");
  }
  // The rewrite log is the optimizer's contribution (filled before this
  // call); everything execution-owned starts fresh.
  profile->root.reset();
  profile->complete = false;
  profile->terminal.clear();
  profile->total_ms = 0;
  profile->max_qerror = -1;
  profile->analysis = StaticAnalysisReport(plan, catalog);

  Status setup = [&]() -> Status {
    if (plan == nullptr) return Status::InvalidArgument("ExplainAnalyze: null plan");
    return MaybeVerify(plan, catalog, md_options, "ExplainAnalyze");
  }();
  if (!setup.ok()) {
    profile->terminal = setup.ToString();
    return setup;
  }

  ExecStats stats;
  OperatorProfile holder;  // transient parent; its first child is the real root
  holder.label = "(root)";
  const auto start = std::chrono::steady_clock::now();
  Result<Table> result =
      Exec(plan, catalog, md_options, &stats, /*cse=*/nullptr, &holder);
  profile->total_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start)
          .count();
  if (!holder.children.empty()) {
    profile->root = std::move(holder.children[0]);
  } else {
    // The root node failed before its profile was created (pre-issued cancel
    // observed at the guard gate); a stub keeps the profile well-formed.
    profile->root = std::make_unique<OperatorProfile>();
    profile->root->label = plan->Label();
  }
  profile->complete = result.ok();
  profile->terminal = result.ok() ? "ok" : result.status().ToString();
  // Estimated-vs-actual: annotate with what the cost model (plus any prior
  // feedback) would have predicted, THEN harvest this run's measurements —
  // the ordering is what makes a repeated query's q-error shrink run over
  // run instead of trivially matching itself.
  AnnotateEstimates(plan, profile->root.get(), catalog, md_options.feedback);
  profile->max_qerror = MaxQError(*profile->root);
  if (profile->complete && profile->max_qerror >= 0) {
    PlanQErrorHistogram()->Observe(
        static_cast<int64_t>(std::llround(profile->max_qerror)));
  }
  if (profile->complete && md_options.feedback != nullptr) {
    HarvestFeedback(plan, *profile->root, md_options.feedback);
  }
  return result;
}

std::string ProfiledResult::ToString() const { return profile.ToText(); }

Result<ProfiledResult> ExecutePlanProfiled(const PlanPtr& plan, const Catalog& catalog,
                                           const MdJoinOptions& md_options) {
  ProfiledResult result;
  MDJ_ASSIGN_OR_RETURN(result.table,
                       ExplainAnalyze(plan, catalog, md_options, &result.profile));
  return result;
}

}  // namespace mdjoin
