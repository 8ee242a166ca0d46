/// Group-id relative sets: when B is generated from R itself (group(...),
/// CUBE BY, ROLLUP, GROUPING SETS, UNPIVOT) the generator hands the MD-join
/// each detail row's relative set by group id (GroupIdMap) instead of an
/// index over B. A differential suite over random R holding NULL, ALL, NaN,
/// ±0 and int64 cells in float64 key columns: from query text (with `where`
/// selections that fold into θ, pivot and chain shapes, and SUCH THAT
/// conjuncts the optimizer pushes into σ(R)) and through the table API, on
/// memory and on paged storage (tiny blocks, block cache on and off), at 1,
/// 2 and 8 threads, under a guard too small for the map, with forced
/// Theorem-4.1 passes and with spill. Every result is bit-identical to
/// Definition 3.1 (MdJoinReference) over the unoptimized plan, the
/// generator's B equals a per-cuboid dedup of R row for row, and each run
/// reports the route the configuration calls for. Over a year-sorted R of
/// 21 morsels, year selections prune the same morsels in memory as in a
/// paged copy of 1024-row blocks.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <memory>

#include "analyze/binder.h"
#include "analyze/plan_analyzer.h"
#include "common/random.h"
#include "core/generalized.h"
#include "core/mdjoin.h"
#include "core/reference.h"
#include "cube/base_tables.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "optimizer/executor.h"
#include "optimizer/optimize.h"
#include "optimizer/plan.h"
#include "ra/filter.h"
#include "ra/project.h"
#include "storage/block_cache.h"
#include "storage/block_format.h"
#include "storage/out_of_core.h"
#include "storage/paged_table.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using testutil::F;
using testutil::I;
using testutil::S;

/// What the key columns of R may hold besides NULL and ±0. Each of the last
/// three makes θ-equality and group membership disagree somewhere, so the
/// map is unusable and the join must fall back to the index.
enum class Flavor { kExact, kNaN, kAll, kMixed };

/// R(k0 int64, k1 float64, k2 string, yr int64, v float64) over tiny key
/// domains, so groups hold several rows. v is integral, so sums are exact
/// in any order and results compare bit for bit at any thread count. With
/// `sorted_years`, yr climbs 1, 2, ... every 512 rows instead of being
/// drawn from 1..3, so morsels hold few years and year ranges prune them.
Table RandomR(uint64_t seed, int64_t rows, Flavor flavor, bool sorted_years = false) {
  Random rng(seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Value> k1s = {F(0.0), F(-0.0), F(1.5), F(2.0), Value::Null()};
  if (flavor == Flavor::kNaN) k1s.push_back(F(nan));
  if (flavor == Flavor::kMixed) k1s.push_back(I(2));
  const std::vector<Value> k2s = {S("x"), S("y"), S(""), Value::Null()};
  TableBuilder b({{"k0", DataType::kInt64},
                  {"k1", DataType::kFloat64},
                  {"k2", DataType::kString},
                  {"yr", DataType::kInt64},
                  {"v", DataType::kFloat64}});
  for (int64_t r = 0; r < rows; ++r) {
    Value k0 = rng.Uniform(9) == 0 ? Value::Null() : I(rng.UniformInt(1, 3));
    if (flavor == Flavor::kAll && rng.Uniform(9) == 0) k0 = Value::All();
    Value k1 = k1s[rng.Uniform(k1s.size())];
    Value k2 = k2s[rng.Uniform(k2s.size())];
    const int64_t yr = sorted_years ? 1 + r / 512 : rng.UniformInt(1, 3);
    b.AppendRowOrDie({std::move(k0), std::move(k1), std::move(k2), I(yr),
                      F(static_cast<double>(rng.UniformInt(1, 500)))});
  }
  return std::move(b).Finish();
}

const std::vector<std::string>& Dims() {
  static const std::vector<std::string> dims = {"k0", "k1", "k2"};
  return dims;
}

/// The generators' reference semantics: per cuboid, one dedup of all of `t`
/// (CuboidBase), cuboids in `masks` order.
Table PerCuboid(const Table& t, const std::vector<std::string>& dims,
                const std::vector<CuboidMask>& masks) {
  const CubeLattice lattice = *CubeLattice::Make(dims);
  std::vector<Table> pieces;
  for (CuboidMask mask : masks) pieces.push_back(*CuboidBase(t, lattice, mask));
  return *ConcatAll(pieces);
}

/// Definition 3.1 over the unoptimized plan: each generator as a per-cuboid
/// dedup of its input, each MD-join through MdJoinReference.
Result<Table> Reference(const PlanPtr& plan, const Table& r) {
  std::vector<Table> in;
  for (const PlanPtr& child : plan->children()) {
    MDJ_ASSIGN_OR_RETURN(Table t, Reference(child, r));
    in.push_back(std::move(t));
  }
  switch (plan->kind()) {
    case PlanKind::kTableRef:
      return r.Clone();
    case PlanKind::kFilter:
      return Filter(in[0], plan->predicate);
    case PlanKind::kProject:
      return Project(std::move(in[0]), plan->projections);
    case PlanKind::kDistinct:
      return Distinct(in[0]);
    case PlanKind::kUnion:
      return ConcatAll(in);
    case PlanKind::kCuboidBase:
      return PerCuboid(in[0], plan->cube_dims, plan->cuboid_masks);
    case PlanKind::kMdJoin:
      if (plan->components.size() == 1) {
        return MdJoinReference(in[0], in[1], plan->components[0].aggs,
                               plan->components[0].theta);
      }
      return testutil::ReferencePerComponent(in[0], in[1], plan->components);
    case PlanKind::kSort: {
      MDJ_ASSIGN_OR_RETURN(std::vector<int> cols,
                           ResolveColumns(in[0].schema(), plan->sort_columns));
      std::vector<SortKey> keys;
      for (size_t i = 0; i < cols.size(); ++i) {
        keys.push_back({cols[i], plan->sort_ascending[i]});
      }
      return SortTable(in[0], keys);
    }
    default:
      return Status::NotImplemented("reference: ", PlanKindToString(plan->kind()));
  }
}

/// How a run is configured, and the route its generated-base MD-joins must
/// report for a relation whose map is exact.
struct Config {
  const char* name;
  int threads = 1;
  bool tiny_guard = false;     // a soft budget far below the map
  int64_t rows_per_pass = 0;   // forced Theorem-4.1 passes
  bool spill = false;
  const char* reason = nullptr;  // expected fallback reason; null: group ids
};

const std::vector<Config>& Configs() {
  static const std::vector<Config> configs = {
      {"1 thread"},
      {"2 threads", 2},
      {"8 threads", 8},
      {"tiny guard", 1, true, 0, false, "the map does not fit the guard's headroom"},
      {"forced passes", 2, false, 7, false, "B is split into passes"},
      {"spill", 1, false, 0, true, "spill"},
  };
  return configs;
}

/// A paged copy of R, in tiny blocks by default, removed on destruction.
class PagedCopy {
 public:
  explicit PagedCopy(const Table& r, int64_t block_rows = 16) {
    path_ = (std::filesystem::temp_directory_path() /
             ("mdjoin_group_ids_" + std::to_string(reinterpret_cast<uintptr_t>(this)) +
              ".mdjb"))
                .string();
    BlockFileOptions options;
    options.block_size_rows = block_rows;
    MDJ_CHECK(WriteBlockFile(r, path_, options).ok());
    table_ = std::move(*PagedTable::Open(path_));
  }
  ~PagedCopy() {
    table_.reset();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  const PagedTable& table() const { return *table_; }

 private:
  std::string path_;
  std::unique_ptr<PagedTable> table_;
};

/// A block cache far smaller than R's decoded blocks, so scans evict.
BlockCache::Options SmallCache() {
  BlockCache::Options options;
  options.capacity_bytes = 4096;
  return options;
}

/// Every MD-join node of the profile whose base child is a generator.
void GeneratedBaseJoins(const OperatorProfile& node,
                        std::vector<const OperatorProfile*>* out) {
  if (node.is_mdjoin && !node.children.empty()) {
    const std::string& base = node.children[0]->label;
    if (base.rfind("CubeBase", 0) == 0 || base.rfind("CuboidBase", 0) == 0) {
      out->push_back(&node);
    }
  }
  for (const auto& child : node.children) GeneratedBaseJoins(*child, out);
}

/// A query text, and whether its generators see every NaN, ALL and mixed
/// key cell R's flavor holds (no `where`, or one that keeps some of each).
struct Text {
  std::string text;
  bool sees_flavor = false;
};

std::vector<Text> Texts() {
  const std::string select =
      "select k0, k1, k2, sum(v) as s, count(*) as n, min(v) as lo, max(v) as hi, "
      "avg(v) as a from R";
  std::vector<Text> texts;
  for (const std::string& where : {std::string(""), std::string(" where yr > 1")}) {
    texts.push_back({select + where + " analyze by cube(k0, k1, k2)", true});
    texts.push_back({select + where + " analyze by rollup(k0, k1, k2)", true});
    texts.push_back({select + where +
                         " analyze by grouping_sets((k0, k1), (k2), (k0, k1), ())",
                     true});
    texts.push_back({select + where + " analyze by unpivot(k0, k1, k2)", true});
    // A detail-only conjunct and a residual: kernels and the per-pair check
    // run over the group-id candidates as they do over an index.
    texts.push_back({"select k0, k1, k2, sum(X.v) as sx, count(X.*) as nx from R" +
                         where +
                         " analyze by cube(k0, k1, k2) such that X: X.k0 = k0 and "
                         "X.k1 = k1 and X.k2 = k2 and X.v > 100 and X.v + X.yr > 150",
                     true});
  }
  // WHERE of one and two conjuncts (=, <, IN, BETWEEN) over the int64,
  // float64 and string keys, folded into θ and the generator's kernels.
  texts.push_back({"select k0, k1, sum(v) as s, count(*) as n from R where k0 = 2 "
                   "analyze by group(k0, k1)"});
  texts.push_back({"select k2, count(*) as n, max(v) as hi from R "
                   "where k1 < 1.5 and k2 in ('x', '') analyze by group(k2)"});
  texts.push_back({"select k0, k1, k2, sum(v) as s, count(*) as n from R "
                   "where yr between 2 and 3 and k1 = 0.0 "
                   "analyze by rollup(k0, k1, k2)"});
  texts.push_back({"select k0, k1, k2, count(*) as n, min(v) as lo from R "
                   "where k1 in (0.0, 2.0) and k2 < 'y' "
                   "analyze by grouping_sets((k0), (k1, k2))"});
  // The pivot and chain shapes over group(...).
  texts.push_back({"select k0, avg(X.v) as ax, avg(Y.v) as ay, count(Z.*) as nz from R "
                   "analyze by group(k0) such that X: X.k0 = k0 and X.k2 = 'x', "
                   "Y: Y.k0 = k0 and Y.k2 = 'y', Z: Z.k0 = k0 and Z.k1 = 0.0"});
  texts.push_back({"select k0, yr, count(Z.v) as c from R where v between 50 and 450 "
                   "analyze by group(k0, yr) such that X: X.k0 = k0 and X.yr = yr - 1, "
                   "Y: Y.k0 = k0 and Y.yr = yr + 1, Z: Z.k0 = k0 and Z.yr = yr and "
                   "Z.v > avg(X.v) and Z.v < avg(Y.v) order by k0, yr"});
  // R-only SUCH THAT conjuncts, which run as kernels over R.
  texts.push_back({"select k0, sum(X.v) as sx, count(X.*) as nx from R "
                   "where k2 in ('x', 'y') analyze by group(k0) "
                   "such that X: X.k0 = k0 and X.yr = 2"});
  texts.push_back({"select k0, k1, sum(X.v) as sx from R analyze by cube(k0, k1) "
                   "such that X: X.k0 = k0 and X.k1 = k1 and X.k1 < 2.0 and X.k2 = 'x'"});
  return texts;
}

/// Whether the generator of `plan` sees a key cell that makes θ-equality
/// and group membership disagree, worked out from its input σ_where(R)
/// itself: a dimension column holding ALL, NaN, or both int64 and float64
/// cells. Each text has one generator.
bool GeneratorsSeeUnusableKeys(const PlanPtr& plan, const Table& r) {
  std::vector<PlanPtr> generators;
  std::function<void(const PlanPtr&)> walk = [&](const PlanPtr& p) {
    if (p->kind() == PlanKind::kCuboidBase) generators.push_back(p);
    for (const PlanPtr& child : p->children()) walk(child);
  };
  walk(plan);
  EXPECT_EQ(generators.size(), 1u);
  if (generators.empty()) return false;
  const PlanPtr& gen = generators[0];
  Result<Table> input = Reference(gen->child(0), r);
  EXPECT_TRUE(input.ok()) << input.status().ToString();
  if (!input.ok()) return false;
  for (const std::string& d : gen->cube_dims) {
    bool ints = false, floats = false;
    for (const Value& v : input->column(*input->schema().GetFieldIndex(d))) {
      if (v.is_all() || (v.is_float64() && std::isnan(v.float64()))) return true;
      ints = ints || v.is_int64();
      floats = floats || v.is_float64();
    }
    if (ints && floats) return true;
  }
  return false;
}

/// The columns of R each node of `plan` that reads it block by block
/// decodes, by the node's label: an MD-join those its θs and aggregate
/// arguments name plus those of the selections over R in its detail child;
/// a generator its dimensions plus those of the selections over R in its
/// input. Names in the order of `schema`.
void ReadColumnsByLabel(const PlanPtr& plan, const Schema& schema,
                        std::map<std::string, std::vector<std::string>>* out) {
  std::set<std::string> cols;
  auto selections = [&cols](PlanPtr p) {
    for (; p->kind() == PlanKind::kFilter; p = p->child(0)) {
      p->predicate->CollectColumns(Side::kDetail, &cols);
    }
  };
  auto component = [&cols](const std::vector<AggSpec>& aggs, const ExprPtr& theta) {
    theta->CollectColumns(Side::kDetail, &cols);
    for (const AggSpec& agg : aggs) {
      if (agg.argument != nullptr) agg.argument->CollectColumns(Side::kDetail, &cols);
    }
  };
  if (plan->kind() == PlanKind::kMdJoin) {
    for (const MdJoinComponent& c : plan->components) component(c.aggs, c.theta);
    selections(plan->child(1));
  } else if (plan->kind() == PlanKind::kCuboidBase) {
    cols.insert(plan->cube_dims.begin(), plan->cube_dims.end());
    selections(plan->child(0));
  }
  if (!cols.empty()) {
    std::vector<std::string> ordered;
    for (const Field& f : schema.fields()) {
      if (cols.count(f.name) > 0) ordered.push_back(f.name);
    }
    auto [it, inserted] = out->emplace(plan->Label(), ordered);
    EXPECT_TRUE(inserted || it->second == ordered) << plan->Label();
  }
  for (const PlanPtr& child : plan->children()) ReadColumnsByLabel(child, schema, out);
}

/// Runs `text` over `r` bound and optimized, on memory and on `paged` (with
/// a small block cache and without one), under every Config: each result is
/// bit-identical to the reference, no guard byte leaks, and each
/// generated-base join reports the route its configuration calls for. With
/// `same_pruning` (a paged copy in kMorselRows-row blocks), every node that
/// reads R prunes the same morsels and scans the same rows on both storages.
/// Each node that reads paged R decodes the columns ReadColumnsByLabel
/// works out for it.
void CheckOnEveryRoute(const Table& r, const PagedTable& paged, const Text& t,
                       Flavor flavor, bool same_pruning, int64_t* group_id_joins) {
  const std::string& text = t.text;
  Catalog memory;
  ASSERT_TRUE(memory.Register("R", &r).ok());
  Result<analyze::BoundQuery> bound = analyze::BindQueryString(text, memory);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  Result<Table> want = Reference(bound->plan, r);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  Result<PlanPtr> optimized = OptimizePlan(bound->plan, memory);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();

  // Both plans keep θ's R-only conjuncts, which then run as kernels over the
  // group-id candidates.
  for (const PlanPtr& plan : {bound->plan, *optimized}) {
    // A `where` may drop every NaN, ALL or mixed key cell, leaving the
    // map exact; the texts that keep them see what the flavor holds.
    const bool unusable = GeneratorsSeeUnusableKeys(plan, r);
    if (t.sees_flavor) {
      EXPECT_EQ(unusable, flavor != Flavor::kExact);
    }
    // Per config: (blocks pruned, rows scanned) of each node reading R.
    std::map<std::string, std::vector<std::pair<int64_t, int64_t>>> reads;
    std::map<std::string, std::vector<std::string>> read_columns;
    ReadColumnsByLabel(plan, r.schema(), &read_columns);
    for (const char* storage : {"memory", "paged+cache", "paged"}) {
      Catalog catalog;
      if (storage[0] == 'm') {
        ASSERT_TRUE(catalog.Register("R", &r).ok());
      } else {
        ASSERT_TRUE(RegisterPagedTable(&catalog, "R", paged).ok());
      }
      BlockCache cache(SmallCache());
      for (const Config& config : Configs()) {
        SCOPED_TRACE(::testing::Message() << storage << ", " << config.name);
        QueryGuardOptions guard_options;
        if (config.tiny_guard) guard_options.memory_budget_bytes = 1;
        QueryGuard guard(guard_options);
        MdJoinOptions options;
        options.guard = &guard;
        options.num_threads = config.threads;
        options.base_rows_per_pass = config.rows_per_pass;
        options.enable_spill = config.spill;
        if (std::string(storage) == "paged+cache") options.block_cache = &cache;
        QueryProfile profile;
        Result<Table> got = ExplainAnalyze(plan, catalog, options, &profile);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(testutil::TablesBitIdentical(*want, *got));
        EXPECT_EQ(guard.bytes_reserved(), 0);

        std::vector<std::pair<int64_t, int64_t>> node_reads;
        std::function<void(const OperatorProfile&)> walk = [&](const OperatorProfile& n) {
          if (!n.read.empty()) node_reads.emplace_back(n.blocks_pruned, n.detail_rows_scanned);
          if (n.read == "blocks") {
            EXPECT_EQ(n.columns, read_columns[n.label]) << n.label;
          } else {
            EXPECT_TRUE(n.columns.empty()) << n.label;
          }
          for (const auto& child : n.children) walk(*child);
        };
        walk(*profile.root);
        if (same_pruning && storage[0] == 'm') {
          reads[config.name] = node_reads;
        } else if (same_pruning) {
          EXPECT_EQ(node_reads, reads[config.name]) << profile.ToText();
        }

        std::vector<const OperatorProfile*> joins;
        GeneratedBaseJoins(*profile.root, &joins);
        ASSERT_FALSE(joins.empty()) << profile.ToText();
        for (const OperatorProfile* join : joins) {
          EXPECT_EQ(join->read, storage[0] == 'm' ? "in_place" : "blocks");
          // Spill takes single-component joins only.
          const bool spilled =
              config.spill && join->label.rfind("GeneralizedMdJoin", 0) != 0;
          if (join->route_reason ==
              "equi conjunct is not a plain B.d = R.d dimension pair") {
            EXPECT_EQ(join->route, "index");  // the chain's month ± 1 pair
            EXPECT_NE(text.find("X.yr = yr - 1"), std::string::npos);
          } else if (spilled) {
            EXPECT_EQ(join->route, "index") << profile.ToText();
            EXPECT_EQ(join->route_reason, "spill");
          } else if (unusable) {
            EXPECT_EQ(join->route, "index") << profile.ToText();
            EXPECT_NE(join->route_reason.find("a key column holds"), std::string::npos)
                << join->route_reason;
          } else if (config.reason == nullptr || config.spill ||
                     join->children[0]->output_rows <= config.rows_per_pass) {
            EXPECT_EQ(join->route, "group_ids") << profile.ToText();
            EXPECT_EQ(join->route_reason, "");
            EXPECT_EQ(join->index_probe_lookups, 0);
            ++*group_id_joins;
          } else {
            EXPECT_EQ(join->route, "index") << profile.ToText();
            EXPECT_EQ(join->route_reason, config.reason) << profile.ToText();
          }
        }
      }
    }
  }
}

TEST(GroupIdsTest, TextQueriesMatchReferenceOnEveryRoute) {
  int64_t group_id_joins = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Flavor flavor = static_cast<Flavor>(seed % 4);
    const Table r = RandomR(seed, 40 + static_cast<int64_t>(seed) * 11, flavor);
    const PagedCopy paged(r);
    for (const Text& text : Texts()) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " text=" << text.text);
      CheckOnEveryRoute(r, paged.table(), text, flavor, /*same_pruning=*/false,
                        &group_id_joins);
    }
  }
  EXPECT_GT(group_id_joins, 0);
}

/// The same matrix over a year-sorted R of 21 morsels: year selections in
/// `where` and in SUCH THAT prune the generators' and the joins' morsels in
/// memory exactly as they prune a paged copy's kMorselRows-row blocks.
TEST(GroupIdsTest, SortedTextQueriesPruneAlikeOnEveryRoute) {
  const std::vector<Text> texts = {
      {"select k0, k1, k2, sum(v) as s, count(*) as n from R "
       "where yr between 5 and 7 analyze by rollup(k0, k1, k2)",
       true},
      {"select k0, k1, k2, count(*) as n, min(v) as lo from R where yr > 38 "
       "analyze by cube(k0, k1, k2)",
       true},
      {"select k0, sum(X.v) as sx, count(X.*) as nx from R analyze by group(k0) "
       "such that X: X.k0 = k0 and X.yr = 9"},
      {"select k0, sum(X.v) as early, sum(Y.v) as late from R analyze by group(k0) "
       "such that X: X.k0 = k0 and X.yr <= 3, Y: Y.k0 = k0 and Y.yr >= 40"},
  };
  int64_t group_id_joins = 0;
  for (const Flavor flavor : {Flavor::kExact, Flavor::kNaN}) {
    const Table r = RandomR(61, 21 * kMorselRows - 100, flavor, /*sorted_years=*/true);
    const PagedCopy paged(r, kMorselRows);
    for (const Text& text : texts) {
      SCOPED_TRACE(::testing::Message() << "flavor=" << static_cast<int>(flavor)
                                        << " text=" << text.text);
      CheckOnEveryRoute(r, paged.table(), text, flavor, /*same_pruning=*/true,
                        &group_id_joins);
      // Every text prunes: its generator or its joins skip morsels.
      Catalog catalog;
      ASSERT_TRUE(catalog.Register("R", &r).ok());
      Result<analyze::BoundQuery> bound = analyze::BindQueryString(text.text, catalog);
      ASSERT_TRUE(bound.ok());
      QueryProfile profile;
      ASSERT_TRUE(ExplainAnalyze(bound->plan, catalog, {}, &profile).ok());
      int64_t pruned = 0;
      std::function<void(const OperatorProfile&)> walk = [&](const OperatorProfile& n) {
        pruned += n.blocks_pruned;
        for (const auto& child : n.children) walk(*child);
      };
      walk(*profile.root);
      EXPECT_GT(pruned, 0) << profile.ToText();
    }
  }
  EXPECT_GT(group_id_joins, 0);
}

/// Through the table API: each generator's B equals the per-cuboid dedup row
/// for row with and without a map, the streamed generator over a paged R
/// gives the same B and the same map, and an MD-join handed the map matches
/// the reference on memory and paged storage at 1, 2 and 8 threads.
TEST(GroupIdsTest, TableApiMatchesReference) {
  const std::vector<std::string>& dims = Dims();
  const std::vector<AggSpec> aggs = {Sum(RCol("v"), "s"), Count("n"),
                                     Min(RCol("v"), "lo"), Avg(RCol("v"), "a")};
  ExprPtr theta = Eq(BCol(dims[0]), RCol(dims[0]));
  for (size_t i = 1; i < dims.size(); ++i) {
    theta = And(theta, Eq(BCol(dims[i]), RCol(dims[i])));
  }
  const CubeLattice lattice = *CubeLattice::Make(dims);
  std::vector<CuboidMask> rollup;
  for (int k = 3; k >= 0; --k) rollup.push_back((CuboidMask{1} << k) - 1);
  const std::vector<std::vector<std::string>> sets = {{"k0", "k1"}, {"k2"}, {"k0", "k1"}};

  for (uint64_t seed = 11; seed <= 18; ++seed) {
    const Flavor flavor = static_cast<Flavor>(seed % 4);
    const Table r = RandomR(seed, 30 + static_cast<int64_t>(seed) * 7, flavor);
    const PagedCopy paged(r);
    struct Generator {
      const char* name;
      std::function<Result<Table>(GroupIdMap*)> run;
      std::vector<CuboidMask> masks;
    };
    const std::vector<Generator> generators = {
        {"cube", [&](GroupIdMap* g) { return CubeByBase(r, dims, g); },
         CubeMasks(lattice)},
        {"rollup", [&](GroupIdMap* g) { return RollupBase(r, dims, g); }, rollup},
        {"grouping sets",
         [&](GroupIdMap* g) { return GroupingSetsBase(r, dims, sets, g); },
         {0b011, 0b100, 0b011}},
        {"unpivot", [&](GroupIdMap* g) { return UnpivotBase(r, dims, g); },
         {0b001, 0b010, 0b100}},
    };
    for (const Generator& gen : generators) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " " << gen.name);
      GroupIdMap groups;
      Result<Table> base = gen.run(&groups);
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      EXPECT_TRUE(testutil::TablesBitIdentical(PerCuboid(r, dims, gen.masks), *base));
      EXPECT_TRUE(testutil::TablesBitIdentical(*gen.run(nullptr), *base));
      EXPECT_EQ(groups.unusable == nullptr, flavor == Flavor::kExact);
      EXPECT_EQ(groups.stride, static_cast<int64_t>(gen.masks.size()));

      // The streamed generator over the paged copy, cache on and off,
      // decoding the dimensions' chunks only.
      BlockCache cache(SmallCache());
      for (BlockCache* c : {&cache, static_cast<BlockCache*>(nullptr)}) {
        GroupIdMap streamed;
        MdJoinStats reads;
        const PagedSource source(paged.table(), c, {}, {dims.begin(), dims.end()});
        EXPECT_EQ(source.decoded_columns(), dims);
        Result<Table> streamed_base =
            CuboidsFromFinest(source, dims, gen.masks, {}, nullptr, &reads, &streamed);
        ASSERT_TRUE(streamed_base.ok());
        EXPECT_TRUE(testutil::TablesBitIdentical(*base, *streamed_base));
        EXPECT_EQ(streamed.row_group, groups.row_group);
        EXPECT_EQ(streamed.base_rows, groups.base_rows);
        EXPECT_EQ(reads.blocks_read, paged.table().num_blocks());
      }

      Result<Table> want = MdJoinReference(*base, r, aggs, theta);
      ASSERT_TRUE(want.ok());
      for (int threads : {1, 2, 8}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        MdJoinOptions options;
        options.num_threads = threads;
        MdJoinStats stats;
        Result<Table> got = MdJoin(*base, r, aggs, theta, options, &stats, &groups);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(testutil::TablesBitIdentical(*want, *got));
        EXPECT_EQ(stats.route, flavor == Flavor::kExact ? RelativeSetRoute::kGroupIds
                                                        : RelativeSetRoute::kIndex);
        MdJoinStats paged_stats;
        Result<Table> paged_got = PagedMdJoin(*base, paged.table(), {{aggs, theta}},
                                              options, &paged_stats, &groups);
        ASSERT_TRUE(paged_got.ok()) << paged_got.status().ToString();
        EXPECT_TRUE(testutil::TablesBitIdentical(*want, *paged_got));
        EXPECT_EQ(paged_stats.route, stats.route);
        EXPECT_EQ(paged_stats.columns, (std::vector<std::string>{"k0", "k1", "k2", "v"}));
        // Same work either way: the map finds exactly the index's rows.
        MdJoinStats index_stats;
        ASSERT_TRUE(MdJoin(*base, r, aggs, theta, options, &index_stats).ok());
        EXPECT_EQ(index_stats.route, RelativeSetRoute::kIndex);
        EXPECT_EQ(stats.candidate_pairs, index_stats.candidate_pairs);
        EXPECT_EQ(stats.matched_pairs, index_stats.matched_pairs);
      }
    }
  }
}

/// A map the join cannot trust is refused, never read: θ on part of the
/// dims, a B-only conjunct, a map built from another relation, the index
/// disabled, or B split into base fragments.
TEST(GroupIdsTest, JoinRefusesAMapThatDoesNotFitItsTheta) {
  const std::vector<std::string>& dims = Dims();
  const Table r = RandomR(21, 60, Flavor::kExact);
  GroupIdMap groups;
  const Table base = *CubeByBase(r, dims, &groups);
  ASSERT_EQ(groups.unusable, nullptr);
  ExprPtr dims_theta = And(And(Eq(BCol("k0"), RCol("k0")), Eq(BCol("k1"), RCol("k1"))),
                           Eq(BCol("k2"), RCol("k2")));
  const std::vector<AggSpec> aggs = {Sum(RCol("v"), "s")};
  struct Case {
    ExprPtr theta;
    const Table* detail;
    bool use_index;
    int fragments;
    const char* reason;
  };
  const Table other = RandomR(22, 61, Flavor::kExact);
  const std::vector<Case> cases = {
      {And(Eq(BCol("k0"), RCol("k0")), Eq(BCol("k1"), RCol("k1"))), &r, true, 1,
       "θ's dimension set does not match the base's dimensions"},
      {And(dims_theta, Eq(BCol("k0"), Lit(int64_t{1}))), &r, true, 1,
       "θ has a B-only conjunct"},
      {And(And(Eq(BCol("k0"), RCol("k0")), Eq(BCol("k1"), RCol("k1"))),
           Eq(BCol("k2"), RCol("k0"))),
       &r, true, 1, "equi conjunct is not a plain B.d = R.d dimension pair"},
      {dims_theta, &other, true, 1,
       "the map was not built for this base and detail relation"},
      {dims_theta, &r, false, 1, "the index is disabled or θ has no equi part"},
      {dims_theta, &r, true, 3, "B is split into base fragments"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.reason);
    MdJoinOptions options;
    options.use_index = c.use_index;
    MdJoinStats stats;
    Result<Table> got = RunMdJoin(base, TableSource(*c.detail), {{aggs, c.theta}},
                                  options, &stats, &groups, c.fragments);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    Result<Table> want = MdJoinReference(base, *c.detail, aggs, c.theta);
    ASSERT_TRUE(want.ok());
    EXPECT_TRUE(testutil::TablesBitIdentical(*want, *got));
    EXPECT_NE(stats.route, RelativeSetRoute::kGroupIds);
    EXPECT_STREQ(stats.route_reason, c.reason);
  }
}

/// The certificate: which plan shapes the executor may run by group id.
TEST(GroupIdsTest, CertificateAcceptsOnlyGeneratorsOverTheDetailChild) {
  const std::vector<std::string>& dims = Dims();
  ExprPtr theta = And(And(Eq(BCol("k0"), RCol("k0")), Eq(BCol("k1"), RCol("k1"))),
                      Eq(BCol("k2"), RCol("k2")));
  const std::vector<AggSpec> aggs = {Count("n")};
  PlanPtr r = TableRef("R");
  auto where = [] { return FilterPlan(TableRef("R"), Gt(RCol("yr"), Lit(int64_t{1}))); };
  PlanPtr filtered = where();

  Result<GroupIdsCertificate> cube =
      CertifyGroupIds(MdJoinPlan(CubeBasePlan(r, dims), r, aggs, theta));
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_EQ(cube->masks.size(), 8u);
  EXPECT_EQ(cube->dims, dims);

  // A list of cuboids over R′ certifies, a cuboid listed twice included, and
  // so does a detail child structurally equal to R′.
  PlanPtr sets = CuboidBasePlan(filtered, dims, {0b011, 0b011});
  const ExprPtr theta_x = And(theta, Gt(RCol("v"), Lit(3.0)));
  Result<GroupIdsCertificate> grouping = CertifyGroupIds(
      GeneralizedMdJoinPlan(sets, where(), {{aggs, theta}, {{Count("m")}, theta_x}}));
  ASSERT_TRUE(grouping.ok()) << grouping.status().ToString();
  EXPECT_EQ(grouping->masks, (std::vector<CuboidMask>{0b011, 0b011}));
  EXPECT_TRUE(grouping->extra.empty());

  // group(...)'s finest cuboid certifies, and so does a detail child that
  // is R′ under selections pushed out of θ: they fold back into θ.
  Result<GroupIdsCertificate> finest =
      CertifyGroupIds(MdJoinPlan(CuboidBasePlan(r, dims, 0b111), r, aggs, theta));
  ASSERT_TRUE(finest.ok()) << finest.status().ToString();
  EXPECT_EQ(finest->masks, (std::vector<CuboidMask>{0b111}));
  const ExprPtr pushed = Eq(RCol("yr"), Lit(int64_t{2}));
  Result<GroupIdsCertificate> selected = CertifyGroupIds(
      MdJoinPlan(CubeBasePlan(filtered, dims), FilterPlan(where(), pushed), aggs, theta));
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  ASSERT_EQ(selected->extra.size(), 1u);
  EXPECT_EQ(selected->extra[0], pushed);
  EXPECT_EQ(selected->detail, filtered);

  const std::vector<std::pair<PlanPtr, std::string>> refused = {
      {MdJoinPlan(CubeBasePlan(filtered, dims), r, aggs, theta),
       "the detail child is not the plan the base is generated from"},
      {MdJoinPlan(DistinctPlan(ProjectPlan(r, {{Col("k0"), "k0"}})), r, aggs,
                  Eq(BCol("k0"), RCol("k0"))),
       "base child is not a cube, rollup, grouping-sets or unpivot generator"},
      {MdJoinPlan(CubeBasePlan(r, dims), r, aggs,
                  And(theta, Eq(BCol("k0"), Lit(int64_t{1})))),
       "θ has a B-only conjunct"},
      {MdJoinPlan(CubeBasePlan(r, dims), r, aggs, Eq(BCol("k0"), RCol("k0"))),
       "θ's dimension set does not match the base's dimensions"},
  };
  for (const auto& [plan, why] : refused) {
    Result<GroupIdsCertificate> cert = CertifyGroupIds(plan);
    ASSERT_FALSE(cert.ok()) << why;
    EXPECT_NE(cert.status().message().find(why), std::string::npos)
        << cert.status().message();
  }
}

/// Theorem 4.2 applied by hand to the MD-join under `plan`'s Project: the
/// R-only conjuncts of its θ move into σ over its detail child.
PlanPtr SelectDetail(const PlanPtr& plan) {
  if (plan->kind() != PlanKind::kMdJoin) {
    return CloneWithChildren(plan, {SelectDetail(plan->child(0))});
  }
  const MdJoinComponent& c = plan->components[0];
  ThetaParts parts = AnalyzeTheta(c.theta);
  PlanPtr detail = FilterPlan(plan->child(1), CombineConjuncts(parts.detail_only));
  parts.detail_only.clear();
  return MdJoinPlan(plan->child(0), std::move(detail), c.aggs, CombineTheta(parts));
}

/// The satellite case of Theorem 4.2: `such that X: X.k0 = k0 and X.yr = 2`
/// over group(k0) or a cube. Optimized, θ stays whole and X.yr = 2 runs as a
/// kernel; with the selection moved by hand, the join reads σ_{yr = 2}(R′)
/// against B generated from R′ and the selection folds back into θ. Either
/// way the join reads group ids, on memory and paged storage, bit-identical
/// to the reference.
TEST(GroupIdsTest, PushedSelectionKeepsTheGroupIdRoute) {
  const Table r = RandomR(31, 200, Flavor::kExact);
  const PagedCopy paged(r);
  for (const char* gen : {"group(k0)", "cube(k0, k1)"}) {
    const std::string text =
        std::string("select k0, sum(X.v) as sx, count(X.*) as nx from R analyze by ") + gen +
        " such that X: X.k0 = k0" + (gen[0] == 'c' ? " and X.k1 = k1" : "") +
        " and X.yr = 2";
    SCOPED_TRACE(text);
    Catalog memory;
    ASSERT_TRUE(memory.Register("R", &r).ok());
    Result<analyze::BoundQuery> bound = analyze::BindQueryString(text, memory);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    Result<Table> want = Reference(bound->plan, r);
    ASSERT_TRUE(want.ok());
    Result<PlanPtr> optimized = OptimizePlan(bound->plan, memory);
    ASSERT_TRUE(optimized.ok());
    ASSERT_EQ(ExplainPlan(*optimized).find("Filter"), std::string::npos)
        << "θ is no longer whole: " << ExplainPlan(*optimized);
    const PlanPtr selected = SelectDetail(*optimized);
    ASSERT_NE(ExplainPlan(selected).find("Filter((R.yr = 2))"), std::string::npos)
        << ExplainPlan(selected);
    const std::vector<std::pair<PlanPtr, std::string>> plans = {
        {*optimized, ""}, {selected, "(R.yr = 2)"}};
    for (const auto& [plan, folded] : plans) {
      for (const char* storage : {"memory", "paged"}) {
        Catalog catalog;
        if (storage[0] == 'm') {
          ASSERT_TRUE(catalog.Register("R", &r).ok());
        } else {
          ASSERT_TRUE(RegisterPagedTable(&catalog, "R", paged.table()).ok());
        }
        QueryGuard guard;
        MdJoinOptions options;
        options.guard = &guard;
        QueryProfile profile;
        Result<Table> got = ExplainAnalyze(plan, catalog, options, &profile);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(testutil::TablesBitIdentical(*want, *got));
        EXPECT_EQ(guard.bytes_reserved(), 0);
        std::vector<const OperatorProfile*> joins;
        GeneratedBaseJoins(*profile.root, &joins);
        ASSERT_EQ(joins.size(), 1u) << profile.ToText();
        EXPECT_EQ(joins[0]->route, "group_ids") << profile.ToText();
        EXPECT_EQ(joins[0]->folded, folded);
      }
    }
  }
}

/// A generated base whose join the certificate refuses still reads R once:
/// the three grouping sets are one CuboidBase node, generated in one pass
/// over R, and the join scans R once more. On paged storage that is 2 ×
/// the blocks, not one pass per cuboid plus the join's; the result is
/// Definition 3.1's.
TEST(GroupIdsTest, RefusedGroupingSetsBaseReadsROnce) {
  const Table r = testutil::RandomSales(37, 3000);
  const PagedCopy paged(r, 256);
  const int64_t blocks = paged.table().num_blocks();
  Catalog catalog;
  ASSERT_TRUE(RegisterPagedTable(&catalog, "R", paged.table()).ok());
  Result<analyze::BoundQuery> bound = analyze::BindQueryString(
      "select prod, month, state, count(X.*) as n, sum(X.sale) as sx from R "
      "analyze by grouping_sets((prod, month), (prod, state), (month, state)) "
      "such that X: X.prod = prod and X.month < month",
      catalog);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  PlanPtr join = bound->plan;
  while (join->kind() != PlanKind::kMdJoin) join = join->child(0);
  ASSERT_EQ(join->child(0)->kind(), PlanKind::kCuboidBase);
  EXPECT_EQ(join->child(0)->cuboid_masks, (std::vector<CuboidMask>{0b011, 0b101, 0b110}));
  ASSERT_FALSE(CertifyGroupIds(join).ok());
  Result<Table> want = Reference(bound->plan, r);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  Result<PlanPtr> optimized = OptimizePlan(bound->plan, catalog);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  for (const PlanPtr& plan : {bound->plan, *optimized}) {
    ExecStats stats;
    Result<Table> got = ExecutePlan(plan, catalog, {}, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(testutil::TablesBitIdentical(*want, *got));
    EXPECT_EQ(stats.blocks_read, 2 * blocks) << ExplainPlan(plan);
  }
}

/// group(attrs) binds as the finest CuboidBase of its attributes: the same
/// rows, in the same order and schema, as Distinct(Project(R)) over R with
/// NULL, ALL, NaN, ±0 and int64 cells in a float64 column, on memory and on
/// paged storage. More than 20 attributes bind (the cube lattice's limit
/// does not apply), and more than a cuboid mask's 32 bind as before; a
/// repeated attribute is a bind error.
TEST(GroupIdsTest, GroupBindsAsTheFinestCuboid) {
  const std::vector<std::vector<std::string>> lists = {
      {"k0"}, {"k1"}, {"k2", "k0"}, {"k1", "k2", "k0"}, {"yr", "k1"}};
  for (uint64_t seed = 41; seed <= 48; ++seed) {
    const Table r =
        RandomR(seed, 50 + static_cast<int64_t>(seed), static_cast<Flavor>(seed % 4));
    const PagedCopy paged(r);
    for (const std::vector<std::string>& attrs : lists) {
      std::string list;
      std::vector<ProjectItem> items;
      for (const std::string& a : attrs) {
        list += (list.empty() ? "" : ", ") + a;
        items.push_back({RCol(a), a});
      }
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " group(" << list << ")");
      Catalog memory;
      ASSERT_TRUE(memory.Register("R", &r).ok());
      Result<analyze::BoundQuery> bound = analyze::BindQueryString(
          "select " + list + ", count(*) as n from R analyze by group(" + list + ")", memory);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      PlanPtr base = bound->plan;
      while (base->kind() != PlanKind::kMdJoin) base = base->child(0);
      base = base->child(0);
      ASSERT_EQ(base->kind(), PlanKind::kCuboidBase);
      EXPECT_EQ(base->cube_dims, attrs);
      EXPECT_EQ(base->cuboid_masks,
                std::vector<CuboidMask>{(CuboidMask{1} << attrs.size()) - 1});
      const Table want = Distinct(*Project(r.Clone(), items));
      for (const char* storage : {"memory", "paged"}) {
        Catalog catalog;
        if (storage[0] == 'm') {
          ASSERT_TRUE(catalog.Register("R", &r).ok());
        } else {
          ASSERT_TRUE(RegisterPagedTable(&catalog, "R", paged.table()).ok());
        }
        Result<Table> got = ExecutePlan(base, catalog);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(got->schema().Equals(want.schema()));
        EXPECT_TRUE(testutil::TablesBitIdentical(want, *got)) << storage;
      }
    }
  }

  // Past the cube lattice's 20 attributes, up to a cuboid mask's 32, the
  // list binds as the finest CuboidBase and the plan verifies; a wider one
  // binds to Distinct(Project(R)), as every list did before. Either way each
  // of the 3 rotations is one group of 3 rows, on memory and paged storage.
  constexpr int kMaskBits = std::numeric_limits<CuboidMask>::digits;
  for (const int width : {21, kMaskBits, kMaskBits + 1}) {
    SCOPED_TRACE(::testing::Message() << width << " attributes");
    std::vector<Field> fields;
    for (int c = 0; c < width; ++c) {
      fields.push_back({"c" + std::to_string(c), DataType::kInt64});
    }
    TableBuilder b{Schema(fields)};
    for (int64_t row = 0; row < 9; ++row) {
      std::vector<Value> cells;
      for (int c = 0; c < width; ++c) cells.push_back(I((row + c) % 3));
      b.AppendRowOrDie(std::move(cells));
    }
    const Table wide = std::move(b).Finish();
    const PagedCopy wide_paged(wide);
    std::string list;
    std::vector<ProjectItem> items;
    for (const Field& f : fields) {
      list += (list.empty() ? "" : ", ") + f.name;
      items.push_back({RCol(f.name), f.name});
    }
    const std::string text =
        "select " + list + ", count(*) as n from W analyze by group(" + list + ")";
    const Table want_base = Distinct(*Project(wide.Clone(), items));
    for (const char* storage : {"memory", "paged"}) {
      SCOPED_TRACE(storage);
      Catalog catalog;
      if (storage[0] == 'm') {
        ASSERT_TRUE(catalog.Register("W", &wide).ok());
      } else {
        ASSERT_TRUE(RegisterPagedTable(&catalog, "W", wide_paged.table()).ok());
      }
      Result<analyze::BoundQuery> bound = analyze::BindQueryString(text, catalog);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      PlanPtr join = bound->plan;
      while (join->kind() != PlanKind::kMdJoin) join = join->child(0);
      if (width <= kMaskBits) {
        ASSERT_EQ(join->child(0)->kind(), PlanKind::kCuboidBase);
        EXPECT_EQ(join->child(0)->cuboid_masks,
                  std::vector<CuboidMask>{~CuboidMask{0} >> (kMaskBits - width)});
      } else {
        EXPECT_EQ(join->child(0)->kind(), PlanKind::kDistinct);
      }
      OptimizeOptions optimize_options;
      optimize_options.verify_plans = true;
      Result<PlanPtr> optimized = OptimizePlan(bound->plan, catalog, optimize_options);
      ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
      MdJoinOptions options;
      options.verify_plans = true;
      Result<Table> base = ExecutePlan(join->child(0), catalog, options);
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      EXPECT_TRUE(testutil::TablesBitIdentical(want_base, *base));
      for (const PlanPtr& plan : {bound->plan, *optimized}) {
        QueryProfile profile;
        Result<Table> got = ExplainAnalyze(plan, catalog, options, &profile);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got->num_rows(), 3);
        for (int64_t row = 0; row < got->num_rows(); ++row) {
          EXPECT_TRUE(got->Get(row, width).Equals(I(3)));
        }
        std::vector<const OperatorProfile*> joins;
        GeneratedBaseJoins(*profile.root, &joins);
        if (width <= kMaskBits) {
          ASSERT_EQ(joins.size(), 1u) << profile.ToText();
          EXPECT_EQ(joins[0]->route, "group_ids") << profile.ToText();
        } else {
          EXPECT_TRUE(joins.empty()) << profile.ToText();
        }
      }
    }
  }

  const Table r = RandomR(49, 20, Flavor::kExact);
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("R", &r).ok());
  Result<analyze::BoundQuery> repeated = analyze::BindQueryString(
      "select k0, count(*) as n from R analyze by group(k0, k0)", catalog);
  ASSERT_FALSE(repeated.ok());
  EXPECT_NE(repeated.status().message().find("repeated"), std::string::npos);
}

}  // namespace
}  // namespace mdjoin
