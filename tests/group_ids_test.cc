/// Group-id relative sets: when B is generated from R itself (CUBE BY,
/// ROLLUP, GROUPING SETS, UNPIVOT) the generator hands the MD-join each
/// detail row's relative set by group id (GroupIdMap) instead of an index
/// over B. A differential suite over random R holding NULL, ALL, NaN, ±0 and
/// int64 cells in float64 key columns: from query text (with and without
/// `where`) and through the table API, on memory and on paged storage (tiny
/// blocks, block cache on and off), at 1, 2 and 8 threads, under a guard too
/// small for the map, with forced Theorem-4.1 passes and with spill. Every
/// result is bit-identical to Definition 3.1 (MdJoinReference) over the
/// unoptimized plan, the generator's B equals a per-cuboid dedup of R row for
/// row, and each run reports the route the configuration calls for.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <limits>
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
/// in any order and results compare bit for bit at any thread count.
Table RandomR(uint64_t seed, int64_t rows, Flavor flavor) {
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
    b.AppendRowOrDie({std::move(k0), k1s[rng.Uniform(k1s.size())],
                      k2s[rng.Uniform(k2s.size())], I(rng.UniformInt(1, 3)),
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
      return Project(in[0], plan->projections);
    case PlanKind::kDistinct:
      return Distinct(in[0]);
    case PlanKind::kUnion:
      return ConcatAll(in);
    case PlanKind::kCubeBase: {
      MDJ_ASSIGN_OR_RETURN(CubeLattice lattice, CubeLattice::Make(plan->cube_dims));
      return PerCuboid(in[0], plan->cube_dims, CubeMasks(lattice));
    }
    case PlanKind::kCuboidBase:
      return PerCuboid(in[0], plan->cube_dims, {plan->cuboid_mask});
    case PlanKind::kMdJoin:
      return MdJoinReference(in[0], in[1], plan->aggs, plan->theta);
    case PlanKind::kGeneralizedMdJoin:
      return testutil::ReferencePerComponent(in[0], in[1], plan->components);
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

/// A paged copy of R in tiny blocks, removed on destruction.
class PagedCopy {
 public:
  explicit PagedCopy(const Table& r) {
    path_ = (std::filesystem::temp_directory_path() /
             ("mdjoin_group_ids_" + std::to_string(reinterpret_cast<uintptr_t>(this)) +
              ".mdjb"))
                .string();
    BlockFileOptions options;
    options.block_size_rows = 16;
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
    if (base.rfind("CubeBase", 0) == 0 || base.rfind("Union", 0) == 0) {
      out->push_back(&node);
    }
  }
  for (const auto& child : node.children) GeneratedBaseJoins(*child, out);
}

std::vector<std::string> Texts() {
  const std::string select =
      "select k0, k1, k2, sum(v) as s, count(*) as n, min(v) as lo, max(v) as hi, "
      "avg(v) as a from R";
  std::vector<std::string> texts;
  for (const std::string& where : {std::string(""), std::string(" where yr > 1")}) {
    texts.push_back(select + where + " analyze by cube(k0, k1, k2)");
    texts.push_back(select + where + " analyze by rollup(k0, k1, k2)");
    texts.push_back(select + where +
                    " analyze by grouping_sets((k0, k1), (k2), (k0, k1), ())");
    texts.push_back(select + where + " analyze by unpivot(k0, k1, k2)");
    // A detail-only conjunct and a residual: kernels and the per-pair check
    // run over the group-id candidates as they do over an index.
    texts.push_back("select k0, k1, k2, sum(X.v) as sx, count(X.*) as nx from R" + where +
                    " analyze by cube(k0, k1, k2) such that X: X.k0 = k0 and "
                    "X.k1 = k1 and X.k2 = k2 and X.v > 100 and X.v + X.yr > 150");
  }
  return texts;
}

TEST(GroupIdsTest, TextQueriesMatchReferenceOnEveryRoute) {
  int64_t group_id_joins = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Flavor flavor = static_cast<Flavor>(seed % 4);
    const Table r = RandomR(seed, 40 + static_cast<int64_t>(seed) * 11, flavor);
    const PagedCopy paged(r);
    for (const std::string& text : Texts()) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " text=" << text);
      Catalog memory;
      ASSERT_TRUE(memory.Register("R", &r).ok());
      Result<analyze::BoundQuery> bound = analyze::BindQueryString(text, memory);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      Result<Table> want = Reference(bound->plan, r);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      Result<PlanPtr> optimized = OptimizePlan(bound->plan, memory);
      ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();

      // The bound plan keeps θ's R-only conjuncts, which then run as kernels
      // over the group-id candidates; the optimizer may push them into σ(R)
      // (Theorem 4.2), and B generated from R then no longer certifies
      // against the σ(R) it joins.
      for (const PlanPtr& plan : {bound->plan, *optimized}) {
        const bool may_push =
            plan == *optimized && text.find("such that") != std::string::npos;
        for (const char* storage : {"memory", "paged+cache", "paged"}) {
          Catalog catalog;
          if (storage[0] == 'm') {
            ASSERT_TRUE(catalog.Register("R", &r).ok());
          } else {
            ASSERT_TRUE(RegisterPagedTable(&catalog, "R", paged.table()).ok());
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

            std::vector<const OperatorProfile*> joins;
            GeneratedBaseJoins(*profile.root, &joins);
            ASSERT_FALSE(joins.empty()) << profile.ToText();
            for (const OperatorProfile* join : joins) {
              // Spill takes single-component joins only.
              const bool spilled =
                  config.spill && join->label.rfind("GeneralizedMdJoin", 0) != 0;
              if (may_push && join->route_reason == "the detail child is not the plan "
                                                    "the base is generated from") {
                EXPECT_EQ(join->route, "index") << profile.ToText();
              } else if (spilled) {
                EXPECT_EQ(join->route, "index") << profile.ToText();
                EXPECT_EQ(join->route_reason, "spill");
              } else if (flavor != Flavor::kExact) {
                EXPECT_EQ(join->route, "index") << profile.ToText();
                EXPECT_NE(join->route_reason.find("a key column holds"),
                          std::string::npos)
                    << join->route_reason;
              } else if (config.reason == nullptr || config.spill) {
                EXPECT_EQ(join->route, "group_ids") << profile.ToText();
                EXPECT_EQ(join->route_reason, "");
                EXPECT_EQ(join->index_probe_lookups, 0);
                ++group_id_joins;
              } else {
                EXPECT_EQ(join->route, "index") << profile.ToText();
                EXPECT_EQ(join->route_reason, config.reason) << profile.ToText();
              }
            }
          }
        }
      }
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

      // The streamed generator over the paged copy, cache on and off.
      BlockCache cache(SmallCache());
      for (BlockCache* c : {&cache, static_cast<BlockCache*>(nullptr)}) {
        GroupIdMap streamed;
        MdJoinStats reads;
        Result<Table> streamed_base =
            CuboidsFromFinest(PagedSource(paged.table(), c), dims, gen.masks, nullptr,
                              &reads, &streamed);
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

  // Structurally equal R′ plans certify; a union of cuboids over one R′ does.
  PlanPtr sets = UnionPlan(
      {CuboidBasePlan(filtered, dims, 0b011), CuboidBasePlan(where(), dims, 0b011)});
  const ExprPtr theta_x = And(theta, Gt(RCol("v"), Lit(3.0)));
  Result<GroupIdsCertificate> grouping = CertifyGroupIds(
      GeneralizedMdJoinPlan(sets, where(), {{aggs, theta}, {{Count("m")}, theta_x}}));
  ASSERT_TRUE(grouping.ok()) << grouping.status().ToString();
  EXPECT_EQ(grouping->masks, (std::vector<CuboidMask>{0b011, 0b011}));

  const std::vector<std::pair<PlanPtr, std::string>> refused = {
      {MdJoinPlan(CubeBasePlan(r, dims), filtered, aggs, theta),
       "the detail child is not the plan the base is generated from"},
      {MdJoinPlan(
           UnionPlan({CuboidBasePlan(r, dims, 1), CuboidBasePlan(filtered, dims, 2)}), r,
           aggs, theta),
       "the union's cuboids differ in their input or dimensions"},
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

}  // namespace
}  // namespace mdjoin
