/// End-to-end OLAP benchmark for the MD-join engine: query text in, result
/// table out, through the public layers a user calls — BindQueryString,
/// OptimizePlan, ExecutePlan, and the QueryService session API.
///
///   olap_bench --workload mem|paged|service --seed N --seconds S --trace 0|1
///              [--rows N] [--work-dir DIR] [--git-sha SHA] [--corrupt-expected]
///
/// One process, one closed-loop client: each query is sent only after the
/// previous one returned. The inputs (a synthetic Sales table, and for
/// `service` the query sequence) derive from --seed alone. Every answer is
/// checked, outside its timed interval, against an answer computed once at
/// set-up by a different route. See README.md for the workloads and metrics.
///
/// --trace 0 times the end-to-end metrics with no tracing; --trace 1 runs a
/// fixed amount of traced work and reports per-layer metrics. The trace is
/// taken here, around calls into each module's public functions, and the
/// EXPLAIN ANALYZE profile supplies the per-operator times; nothing under
/// src/ is instrumented for it.
///
/// The last line of stdout is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// preceded by a {"run_record": ...} line. Exit code 0 on a completed run
/// (even with wrong answers, which `correct`/`failed` report), 2 on bad
/// arguments, 1 when set-up fails.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analyze/binder.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "optimizer/executor.h"
#include "optimizer/optimize.h"
#include "optimizer/plan.h"
#include "server/query_service.h"
#include "server/result_cache.h"
#include "storage/block_cache.h"
#include "storage/block_format.h"
#include "storage/out_of_core.h"
#include "storage/paged_table.h"
#include "table/table_ops.h"
#include "workload/generators.h"

#ifndef OLAPBENCH_BUILD_TYPE
#define OLAPBENCH_BUILD_TYPE "unspecified"
#endif

namespace mdjoin {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Fixed workload parameters
// ---------------------------------------------------------------------------

constexpr int kSetups = 5;                 // set-ups per run; setup_s is their median
constexpr int64_t kBlockRows = 4096;       // .mdjb rows per block (paged)
constexpr int64_t kBlockCacheDivisor = 4;  // block cache = decoded bytes / 4
constexpr int kServiceThreads = 2;         // engine threads per service query
// Below the 35 MB the pool's distinct results take at 200k rows, so the
// session evicts; above the dashboard results plus the largest four
// drill-down results (27 MB), so a dashboard result is never the LRU victim.
constexpr int64_t kResultCacheBytes = int64_t{28} << 20;
constexpr int kTracedRotations = 4;  // traced mem/paged work is a fixed count

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

struct QueryDef {
  std::string type;  // cube3 | cube2 | pivot | chain | drill
  std::string text;
};

const std::vector<std::string>& QueryTypes() {
  static const std::vector<std::string> types = {"cube3", "cube2", "pivot", "chain"};
  return types;
}

/// The four query texts of docs/QUERY_LANGUAGE.md, in rotation order. They
/// are interleaved, never repeated back to back: a query run right after
/// itself swings by 2x on a shared host, while a rotation keeps every query
/// type exposed to the same drift.
std::vector<QueryDef> Rotation() {
  return {
      {"cube3",
       "select prod, month, state, sum(sale) from Sales "
       "analyze by cube(prod, month, state)"},
      {"cube2", "select prod, month, sum(sale) from Sales analyze by cube(prod, month)"},
      {"pivot",
       "select cust, avg(X.sale) as avg_ny, avg(Y.sale) as avg_nj, avg(Z.sale) as avg_ct "
       "from Sales analyze by group(cust) "
       "such that X: X.cust = cust and X.state = 'NY', "
       "Y: Y.cust = cust and Y.state = 'NJ', "
       "Z: Z.cust = cust and Z.state = 'CT'"},
      {"chain",
       "select prod, month, count(Z.sale) as between_count "
       "from Sales where year = 1997 analyze by group(prod, month) "
       "such that X: X.prod = prod and X.month = month - 1, "
       "Y: Y.prod = prod and Y.month = month + 1, "
       "Z: Z.prod = prod and Z.month = month "
       "and Z.sale > avg(X.sale) and Z.sale < avg(Y.sale) "
       "order by prod, month"},
  };
}

const std::vector<std::string>& Dims() {
  static const std::vector<std::string> dims = {"prod", "month", "state"};
  return dims;
}

std::string JoinDims(const std::vector<std::string>& dims) {
  std::string out;
  for (size_t i = 0; i < dims.size(); ++i) out += (i > 0 ? ", " : "") + dims[i];
  return out;
}

std::string WhereClause(bool only_1997) { return only_1997 ? " where year = 1997" : ""; }

/// Dimensions of `mask` (bit i = Dims()[i]) in schema order, so every drill
/// path that reaches a subset names it with the same text.
std::vector<std::string> DimsOf(unsigned mask) {
  std::vector<std::string> out;
  for (size_t i = 0; i < Dims().size(); ++i) {
    if (mask & (1u << i)) out.push_back(Dims()[i]);
  }
  return out;
}

std::string GroupByText(unsigned mask, bool only_1997) {
  const std::string dims = JoinDims(DimsOf(mask));
  return "select " + dims + ", sum(sale) as total, count(*) as n from Sales" +
         WhereClause(only_1997) + " analyze by group(" + dims + ")";
}

std::string GroupingSetsText(bool pairs, bool only_1997) {
  const std::string sets = pairs ? "(prod, month), (prod, state), (month, state)"
                                 : "(prod), (month), (state)";
  return "select prod, month, state, sum(sale) as total, count(*) as n from Sales" +
         WhereClause(only_1997) + " analyze by grouping_sets(" + sets + ")";
}

/// The service's distinct query texts: the four rotation queries (the
/// panels of a dashboard a user reloads, pool indices 0-3), then every group-by and grouping-sets step a
/// drill-down can take, each with and without `where year = 1997`.
struct ServicePool {
  std::vector<QueryDef> queries;
  std::map<std::string, int> index;  // text -> position

  int Add(QueryDef q) {
    auto [it, inserted] = index.emplace(q.text, static_cast<int>(queries.size()));
    if (inserted) queries.push_back(std::move(q));
    return it->second;
  }
};

ServicePool BuildServicePool() {
  ServicePool pool;
  for (QueryDef& q : Rotation()) pool.Add(std::move(q));
  for (bool only_1997 : {false, true}) {
    for (unsigned mask = 1; mask < 8; ++mask) {
      pool.Add({"drill", GroupByText(mask, only_1997)});
    }
    for (bool pairs : {false, true}) pool.Add({"drill", GroupingSetsText(pairs, only_1997)});
  }
  return pool;
}

template <typename T>
void Shuffle(std::vector<T>* v, Random* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(static_cast<uint64_t>(i))]);
  }
}

/// One cold-cache session of 108 queries, as pool indices, in 9-query
/// epochs: the four dashboard queries in their fixed panel order, then a
/// drill-down of three group-bys along one dimension order, one
/// grouping-sets query, and a step back to the first group-by, all under one
/// year filter.
///
/// Between two loads of a dashboard query come at most eight other queries,
/// whose results the result cache holds, so dashboard queries miss only when
/// cold; the drill-down results are what the cache evicts. The step back
/// always hits, so every dashboard load follows a hit: a hit right after a
/// miss runs cold and takes three times as long, which would otherwise
/// split each dashboard latency in two by what the previous query was.
///
/// The drill-downs are skewed: the six dimension orders come 5, 2, 2, 1, 1
/// and 1 times per pass (about 1/rank). Those counts, and the even split of
/// year filters and grouping-sets shapes, are fixed; the seed shuffles them.
/// A pass thus has the same mix of work at every seed, and only the order,
/// which decides what the cache still holds, varies.
std::vector<int> ServiceSequence(const ServicePool& pool, uint64_t seed) {
  static const int kOrders[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                    {2, 0, 1}, {1, 2, 0}, {2, 1, 0}};
  std::vector<int> orders = {0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 4, 5};
  const size_t epochs = orders.size();
  std::vector<int> only_1997(epochs), pairs(epochs);
  for (size_t e = 0; e < epochs; ++e) only_1997[e] = pairs[e] = e % 2;

  Random rng(seed);
  Shuffle(&orders, &rng);
  Shuffle(&only_1997, &rng);
  Shuffle(&pairs, &rng);
  std::vector<int> seq;
  for (size_t e = 0; e < epochs; ++e) {
    for (int panel = 0; panel < 4; ++panel) seq.push_back(panel);
    unsigned mask = 0;
    for (int level = 0; level < 3; ++level) {
      mask |= 1u << kOrders[orders[e]][level];
      seq.push_back(pool.index.at(GroupByText(mask, only_1997[e])));
    }
    seq.push_back(pool.index.at(GroupingSetsText(pairs[e], only_1997[e])));
    seq.push_back(seq[seq.size() - 4]);
  }
  return seq;
}

/// Seed of the service pass `pass` of a run with seed `seed`: passes differ,
/// so one run averages over several sequences, yet each pass repeats exactly.
uint64_t PassSeed(uint64_t seed, int pass) {
  return seed * 1000003ULL + static_cast<uint64_t>(pass) + 1;
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  int64_t rows = 200000;
  std::string work_dir = ".";
  std::string git_sha = "unknown";
  bool corrupt_expected = false;  // smoke test: expect a wrong answer
};

bool ParseInt(const char* s, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-expected") {
      args->corrupt_expected = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const char* value = argv[++i];
    int64_t n = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed" && ParseInt(value, &n) && n >= 0) {
      args->seed = static_cast<uint64_t>(n);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args->seconds > 0)) {
        *error = "--seconds must be a positive number";
        return false;
      }
    } else if (flag == "--trace" && ParseInt(value, &n) && (n == 0 || n == 1)) {
      args->trace = static_cast<int>(n);
    } else if (flag == "--rows" && ParseInt(value, &n) && n >= 1) {
      args->rows = n;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      *error = "bad flag or value: " + flag + " " + value;
      return false;
    }
  }
  if (args->workload != "mem" && args->workload != "paged" && args->workload != "service") {
    *error = "--workload must be mem, paged or service";
    return false;
  }
  if (args->seconds <= 0 || args->trace < 0) {
    *error = "--seconds and --trace are required";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// A memory figure of this process from /proc/self/status, MiB: "VmHWM:" is
/// the peak resident set size, "VmRSS:" the current one.
double StatusMb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
  }
  return 0;
}

/// Resets the peak resident set size to the current one, so that VmHWM from
/// here on covers only what runs after the call. False when the kernel
/// refuses.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5" << std::flush;
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Ordered key -> raw JSON value object.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, std::string raw) {
    fields_.emplace_back(key, std::move(raw));
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) { return Raw(key, JsonNumber(v)); }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += (i > 0 ? ", " : "") + JsonString(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Named metrics with units, in report order.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    values_.push_back({name, value, unit});
  }
  std::string ToJson() const {
    JsonObject obj;
    for (const Entry& e : values_) {
      obj.Raw(e.name, JsonObject().Num("value", e.value).Str("unit", e.unit).ToString());
    }
    return obj.ToString();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> values_;
};

// ---------------------------------------------------------------------------
// Answer checking
// ---------------------------------------------------------------------------

/// Order-sensitive fingerprint of a table's cells.
uint64_t Fingerprint(const Table& t) {
  uint64_t h = static_cast<uint64_t>(t.num_rows());
  for (int c = 0; c < t.num_columns(); ++c) {
    for (const Value& v : t.column(c)) h = (h ^ v.Hash()) * 0x100000001b3ULL;
  }
  return h;
}

/// The expected answer of one query text, computed once at set-up by a
/// different route than the timed one, plus the fingerprint of the first
/// timed answer that matched it. Later answers come by that answer's route,
/// so in its row order: one with its fingerprint passes, any other is
/// compared with the expected table. The table that passed last is held by
/// a weak reference, so a result-cache hit that returns that very table
/// passes without touching its rows (a check that reads them would leave the
/// next query running on cold caches), and no answer's rows outlive it.
struct Expected {
  std::unique_ptr<Table> table;
  std::optional<uint64_t> confirmed;
  std::weak_ptr<const Table> last_passed;

  bool Check(const std::shared_ptr<const Table>& answer) {
    if (answer == nullptr) return false;
    if (answer == last_passed.lock()) return true;
    const uint64_t fingerprint = Fingerprint(*answer);
    if (confirmed != fingerprint) {
      if (!TablesApproxEqualUnordered(*answer, *table)) return false;
      confirmed = fingerprint;
    }
    last_passed = answer;
    return true;
  }
};

/// Drops the last row of the expected table: a deliberately wrong expected
/// answer, so the smoke test can see mismatches counted.
void CorruptExpected(Expected* e) {
  std::vector<int64_t> keep;
  for (int64_t r = 0; r + 1 < e->table->num_rows(); ++r) keep.push_back(r);
  e->table = std::make_unique<Table>(TakeRows(*e->table, keep));
}

// ---------------------------------------------------------------------------
// Environment: the data and engine objects one workload runs against
// ---------------------------------------------------------------------------

struct Env {
  std::unique_ptr<Table> sales;  // dropped after set-up checks on `paged`
  std::string block_path;
  std::unique_ptr<PagedTable> paged;
  std::unique_ptr<BlockCache> block_cache;
  int64_t decoded_bytes = 0;
  Catalog catalog;
  MdJoinOptions md;  // engine knobs of the mem/paged query path
  std::unique_ptr<QueryService> service;
  std::unique_ptr<Session> session;

  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  ~Env() {
    paged.reset();
    if (!block_path.empty()) std::remove(block_path.c_str());
  }
};

/// Set-up as timed by setup_s: generate Sales from the seed; for `paged`
/// also write and open the block file and size the block cache; for
/// `service` also start the service and open the session.
Status Setup(const Args& args, Env* env) {
  SalesConfig config;
  config.num_rows = args.rows;
  config.seed = args.seed;
  env->sales = std::make_unique<Table>(GenerateSales(config));
  env->md.num_threads = 1;

  if (args.workload == "paged") {
    env->block_path = args.work_dir + "/sales-" + std::to_string(getpid()) + ".mdjb";
    BlockFileOptions file_options;
    file_options.block_size_rows = kBlockRows;
    MDJ_RETURN_NOT_OK(WriteBlockFile(*env->sales, env->block_path, file_options));
    MDJ_ASSIGN_OR_RETURN(env->paged, PagedTable::Open(env->block_path));
    env->decoded_bytes = 0;
    for (int b = 0; b < env->paged->num_blocks(); ++b) {
      env->decoded_bytes += env->paged->ApproxBlockBytes(b);
    }
    BlockCache::Options cache_options;
    cache_options.capacity_bytes = std::max<int64_t>(1, env->decoded_bytes / kBlockCacheDivisor);
    env->block_cache = std::make_unique<BlockCache>(std::move(cache_options));
    env->md.block_cache = env->block_cache.get();
    return RegisterPagedTable(&env->catalog, "Sales", *env->paged);
  }

  MDJ_RETURN_NOT_OK(env->catalog.Register("Sales", env->sales.get()));
  if (args.workload == "service") {
    // Budgets far above what one session uses: admission never queues or
    // sheds and no guard degrades, so the cache is the only server policy
    // at work.
    QueryServiceOptions options;
    options.admission.total_memory_bytes = int64_t{16} << 30;
    options.admission.total_threads = kServiceThreads;
    options.default_memory_per_query = int64_t{4} << 30;
    options.default_threads_per_query = kServiceThreads;
    options.cache_capacity_bytes = kResultCacheBytes;
    env->service = std::make_unique<QueryService>(env->catalog, options);
    env->session = env->service->OpenSession("olapbench");
  }
  return Status::OK();
}

/// Text -> result through the mem/paged query path: bind, optimize, execute.
Result<Table> RunText(const Catalog& catalog, const MdJoinOptions& md,
                      const std::string& text) {
  MDJ_ASSIGN_OR_RETURN(analyze::BoundQuery bound, analyze::BindQueryString(text, catalog));
  MDJ_ASSIGN_OR_RETURN(PlanPtr plan, OptimizePlan(bound.plan, catalog));
  return ExecutePlan(plan, catalog, md);
}

/// The expected answer of one text by the workload's check route: `mem` and
/// `service` execute the bound plan unoptimized at one thread; `paged` runs
/// the in-memory path on the same generated table.
Result<Table> ExpectedAnswer(const std::string& workload, const Catalog& in_memory,
                             const std::string& text) {
  if (workload == "paged") return RunText(in_memory, MdJoinOptions{}, text);
  MDJ_ASSIGN_OR_RETURN(analyze::BoundQuery bound, analyze::BindQueryString(text, in_memory));
  return ExecutePlan(bound.plan, in_memory, MdJoinOptions{});
}

/// Expected answers, one per query in `queries`.
Status ComputeExpected(const Args& args, const Env& env, const std::vector<QueryDef>& queries,
                       std::vector<Expected>* expected) {
  Catalog in_memory;
  MDJ_RETURN_NOT_OK(in_memory.Register("Sales", env.sales.get()));
  for (const QueryDef& q : queries) {
    Result<Table> answer = ExpectedAnswer(args.workload, in_memory, q.text);
    if (!answer.ok()) {
      return Status::Internal("expected answer of ", q.type, " failed: ",
                              answer.status().ToString());
    }
    Expected e;
    e.table = std::make_unique<Table>(std::move(answer).ValueOrDie());
    expected->push_back(std::move(e));
  }
  if (args.corrupt_expected) CorruptExpected(&expected->front());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded around public calls, kept in memory
// ---------------------------------------------------------------------------

struct SpanRec {
  int64_t query_id = 0;
  int parent = -1;  // index into Tracer::spans, -1 for a query's root
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  std::vector<std::pair<std::string, double>> counts;
};

struct TracedQuery {
  int64_t id = 0;
  std::string type;
  int root = -1;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  double Now() const { return MsBetween(origin_, Clock::now()); }

  int Add(int64_t query_id, int parent, std::string name, double start_ms, double end_ms) {
    spans.push_back({query_id, parent, std::move(name), start_ms, end_ms, {}});
    return static_cast<int>(spans.size()) - 1;
  }

  void Count(int span, const std::string& name, double value) {
    spans[static_cast<size_t>(span)].counts.emplace_back(name, value);
  }

  int64_t NewQuery(const std::string& type) {
    queries.push_back({static_cast<int64_t>(queries.size()), type, -1});
    return queries.back().id;
  }

  std::vector<SpanRec> spans;
  std::vector<TracedQuery> queries;
  std::vector<std::string> errors;  // profiles that break nesting (CheckProfile)

 private:
  Clock::time_point origin_;
};

/// Module of a profiled operator, from its label's plan kind. A TableRef is
/// a catalog clone in memory (`table`) and a whole-file decode when paged
/// (`storage`).
std::string OperatorSpanName(const std::string& label, bool paged) {
  const std::string kind = label.substr(0, label.find('('));
  std::string module = "ra";
  if (kind == "CubeBase" || kind == "CuboidBase") module = "cube";
  if (kind == "MdJoin" || kind == "GeneralizedMdJoin") module = "core";
  if (kind == "TableRef") module = paged ? "storage" : "table";
  return module + "." + kind;
}

/// Checks the raw profile before AddOperatorSpans lays it out: the executor
/// runs an operator's children one after another inside it, so each child
/// must fit in what its parent's time leaves after its siblings, and the
/// root in the ExplainAnalyze call around it (`outer_ms`). A break would be
/// clipped into the parent's span and move time between modules unseen, so
/// each one is recorded as an error instead.
void CheckProfile(const OperatorProfile& op, double outer_ms, int64_t query_id,
                  std::vector<std::string>* errors) {
  constexpr double kSlackMs = 1e-6;  // rounding of the span clock's doubles
  if (op.elapsed_ms > outer_ms + kSlackMs) {
    errors->push_back("query " + std::to_string(query_id) + ": operator " + op.label +
                      " took " + JsonNumber(op.elapsed_ms) + " ms of " +
                      JsonNumber(outer_ms) + " ms left to it");
  }
  double children_ms = 0;
  for (const auto& child : op.children) children_ms += child->elapsed_ms;
  for (const auto& child : op.children) {
    CheckProfile(*child, op.elapsed_ms - (children_ms - child->elapsed_ms), query_id, errors);
  }
}

/// Adds one span per profiled operator under `parent`. The profile gives each
/// operator's inclusive time; children ran before their parent's own work,
/// so they are laid out back to back from the parent's start, clipped to it.
/// Returns the operator rows materialized in this subtree.
int64_t AddOperatorSpans(Tracer* tracer, int64_t query_id, int parent,
                         const OperatorProfile& op, double start_ms, double limit_ms,
                         bool paged) {
  const double end_ms = std::min(start_ms + op.elapsed_ms, limit_ms);
  const int span =
      tracer->Add(query_id, parent, OperatorSpanName(op.label, paged), start_ms, end_ms);
  if (op.is_mdjoin) {
    tracer->Count(span, "detail_rows_scanned", static_cast<double>(op.detail_rows_scanned));
    tracer->Count(span, "candidate_pairs", static_cast<double>(op.candidate_pairs));
    tracer->Count(span, "matched_pairs", static_cast<double>(op.matched_pairs));
    tracer->Count(span, "probe_memo_lookups", static_cast<double>(op.index_probe_lookups));
    tracer->Count(span, "probe_memo_hits", static_cast<double>(op.index_probe_memo_hits));
    tracer->Count(span, "blocks_read", static_cast<double>(op.blocks_read));
    tracer->Count(span, "blocks_faulted", static_cast<double>(op.blocks_faulted));
    tracer->Count(span, "block_cache_hits", static_cast<double>(op.block_cache_hits));
    tracer->Count(span, "morsels", static_cast<double>(op.morsels));
    tracer->Count(span, "steal_waits", static_cast<double>(op.steal_waits));
  }
  int64_t rows = op.output_rows;
  double cursor = start_ms;
  for (const auto& child : op.children) {
    rows += AddOperatorSpans(tracer, query_id, span, *child, cursor, end_ms, paged);
    cursor = std::min(cursor + child->elapsed_ms, end_ms);
  }
  return rows;
}

/// Traced optimize + EXPLAIN ANALYZE of a bound plan under `parent`.
/// Returns the answer (null on error).
std::shared_ptr<const Table> TracedOptimizeExecute(Tracer* tracer, int64_t qid, int parent,
                                                   const PlanPtr& bound, const Catalog& catalog,
                                                   const MdJoinOptions& md, BlockCache* cache,
                                                   bool paged) {
  QueryProfile profile;
  double t0 = tracer->Now();
  Result<PlanPtr> plan = OptimizePlan(bound, catalog, OptimizeOptions{}, nullptr,
                                      &profile.rewrites);
  double t1 = tracer->Now();
  const int opt = tracer->Add(qid, parent, "optimizer.optimize", t0, t1);
  int accepted = 0;
  for (const RewriteRecord& r : profile.rewrites) accepted += r.accepted ? 1 : 0;
  tracer->Count(opt, "rewrites", accepted);
  if (!plan.ok()) return nullptr;

  const BlockCache::StatsSnapshot before =
      cache != nullptr ? cache->stats() : BlockCache::StatsSnapshot{};
  t0 = tracer->Now();
  Result<Table> answer = ExplainAnalyze(*plan, catalog, md, &profile);
  t1 = tracer->Now();
  const int exec = tracer->Add(qid, parent, "executor.exec", t0, t1);
  int64_t rows = 0;
  if (profile.root != nullptr) {
    CheckProfile(*profile.root, t1 - t0, qid, &tracer->errors);
    rows = AddOperatorSpans(tracer, qid, exec, *profile.root, t0, t1, paged);
  }
  tracer->Count(exec, "rows_materialized", static_cast<double>(rows));
  if (cache != nullptr) {
    tracer->Count(exec, "block_evictions",
                  static_cast<double>(cache->stats().evictions - before.evictions));
  }
  if (!answer.ok()) return nullptr;
  return std::make_shared<const Table>(std::move(answer).ValueOrDie());
}

/// Self time of every span: its duration minus the union of its children's
/// intervals.
std::vector<double> SelfTimes(const std::vector<SpanRec>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const SpanRec& s : spans) {
    if (s.parent >= 0) kids[static_cast<size_t>(s.parent)].emplace_back(s.start_ms, s.end_ms);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, run_start = 0, run_end = -1e300;
    for (const auto& [a, b] : iv) {
      const double lo = std::max(a, spans[i].start_ms), hi = std::min(b, spans[i].end_ms);
      if (hi <= lo) continue;
      if (lo > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = lo;
        run_end = hi;
      } else {
        run_end = std::max(run_end, hi);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = (spans[i].end_ms - spans[i].start_ms) - covered;
  }
  return self;
}

/// Per-query totals of the trace, reduced to the per-layer metrics.
struct LayerTotals {
  std::map<std::string, double> ms;      // metric name -> summed ms
  std::map<std::string, double> counts;  // count name -> sum
  std::map<std::string, int> queries;    // step -> queries that ran it
};

void WriteTraceFile(const std::string& path, const Tracer& tracer,
                    const std::vector<double>& self) {
  std::ofstream out(path);
  out << "{\"queries\": [";
  for (size_t i = 0; i < tracer.queries.size(); ++i) {
    const TracedQuery& q = tracer.queries[i];
    out << (i > 0 ? ",\n" : "\n")
        << JsonObject().Num("id", static_cast<double>(q.id)).Str("type", q.type).ToString();
  }
  out << "],\n\"spans\": [";
  for (size_t i = 0; i < tracer.spans.size(); ++i) {
    const SpanRec& s = tracer.spans[i];
    JsonObject counts;
    for (const auto& [k, v] : s.counts) counts.Num(k, v);
    out << (i > 0 ? ",\n" : "\n")
        << JsonObject()
               .Num("id", static_cast<double>(i))
               .Num("query", static_cast<double>(s.query_id))
               .Num("parent", s.parent)
               .Str("name", s.name)
               .Num("start_ms", s.start_ms)
               .Num("end_ms", s.end_ms)
               .Num("self_ms", self[i])
               .Raw("counts", counts.ToString())
               .ToString();
  }
  out << "]}\n";
}

// ---------------------------------------------------------------------------
// Run state shared by every workload
// ---------------------------------------------------------------------------

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

struct ServiceCounts {
  int64_t queries = 0, exact_hits = 0, rollup_hits = 0, misses = 0, evictions = 0;
  double queue_wait_ms = 0;

  void Add(const QueryStats& stats) {
    ++queries;
    exact_hits += stats.cache == CacheOutcome::kHit ? 1 : 0;
    rollup_hits += stats.cache == CacheOutcome::kRollupHit ? 1 : 0;
    misses += stats.cache == CacheOutcome::kMiss ? 1 : 0;
    queue_wait_ms += static_cast<double>(stats.queue_wait_ms);
  }
  std::string ToJson() const {
    return JsonObject()
        .Num("queries", static_cast<double>(queries))
        .Num("exact_hits", static_cast<double>(exact_hits))
        .Num("rollup_hits", static_cast<double>(rollup_hits))
        .Num("misses", static_cast<double>(misses))
        .Num("evictions", static_cast<double>(evictions))
        .ToString();
  }
};

int64_t ResultCacheEvictions() {
  return MetricsRegistry::Global().GetCounter("mdjoin_server_cache_evictions_total")->value();
}

struct Run {
  Args args;
  std::unique_ptr<Env> env;
  std::vector<QueryDef> queries;  // the rotation, or the service pool
  std::vector<Expected> expected;
  ServicePool pool;
  double setup_s = 0;
  double peak_mb = 0;                  // VmHWM seen so far in the timed loop
  std::string peak_set_by = "set-up";  // query type that last raised it
  Outcome outcome;
  MetricSet metrics;
  JsonObject record;
};

// ---------------------------------------------------------------------------
// Timed (untraced) runs
// ---------------------------------------------------------------------------

/// Called after each timed query, outside its timed interval: notes the
/// query type whose run last raised the peak resident set size.
void NotePeak(Run* run, const std::string& type) {
  const double hwm = StatusMb("VmHWM:");
  if (hwm > run->peak_mb) {
    run->peak_mb = hwm;
    run->peak_set_by = type;
  }
}

void ReportLatencies(Run* run, const std::vector<std::pair<std::string, double>>& samples,
                     double correct, double busy_ms) {
  std::vector<double> all;
  std::map<std::string, std::vector<double>> by_type;
  for (const auto& [type, ms] : samples) {
    all.push_back(ms);
    by_type[type].push_back(ms);
  }
  run->metrics.Add("setup_s", run->setup_s, "s");
  run->metrics.Add("qps", busy_ms > 0 ? correct / (busy_ms / 1000.0) : 0, "1/s");
  JsonObject counts;
  for (const std::string& type : QueryTypes()) {
    run->metrics.Add(type + "_ms", Median(by_type[type]), "ms");
    counts.Num(type, static_cast<double>(by_type[type].size()));
  }
  const double p90 = Quantile(all, 0.9);
  run->metrics.Add("p90_ms", p90, "ms");
  run->metrics.Add("peak_rss_mb", StatusMb("VmHWM:"), "MiB");
  int64_t above_p90 = 0;
  for (double ms : all) above_p90 += ms > p90 ? 1 : 0;

  // p50_ms and failed_frac go to the run record only. On mem and paged half
  // of the samples are the two faster query types, so the overall median
  // falls in the gap between two types' latencies and jumps from run to run
  // (the per-type medians are the steady figures there); failed_frac is 0
  // on a correct run.
  MetricSet all_metrics = run->metrics;
  all_metrics.Add("p50_ms", Median(all), "ms");
  all_metrics.Add("failed_frac",
                  static_cast<double>(run->outcome.failed) /
                      static_cast<double>(std::max<int64_t>(1, run->outcome.attempted)),
                  "ratio");
  run->record.Raw("end_to_end", all_metrics.ToJson())
      .Num("timed_wall_s", busy_ms / 1000.0)
      .Num("samples", static_cast<double>(all.size()))
      .Num("samples_above_p90", static_cast<double>(above_p90))
      .Raw("samples_by_type", counts.ToString())
      .Str("peak_rss_set_by", run->peak_set_by);
}

void TimedRotation(Run* run) {
  std::vector<std::pair<std::string, double>> samples;
  double busy_ms = 0, correct = 0;
  const Clock::time_point start = Clock::now();
  for (int rotation = 0;; ++rotation) {
    const bool warmup = rotation == 0;  // lazy per-table state settles here
    for (size_t i = 0; i < run->queries.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      Result<Table> answer = RunText(run->env->catalog, run->env->md, run->queries[i].text);
      const double ms = MsBetween(t0, Clock::now());
      NotePeak(run, run->queries[i].type);
      const bool ok = answer.ok() && run->expected[i].Check(std::make_shared<const Table>(
                                         std::move(answer).ValueOrDie()));
      if (warmup) continue;
      run->outcome.Record(ok);
      samples.emplace_back(run->queries[i].type, ms);
      busy_ms += ms;
      correct += ok ? 1 : 0;
    }
    if (!warmup && MsBetween(start, Clock::now()) >= run->args.seconds * 1000.0) break;
  }
  ReportLatencies(run, samples, correct, busy_ms);
}

/// Whole cold-cache passes only, each a different sequence: a pass starts
/// with its misses, so a cut-off pass would tilt qps by where it was cut. A
/// new pass starts while at least half a pass's time is left.
void TimedService(Run* run) {
  std::vector<std::pair<std::string, double>> samples;
  double busy_ms = 0, correct = 0;
  const Clock::time_point start = Clock::now();
  int pass = 0;
  for (;; ++pass) {
    const double elapsed_ms = MsBetween(start, Clock::now());
    if (pass > 0 && elapsed_ms + 0.5 * elapsed_ms / pass > run->args.seconds * 1000.0) break;
    run->env->service->cache()->Clear();
    const int64_t evictions_before = ResultCacheEvictions();
    ServiceCounts counts;
    for (int idx : ServiceSequence(run->pool, PassSeed(run->args.seed, pass))) {
      const QueryDef& q = run->queries[static_cast<size_t>(idx)];
      const Clock::time_point t0 = Clock::now();
      Result<QueryResult> answer = run->env->session->ExecuteQueryString(q.text);
      const double ms = MsBetween(t0, Clock::now());
      NotePeak(run, q.type);
      const bool ok =
          answer.ok() && run->expected[static_cast<size_t>(idx)].Check(answer->table);
      if (answer.ok()) counts.Add(answer->stats);
      run->outcome.Record(ok);
      samples.emplace_back(q.type, ms);
      busy_ms += ms;
      correct += ok ? 1 : 0;
    }
    if (pass == 0) {
      counts.evictions = ResultCacheEvictions() - evictions_before;
      run->record.Raw("service_pass0_counts", counts.ToJson());
    }
  }
  run->record.Num("service_passes", pass);
  ReportLatencies(run, samples, correct, busy_ms);
}

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

/// Adds `value` under `name` and `name.type`, so every layer metric exists
/// both over all queries and per query type.
void AddTotals(LayerTotals* totals, const std::string& type, const std::string& name,
               double value) {
  totals->ms[name] += value;
  totals->ms[name + "." + type] += value;
}

/// Reduces the trace to per-layer sums; per-query means are taken at report.
LayerTotals ReduceTrace(const Tracer& tracer, const std::vector<double>& self,
                        std::vector<std::string>* errors) {
  LayerTotals t;
  std::vector<double> self_sum(tracer.queries.size(), 0);
  for (size_t i = 0; i < tracer.spans.size(); ++i) {
    const SpanRec& s = tracer.spans[i];
    const std::string& type = tracer.queries[static_cast<size_t>(s.query_id)].type;
    self_sum[static_cast<size_t>(s.query_id)] += self[i];
    const std::string module = s.name.substr(0, s.name.find('.'));
    const double dur = s.end_ms - s.start_ms;
    if (s.name == "analyze.bind" || s.name == "optimizer.optimize" || s.name == "server.key" ||
        s.name == "executor.exec") {
      AddTotals(&t, type, s.name + "_ms", dur);
      t.queries[s.name] += 1;
      t.queries[s.name + "." + type] += 1;
    } else if (module == "cube") {
      AddTotals(&t, type, "cube.base_ms", self[i]);
    } else if (module == "core") {
      AddTotals(&t, type, "core.mdjoin_ms", self[i]);
    } else if (module == "ra") {
      AddTotals(&t, type, "ra.ms", self[i]);
    } else if (module == "table") {
      AddTotals(&t, type, "table.materialize_ms", self[i]);
    } else if (module == "storage") {
      AddTotals(&t, type, "storage.read_ms", self[i]);
    }
    for (const auto& [name, value] : s.counts) {
      t.counts[name] += value;
      t.counts[name + "." + type] += value;
    }
  }
  for (const TracedQuery& q : tracer.queries) {
    const SpanRec& root = tracer.spans[static_cast<size_t>(q.root)];
    const double dur = root.end_ms - root.start_ms;
    if (std::fabs(self_sum[static_cast<size_t>(q.id)] - dur) > 1e-6 * std::max(1.0, dur)) {
      errors->push_back("query " + std::to_string(q.id) + ": span self times sum to " +
                        JsonNumber(self_sum[static_cast<size_t>(q.id)]) + " ms, query took " +
                        JsonNumber(dur) + " ms");
    }
  }
  return t;
}

void ReportLayers(Run* run, const Tracer& tracer, const ServiceCounts& server,
                  double traced_ms, double untraced_ms) {
  const std::vector<double> self = SelfTimes(tracer.spans);
  std::vector<std::string> errors = tracer.errors;
  const LayerTotals t = ReduceTrace(tracer, self, &errors);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "trace: %s\n", e.c_str());
    run->outcome.Record(false);
  }

  auto count = [&](const std::string& name) {
    auto it = t.counts.find(name);
    return it == t.counts.end() ? 0.0 : it->second;
  };
  auto runs = [&](const std::string& step) {
    auto it = t.queries.find(step);
    return it == t.queries.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto per = [](double v, double n) { return n > 0 ? v / n : 0.0; };
  auto ms = [&](const std::string& name) {
    auto it = t.ms.find(name);
    return it == t.ms.end() ? 0.0 : it->second;
  };

  MetricSet& m = run->metrics;
  const double executed = runs("executor.exec");
  m.Add("analyze.bind_ms", per(ms("analyze.bind_ms"), runs("analyze.bind")), "ms");
  m.Add("optimizer.optimize_ms", per(ms("optimizer.optimize_ms"), runs("optimizer.optimize")),
        "ms");
  m.Add("optimizer.rewrites", per(count("rewrites"), runs("optimizer.optimize")), "count");
  m.Add("server.key_ms", per(ms("server.key_ms"), runs("server.key")), "ms");
  m.Add("executor.exec_ms", per(ms("executor.exec_ms"), executed), "ms");
  m.Add("executor.rows_materialized", per(count("rows_materialized"), executed), "rows");
  for (const char* layer :
       {"cube.base_ms", "core.mdjoin_ms", "ra.ms", "table.materialize_ms", "storage.read_ms"}) {
    m.Add(layer, per(ms(layer), executed), "ms");
  }
  m.Add("core.detail_rows_scanned", per(count("detail_rows_scanned"), executed), "rows");
  m.Add("core.candidate_pairs", per(count("candidate_pairs"), executed), "count");
  m.Add("core.matched_pairs", per(count("matched_pairs"), executed), "count");
  m.Add("core.probe_memo_lookups", per(count("probe_memo_lookups"), executed), "count");
  m.Add("core.probe_memo_hit_ratio", per(count("probe_memo_hits"), count("probe_memo_lookups")),
        "ratio");
  m.Add("storage.blocks_requested", per(count("blocks_read"), executed), "count");
  m.Add("storage.blocks_faulted", per(count("blocks_faulted"), executed), "count");
  m.Add("storage.block_cache_hit_ratio", per(count("block_cache_hits"), count("blocks_read")),
        "ratio");
  m.Add("storage.evictions", per(count("block_evictions"), executed), "count");

  const double q = static_cast<double>(server.queries);
  m.Add("server.queries", q, "count");
  m.Add("server.exact_hits", static_cast<double>(server.exact_hits), "count");
  m.Add("server.rollup_hits", static_cast<double>(server.rollup_hits), "count");
  m.Add("server.misses", static_cast<double>(server.misses), "count");
  m.Add("server.exact_hit_ratio", per(static_cast<double>(server.exact_hits), q), "ratio");
  m.Add("server.rollup_hit_ratio", per(static_cast<double>(server.rollup_hits), q), "ratio");
  m.Add("server.miss_ratio", per(static_cast<double>(server.misses), q), "ratio");
  m.Add("server.evictions", static_cast<double>(server.evictions), "count");
  m.Add("server.queue_wait_ms", per(server.queue_wait_ms, q), "ms");
  m.Add("parallel.morsels", per(count("morsels"), executed), "count");
  m.Add("parallel.steal_waits", per(count("steal_waits"), executed), "count");

  for (const std::string& type : QueryTypes()) {
    const double n = runs("executor.exec." + type);
    m.Add("analyze.bind_ms." + type,
          per(ms("analyze.bind_ms." + type), runs("analyze.bind." + type)), "ms");
    m.Add("optimizer.optimize_ms." + type,
          per(ms("optimizer.optimize_ms." + type), runs("optimizer.optimize." + type)), "ms");
    m.Add("executor.exec_ms." + type, per(ms("executor.exec_ms." + type), n), "ms");
    for (const char* layer : {"cube.base_ms", "core.mdjoin_ms", "ra.ms", "table.materialize_ms",
                              "storage.read_ms"}) {
      m.Add(std::string(layer) + "." + type, per(ms(std::string(layer) + "." + type), n), "ms");
    }
    m.Add("storage.blocks_faulted." + type, per(count("blocks_faulted." + type), n), "count");
  }

  m.Add("obs.traced_queries", static_cast<double>(tracer.queries.size()), "count");
  m.Add("obs.untraced_ms", untraced_ms, "ms");
  m.Add("obs.trace_overhead_frac", per(traced_ms - untraced_ms, untraced_ms), "ratio");

  const std::string path = run->args.work_dir + "/trace-" + run->args.workload + "-" +
                           std::to_string(run->args.seed) + ".json";
  WriteTraceFile(path, tracer, self);
  run->record.Str("trace_file", path)
      .Num("trace_spans", static_cast<double>(tracer.spans.size()))
      .Num("trace_errors", static_cast<double>(errors.size()));
}

/// mem/paged: kTracedRotations rotations untraced (ExecutePlan) interleaved
/// with as many traced ones (ExplainAnalyze), so the overhead comparison
/// sees the same host drift on both sides.
void TracedRotation(Run* run) {
  const bool paged = run->args.workload == "paged";
  Tracer tracer(Clock::now());
  double traced_ms = 0, untraced_ms = 0;
  for (int rotation = 0; rotation < kTracedRotations; ++rotation) {
    for (size_t i = 0; i < run->queries.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      Result<Table> answer = RunText(run->env->catalog, run->env->md, run->queries[i].text);
      untraced_ms += MsBetween(t0, Clock::now());
      run->outcome.Record(answer.ok() && run->expected[i].Check(std::make_shared<const Table>(
                                             std::move(answer).ValueOrDie())));
    }
    for (size_t i = 0; i < run->queries.size(); ++i) {
      const int64_t qid = tracer.NewQuery(run->queries[i].type);
      const double q0 = tracer.Now();
      const int root = tracer.Add(qid, -1, "query", q0, q0);
      tracer.queries.back().root = root;
      Result<analyze::BoundQuery> bound =
          analyze::BindQueryString(run->queries[i].text, run->env->catalog);
      tracer.Add(qid, root, "analyze.bind", q0, tracer.Now());
      std::shared_ptr<const Table> answer;
      if (bound.ok()) {
        answer = TracedOptimizeExecute(&tracer, qid, root, bound->plan, run->env->catalog,
                                       run->env->md, run->env->block_cache.get(), paged);
      }
      tracer.spans[static_cast<size_t>(root)].end_ms = tracer.Now();
      traced_ms += tracer.Now() - q0;
      run->outcome.Record(run->expected[i].Check(answer));
    }
  }
  ReportLayers(run, tracer, ServiceCounts{}, traced_ms, untraced_ms);
}

/// service: one cold-cache pass untraced, then the same pass traced (bind
/// span + the session call), then a replay outside the passes: every query's
/// OptimizePlan and MakePlanCacheKey, and each distinct miss through
/// ExplainAnalyze at the service's thread count.
void TracedService(Run* run) {
  const std::vector<int> seq = ServiceSequence(run->pool, PassSeed(run->args.seed, 0));
  Session* session = run->env->session.get();

  run->env->service->cache()->Clear();
  double untraced_ms = 0;
  for (int idx : seq) {
    const Clock::time_point t0 = Clock::now();
    Result<QueryResult> answer = session->ExecuteQueryString(run->queries[static_cast<size_t>(idx)].text);
    untraced_ms += MsBetween(t0, Clock::now());
    run->outcome.Record(answer.ok() && run->expected[static_cast<size_t>(idx)].Check(answer->table));
  }

  run->env->service->cache()->Clear();
  Tracer tracer(Clock::now());
  ServiceCounts counts;
  std::vector<int> missed;  // pool indices that missed at least once, first-miss order
  std::vector<PlanPtr> bound_plans;
  double traced_ms = 0;
  for (int idx : seq) {
    const QueryDef& q = run->queries[static_cast<size_t>(idx)];
    const int64_t qid = tracer.NewQuery(q.type);
    const int64_t evictions_before = ResultCacheEvictions();
    const double q0 = tracer.Now();
    const int root = tracer.Add(qid, -1, "query", q0, q0);
    tracer.queries.back().root = root;
    Result<analyze::BoundQuery> bound = analyze::BindQueryString(q.text, run->env->catalog);
    tracer.Add(qid, root, "analyze.bind", q0, tracer.Now());
    std::shared_ptr<const Table> table;
    if (bound.ok()) {
      const double e0 = tracer.Now();
      Result<QueryResult> answer = session->Execute(bound->plan);
      const int exec = tracer.Add(qid, root, "server.execute", e0, tracer.Now());
      if (answer.ok()) {
        counts.Add(answer->stats);
        tracer.Count(exec, "queue_wait_ms", static_cast<double>(answer->stats.queue_wait_ms));
        table = answer->table;
        if (answer->stats.cache == CacheOutcome::kMiss &&
            std::find(missed.begin(), missed.end(), idx) == missed.end()) {
          missed.push_back(idx);
        }
      }
      bound_plans.push_back(bound->plan);
    }
    tracer.spans[static_cast<size_t>(root)].end_ms = tracer.Now();
    traced_ms += tracer.Now() - q0;
    counts.evictions += ResultCacheEvictions() - evictions_before;
    run->outcome.Record(run->expected[static_cast<size_t>(idx)].Check(table));
  }

  // Replay: the canonicalization steps of every query of the pass.
  for (const PlanPtr& plan : bound_plans) {
    const int64_t qid = tracer.NewQuery("replay");
    const double q0 = tracer.Now();
    const int root = tracer.Add(qid, -1, "query", q0, q0);
    tracer.queries.back().root = root;
    Result<PlanPtr> optimized = OptimizePlan(plan, run->env->catalog);
    const double q1 = tracer.Now();
    tracer.Add(qid, root, "optimizer.optimize", q0, q1);
    if (optimized.ok()) {
      (void)MakePlanCacheKey(*optimized);
      tracer.Add(qid, root, "server.key", q1, tracer.Now());
    }
    tracer.spans[static_cast<size_t>(root)].end_ms = tracer.Now();
  }
  // Replay: each distinct miss, profiled at the service's thread count.
  MdJoinOptions md;
  md.num_threads = kServiceThreads;
  for (int idx : missed) {
    const QueryDef& q = run->queries[static_cast<size_t>(idx)];
    const int64_t qid = tracer.NewQuery(q.type);
    const double q0 = tracer.Now();
    const int root = tracer.Add(qid, -1, "query", q0, q0);
    tracer.queries.back().root = root;
    Result<analyze::BoundQuery> bound = analyze::BindQueryString(q.text, run->env->catalog);
    tracer.Add(qid, root, "analyze.bind", q0, tracer.Now());
    std::shared_ptr<const Table> answer;
    if (bound.ok()) {
      answer = TracedOptimizeExecute(&tracer, qid, root, bound->plan, run->env->catalog, md,
                                     nullptr, false);
    }
    tracer.spans[static_cast<size_t>(root)].end_ms = tracer.Now();
    run->outcome.Record(run->expected[static_cast<size_t>(idx)].Check(answer));
  }

  run->record.Raw("service_pass0_counts", counts.ToJson());
  ReportLayers(run, tracer, counts, traced_ms, untraced_ms);
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  auto run = std::make_unique<Run>();
  std::string error;
  if (!ParseArgs(argc, argv, &run->args, &error)) {
    std::fprintf(stderr, "olap_bench: %s\n", error.c_str());
    return 2;
  }
  const Args& args = run->args;

  // Set-up, several times; the last environment is kept.
  std::vector<double> setup_times;
  for (int i = 0; i < kSetups; ++i) {
    run->env.reset();
    run->env = std::make_unique<Env>();
    const Clock::time_point t0 = Clock::now();
    Status st = Setup(args, run->env.get());
    setup_times.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    if (!st.ok()) {
      std::fprintf(stderr, "olap_bench: set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  run->setup_s = Median(setup_times);

  if (args.workload == "service") {
    run->pool = BuildServicePool();
    run->queries = run->pool.queries;
  } else {
    run->queries = Rotation();
  }
  Status st = ComputeExpected(args, *run->env, run->queries, &run->expected);
  if (!st.ok()) {
    std::fprintf(stderr, "olap_bench: %s\n", st.ToString().c_str());
    return 1;
  }
  int64_t expected_bytes = 0;
  for (const Expected& e : run->expected) expected_bytes += e.table->ApproxBytes();
  const int64_t table_bytes = run->env->sales->ApproxBytes();
  if (args.workload == "paged") run->env->sales.reset();  // the file is the table now

  // peak_rss_mb covers the queries only: the set-ups and the expected
  // answers, built by other routes, are left behind here. The heap they
  // freed goes back to the kernel first, so that what the queries allocate
  // raises the peak instead of reusing pages the set-ups left resident.
  const double setup_peak_mb = StatusMb("VmHWM:");
  malloc_trim(0);
  const bool peak_reset = ResetPeakRss();
  run->peak_mb = StatusMb("VmHWM:");
  const double loop_start_rss_mb = StatusMb("VmRSS:");

  if (args.workload == "service") {
    args.trace ? TracedService(run.get()) : TimedService(run.get());
  } else {
    args.trace ? TracedRotation(run.get()) : TimedRotation(run.get());
  }

  JsonObject setups;
  for (size_t i = 0; i < setup_times.size(); ++i) setups.Num(std::to_string(i), setup_times[i]);
  run->record.Str("workload", args.workload)
      .Num("seed", static_cast<double>(args.seed))
      .Num("trace", args.trace)
      .Num("rows", static_cast<double>(args.rows))
      .Num("table_bytes", static_cast<double>(table_bytes))
      .Str("git_sha", args.git_sha)
      .Str("build_type", OLAPBENCH_BUILD_TYPE)
      .Num("nproc", std::thread::hardware_concurrency())
      .Num("run_seconds_arg", args.seconds)
      .Raw("setup_s_each", setups.ToString())
      .Num("expected_result_bytes", static_cast<double>(expected_bytes))
      .Num("peak_rss_before_loop_mb", setup_peak_mb)
      .Raw("peak_rss_reset", peak_reset ? "true" : "false")
      .Num("rss_at_loop_start_mb", loop_start_rss_mb)
      .Num("attempted", static_cast<double>(run->outcome.attempted))
      .Num("failed", static_cast<double>(run->outcome.failed));
  if (args.workload == "paged") {
    run->record.Num("block_rows", kBlockRows)
        .Num("blocks", run->env->paged->num_blocks())
        .Num("decoded_bytes", static_cast<double>(run->env->decoded_bytes))
        .Num("block_cache_bytes", static_cast<double>(run->env->block_cache->capacity_bytes()));
  }
  if (args.workload == "service") {
    run->record.Num("result_cache_bytes", static_cast<double>(kResultCacheBytes))
        .Num("service_threads", kServiceThreads)
        .Num("distinct_queries", static_cast<double>(run->queries.size()));
  }

  const bool correct = run->outcome.failed == 0 && run->outcome.attempted > 0;
  std::printf("%s\n", JsonObject().Raw("run_record", run->record.ToString()).ToString().c_str());
  std::printf("%s\n", JsonObject()
                          .Raw("correct", correct ? "true" : "false")
                          .Num("attempted", static_cast<double>(run->outcome.attempted))
                          .Num("failed", static_cast<double>(run->outcome.failed))
                          .Raw("metrics", run->metrics.ToJson())
                          .ToString()
                          .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace mdjoin

int main(int argc, char** argv) { return mdjoin::Main(argc, argv); }
