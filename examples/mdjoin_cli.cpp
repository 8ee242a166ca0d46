/// mdjoin_cli — run ANALYZE BY / EMF-SQL queries against CSV files from the
/// command line. The library as a usable tool:
///
///   example_mdjoin_cli --table Sales=sales.csv:'cust:int64,state:string,...'
///                      [--emf] [--explain] [--optimize] [--explain-analyze]
///                      [--trace-out=FILE] [--metrics-out=FILE]
///                      [--timeout-ms N] [--memory-limit BYTES[k|m|g]]
///                      [--storage memory|paged] [--block-cache-bytes BYTES[k|m|g]]
///                      [--block-size-rows N] [--spill-dir DIR]
///                      [--server-sim N] [--sim-queries M]
///                      'select ... analyze by ...'
///
/// --timeout-ms and --memory-limit attach a QueryGuard to the run: the query
/// is cancelled with "Deadline exceeded" past the timeout, and "Resource
/// exhausted" if the engine's accounted memory crosses the limit (exit 3 for
/// either). With no arguments, runs a self-contained demo on generated data.
///
/// Observability (docs/OPERATOR.md §10):
///   --explain-analyze   execute recording a per-operator profile and print
///                       the annotated plan (rows, selectivity, timings, the
///                       optimizer's rewrite log, terminal status) instead of
///                       the result rows.
///   --trace-out=FILE    collect a Chrome trace (chrome://tracing / Perfetto)
///                       of the execution — per-worker tracks with morsel
///                       spans, steal waits, merge tree, guard trips.
///   --metrics-out=FILE  dump the process metrics registry after the run
///                       (Prometheus text, or JSON when FILE ends in .json).
///
/// Query service simulation (docs/OPERATOR.md §11):
///   --server-sim N      instead of executing the query once, open N
///                       concurrent sessions on a QueryService and run the
///                       query --sim-queries times from each, through
///                       admission control and the result cache. Prints an
///                       admission/cache summary (ok / shed / failed counts,
///                       cache hit mix, latency percentiles). --timeout-ms,
///                       --memory-limit and --threads become the per-query
///                       session overrides. Combine with --metrics-out to
///                       dump the server metric catalog after the run.
///   --sim-queries M     queries per simulated session (default 4).
///
/// Workload telemetry (docs/OPERATOR.md §13):
///   --analyze           scan every loaded table up front (row counts,
///                       min/max, NDV sketches, equi-depth histograms) and
///                       register the statistics in the catalog — the cost
///                       model then estimates from measurements instead of
///                       its fallback constants.
///   --repeat N          run the query N times in-process. Combined with
///                       --explain-analyze, runs share a feedback store, so
///                       later runs estimate from earlier measurements
///                       (prints per-run max q-error).
///   --query-log=FILE    append one JSONL query record per run (fingerprint,
///                       plan hash, timings, rows, outcome, max q-error).
///   --slow-query-ms N   flag runs slower than N ms (trace instant +
///                       mdjoin_slow_queries_total).
///   --stats-dump        print table statistics, feedback-store, and
///                       query-history summaries before exiting.
///
/// Out-of-core storage (docs/OPERATOR.md §12):
///   --storage paged     convert every --table to a paged block file (written
///                       next to the CSV with a .mdjb suffix) and run the
///                       MD-join out-of-core: blocks faulted on demand, zone
///                       maps pruning non-matching blocks before decode.
///   --block-cache-bytes fixed budget for the decoded-block cache (paged mode;
///                       default 64m; 0 streams blocks with no cache).
///   --block-size-rows   rows per storage block when converting (default 4096).
///   --spill-dir DIR     enable partitioned spill: when θ carries an equi
///                       conjunct, base and detail hash-partition to files
///                       under DIR and partition pairs join independently.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "mdjoin/mdjoin.h"

using namespace mdjoin;  // NOLINT

namespace {

/// Parses "name:type,name:type" into a Schema.
Result<Schema> ParseSchemaSpec(const std::string& spec) {
  std::vector<Field> fields;
  for (const std::string& piece : SplitString(spec, ',')) {
    std::vector<std::string> parts = SplitString(std::string(StripWhitespace(piece)), ':');
    if (parts.size() != 2) {
      return Status::InvalidArgument("bad column spec '", piece,
                                     "' (want name:type)");
    }
    DataType type;
    if (parts[1] == "int64") {
      type = DataType::kInt64;
    } else if (parts[1] == "float64") {
      type = DataType::kFloat64;
    } else if (parts[1] == "string") {
      type = DataType::kString;
    } else {
      return Status::InvalidArgument("unknown type '", parts[1],
                                     "' (int64|float64|string)");
    }
    fields.push_back({parts[0], type});
  }
  return Schema(std::move(fields));
}

struct LoadedTable {
  std::string name;
  Table table;
};

/// Parses "67108864", "64m", "1g", ... into bytes.
Result<int64_t> ParseByteSize(const std::string& spec) {
  if (spec.empty()) return Status::InvalidArgument("--memory-limit: empty value");
  std::string digits = spec;
  int64_t multiplier = 1;
  switch (digits.back()) {
    case 'k': case 'K': multiplier = 1024; digits.pop_back(); break;
    case 'm': case 'M': multiplier = 1024 * 1024; digits.pop_back(); break;
    case 'g': case 'G': multiplier = 1024 * 1024 * 1024; digits.pop_back(); break;
    default: break;
  }
  char* end = nullptr;
  int64_t value = std::strtoll(digits.c_str(), &end, 10);
  if (digits.empty() || *end != '\0' || value <= 0) {
    return Status::InvalidArgument("--memory-limit: bad size '", spec,
                                   "' (want N, Nk, Nm, or Ng)");
  }
  return value * multiplier;
}

/// Parses "Name=path.csv:col:type,col:type" and loads the file.
Result<LoadedTable> LoadTableSpec(const std::string& spec) {
  size_t eq = spec.find('=');
  if (eq == std::string::npos) {
    return Status::InvalidArgument("--table wants Name=path.csv:schema");
  }
  std::string name = spec.substr(0, eq);
  std::string rest = spec.substr(eq + 1);
  size_t colon = rest.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("--table wants a :schema suffix after the path");
  }
  std::string path = rest.substr(0, colon);
  MDJ_ASSIGN_OR_RETURN(Schema schema, ParseSchemaSpec(rest.substr(colon + 1)));
  MDJ_ASSIGN_OR_RETURN(Table table, ReadCsvFile(path, schema));
  return LoadedTable{std::move(name), std::move(table)};
}

/// Writes `contents` to `path` ("-" for stdout). Returns false on I/O error.
bool WriteTextFile(const std::string& path, const std::string& contents) {
  if (path == "-") {
    std::fwrite(contents.data(), 1, contents.size(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  return std::fclose(f) == 0 && written == contents.size();
}

/// --server-sim: drives the bound query plan through a QueryService from
/// `sessions` concurrent sessions (`queries_per_session` queries each) and
/// prints an admission/cache summary instead of result rows. Per-query
/// overrides come from the --timeout-ms / --memory-limit / --threads flags.
int RunServerSim(const Catalog& catalog, const PlanPtr& plan, int sessions,
                 int queries_per_session, const QueryGuardOptions& guard_options,
                 int num_threads, const std::string& query_log_path,
                 int64_t slow_query_ms, bool stats_dump) {
  QueryServiceOptions service_options;
  service_options.query_log_path = query_log_path;
  service_options.slow_query_ms = slow_query_ms;
  // Profiled execution is what puts max q-error into the records the dump
  // summarizes, so the dump flag opts the service into feedback collection.
  service_options.collect_feedback = stats_dump;
  SessionQueryOptions query_options;
  if (guard_options.timeout_ms > 0) query_options.timeout_ms = guard_options.timeout_ms;
  if (guard_options.memory_hard_limit_bytes > 0) {
    query_options.memory_bytes = guard_options.memory_hard_limit_bytes;
  }
  query_options.threads = num_threads;

  QueryService service(catalog, service_options);
  std::vector<std::unique_ptr<Session>> handles;
  for (int i = 0; i < sessions; ++i) {
    handles.push_back(service.OpenSession("sim" + std::to_string(i)));
  }

  Mutex mu;
  int64_t ok = 0, shed = 0, failed = 0;
  int64_t hits = 0, rollup_hits = 0, misses = 0;
  std::vector<int64_t> latency_us, queue_wait_ms;
  std::string first_error;
  std::vector<std::thread> clients;
  for (int i = 0; i < sessions; ++i) {
    clients.emplace_back([&, i] {
      for (int q = 0; q < queries_per_session; ++q) {
        const auto start = std::chrono::steady_clock::now();
        Result<QueryResult> result = handles[i]->Execute(plan, query_options);
        const int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                               std::chrono::steady_clock::now() - start)
                               .count();
        MutexLock lock(mu);
        if (result.ok()) {
          ++ok;
          latency_us.push_back(us);
          queue_wait_ms.push_back(result->stats.queue_wait_ms);
          switch (result->stats.cache) {
            case CacheOutcome::kHit: ++hits; break;
            case CacheOutcome::kRollupHit: ++rollup_hits; break;
            case CacheOutcome::kMiss: ++misses; break;
            case CacheOutcome::kDisabled: break;
          }
        } else if (result.status().IsResourceExhausted()) {
          ++shed;
        } else {
          ++failed;
          if (first_error.empty()) first_error = result.status().ToString();
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  if (stats_dump && service.history() != nullptr) {
    std::printf("%s", service.history()->SummaryText().c_str());
    std::printf("feedback store: %lld entries\n",
                static_cast<long long>(service.feedback().size()));
  }
  handles.clear();

  auto percentile = [](std::vector<int64_t>& v, double p) -> int64_t {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const size_t idx = std::min(v.size() - 1,
                                static_cast<size_t>(p * static_cast<double>(v.size())));
    return v[idx];
  };
  std::printf("server-sim: %d sessions x %d queries\n", sessions, queries_per_session);
  std::printf("  ok=%lld shed=%lld failed=%lld\n", static_cast<long long>(ok),
              static_cast<long long>(shed), static_cast<long long>(failed));
  std::printf("  cache: hit=%lld rollup_hit=%lld miss=%lld\n",
              static_cast<long long>(hits), static_cast<long long>(rollup_hits),
              static_cast<long long>(misses));
  std::printf("  latency_ms: p50=%.1f p99=%.1f  queue_wait_ms: p99=%lld\n",
              static_cast<double>(percentile(latency_us, 0.50)) / 1000.0,
              static_cast<double>(percentile(latency_us, 0.99)) / 1000.0,
              static_cast<long long>(percentile(queue_wait_ms, 0.99)));
  if (failed > 0) {
    std::fprintf(stderr, "error: %lld queries failed; first: %s\n",
                 static_cast<long long>(failed), first_error.c_str());
    return 1;
  }
  return 0;
}

int RunDemo() {
  std::printf("no arguments: running the built-in demo on generated data\n\n");
  SalesConfig config;
  config.num_rows = 5000;
  config.num_customers = 20;
  config.num_states = 4;
  Table sales = GenerateSales(config);
  Catalog catalog;
  if (!catalog.Register("Sales", &sales).ok()) return 1;
  const char* sql =
      "select cust, count(*) as n, sum(sale) as total, avg(X.sale) as avg_ny "
      "from Sales analyze by group(cust) "
      "such that X: X.cust = cust and X.state = 'NY' "
      "having n > 100 order by total desc";
  std::printf("query:\n  %s\n\n", sql);
  Result<analyze::BoundQuery> bound = analyze::BindQueryString(sql, catalog);
  if (!bound.ok()) {
    std::fprintf(stderr, "%s\n", bound.status().ToString().c_str());
    return 1;
  }
  QueryProfile profile;
  Result<PlanPtr> optimized =
      OptimizePlan(bound->plan, catalog, {}, nullptr, &profile.rewrites);
  if (!optimized.ok()) {
    std::fprintf(stderr, "%s\n", optimized.status().ToString().c_str());
    return 1;
  }
  Result<Table> result = ExplainAnalyze(*optimized, catalog, {}, &profile);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\nexplain analyze:\n%s", result->ToString(15).c_str(),
              profile.ToText().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return RunDemo();

  std::vector<LoadedTable> tables;
  bool use_emf = false, explain = false, optimize = false, explain_analyze = false;
  QueryGuardOptions guard_options;
  int num_threads = 1;
  int server_sim = 0, sim_queries = 4;
  bool analyze_tables = false, stats_dump = false;
  int repeat = 1;
  int64_t slow_query_ms = 0;
  std::string query_log_path;
  bool paged_storage = false;
  int64_t block_cache_bytes = int64_t{64} << 20;
  int64_t block_size_rows = 4096;
  std::string spill_dir;
  std::string query, trace_out, metrics_out;
  // `--flag=value` spelling for the output-path flags.
  auto eq_value = [](const char* arg, const char* flag, std::string* out) {
    const size_t len = std::strlen(flag);
    if (std::strncmp(arg, flag, len) != 0 || arg[len] != '=') return false;
    *out = arg + len + 1;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--table") == 0 && i + 1 < argc) {
      Result<LoadedTable> loaded = LoadTableSpec(argv[++i]);
      if (!loaded.ok()) {
        std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
        return 2;
      }
      tables.push_back(std::move(*loaded));
    } else if (std::strcmp(argv[i], "--emf") == 0) {
      use_emf = true;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else if (std::strcmp(argv[i], "--optimize") == 0) {
      optimize = true;
    } else if (std::strcmp(argv[i], "--explain-analyze") == 0) {
      explain_analyze = true;
    } else if (std::strcmp(argv[i], "--analyze") == 0) {
      analyze_tables = true;
    } else if (std::strcmp(argv[i], "--stats-dump") == 0) {
      stats_dump = true;
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (repeat < 1) {
        std::fprintf(stderr, "error: --repeat wants a positive integer\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--slow-query-ms") == 0 && i + 1 < argc) {
      slow_query_ms = std::strtoll(argv[++i], nullptr, 10);
      if (slow_query_ms < 1) {
        std::fprintf(stderr, "error: --slow-query-ms wants a positive integer\n");
        return 2;
      }
    } else if (eq_value(argv[i], "--query-log", &query_log_path)) {
    } else if (std::strcmp(argv[i], "--query-log") == 0 && i + 1 < argc) {
      query_log_path = argv[++i];
    } else if (eq_value(argv[i], "--trace-out", &trace_out)) {
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (eq_value(argv[i], "--metrics-out", &metrics_out)) {
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
      guard_options.timeout_ms = std::strtoll(argv[++i], nullptr, 10);
      if (guard_options.timeout_ms <= 0) {
        std::fprintf(stderr, "error: --timeout-ms wants a positive integer\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--memory-limit") == 0 && i + 1 < argc) {
      Result<int64_t> bytes = ParseByteSize(argv[++i]);
      if (!bytes.ok()) {
        std::fprintf(stderr, "error: %s\n", bytes.status().ToString().c_str());
        return 2;
      }
      // Soft budget (degrade to multi-pass) and hard ceiling in one flag.
      guard_options.memory_budget_bytes = *bytes;
      guard_options.memory_hard_limit_bytes = *bytes;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      num_threads = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (num_threads < 1) {
        std::fprintf(stderr, "error: --threads wants a positive integer\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--server-sim") == 0 && i + 1 < argc) {
      server_sim = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (server_sim < 1) {
        std::fprintf(stderr, "error: --server-sim wants a positive session count\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--sim-queries") == 0 && i + 1 < argc) {
      sim_queries = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (sim_queries < 1) {
        std::fprintf(stderr, "error: --sim-queries wants a positive integer\n");
        return 2;
      }
    } else if (std::string storage_spec;
               eq_value(argv[i], "--storage", &storage_spec) ||
               (std::strcmp(argv[i], "--storage") == 0 && i + 1 < argc &&
                (storage_spec = argv[++i], true))) {
      if (storage_spec == "paged") {
        paged_storage = true;
      } else if (storage_spec != "memory") {
        std::fprintf(stderr, "error: --storage wants memory or paged (got '%s')\n",
                     storage_spec.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--block-cache-bytes") == 0 && i + 1 < argc) {
      Result<int64_t> bytes = ParseByteSize(argv[++i]);
      if (!bytes.ok() && std::strcmp(argv[i], "0") != 0) {
        std::fprintf(stderr, "error: %s\n", bytes.status().ToString().c_str());
        return 2;
      }
      block_cache_bytes = bytes.ok() ? *bytes : 0;
    } else if (std::strcmp(argv[i], "--block-size-rows") == 0 && i + 1 < argc) {
      block_size_rows = std::strtoll(argv[++i], nullptr, 10);
      if (block_size_rows < 1) {
        std::fprintf(stderr, "error: --block-size-rows wants a positive integer\n");
        return 2;
      }
    } else if (eq_value(argv[i], "--spill-dir", &spill_dir)) {
    } else if (std::strcmp(argv[i], "--spill-dir") == 0 && i + 1 < argc) {
      spill_dir = argv[++i];
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    } else {
      query = argv[i];
    }
  }
  if (query.empty() || tables.empty()) {
    std::fprintf(stderr,
                 "usage: %s --table Name=file.csv:col:type,... [--emf] [--explain] "
                 "[--optimize] [--explain-analyze] [--trace-out=FILE] "
                 "[--metrics-out=FILE] "
                 "[--timeout-ms N] [--memory-limit BYTES[k|m|g]] "
                 "[--threads N] "
                 "[--storage memory|paged] [--block-cache-bytes BYTES[k|m|g]] "
                 "[--block-size-rows N] [--spill-dir DIR] "
                 "[--server-sim N] [--sim-queries M] "
                 "[--analyze] [--repeat N] [--query-log=FILE] "
                 "[--slow-query-ms N] [--stats-dump] "
                 "'query'\n",
                 argv[0]);
    return 2;
  }

  Catalog catalog;
  std::vector<std::unique_ptr<PagedTable>> paged_tables;
  std::vector<std::string> block_files;
  std::unique_ptr<BlockCache> block_cache;
  if (paged_storage) {
    // Convert each loaded table to a block file in the temp directory, then
    // register the paged handle: the engine faults blocks on demand instead
    // of scanning the in-memory copy.
    const std::string dir = std::filesystem::temp_directory_path().string();
    for (const LoadedTable& t : tables) {
      std::string path = dir + "/mdjoin_cli_" + t.name + "_" +
                         std::to_string(static_cast<long long>(::getpid())) +
                         ".mdjb";
      BlockFileOptions file_options;
      file_options.block_size_rows = block_size_rows;
      if (Status s = WriteBlockFile(t.table, path, file_options); !s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
        return 2;
      }
      block_files.push_back(path);
      Result<std::unique_ptr<PagedTable>> opened = PagedTable::Open(path);
      if (!opened.ok()) {
        std::fprintf(stderr, "error: %s\n", opened.status().ToString().c_str());
        return 2;
      }
      paged_tables.push_back(std::move(*opened));
      if (Status s = RegisterPagedTable(&catalog, t.name, *paged_tables.back());
          !s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
        return 2;
      }
    }
    if (block_cache_bytes > 0) {
      BlockCache::Options cache_options;
      cache_options.capacity_bytes = block_cache_bytes;
      block_cache = std::make_unique<BlockCache>(cache_options);
    }
  } else {
    for (const LoadedTable& t : tables) {
      if (Status s = catalog.Register(t.name, &t.table); !s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
        return 2;
      }
    }
  }
  // Remove the converted block files when main returns on any path.
  struct BlockFileCleanup {
    const std::vector<std::string>* paths;
    ~BlockFileCleanup() {
      std::error_code ec;
      for (const std::string& p : *paths) std::filesystem::remove(p, ec);
    }
  } block_file_cleanup{&block_files};

  // --analyze: collect statistics from the loaded in-memory copies (also the
  // source the block files were converted from in paged mode) and attach
  // them to the catalog, so cost estimates below use measurements.
  std::vector<TableStats> table_stats;
  if (analyze_tables) {
    table_stats.reserve(tables.size());
    for (const LoadedTable& t : tables) {
      Result<TableStats> stats = AnalyzeTable(t.table, t.name);
      if (!stats.ok()) {
        std::fprintf(stderr, "error: %s\n", stats.status().ToString().c_str());
        return 2;
      }
      table_stats.push_back(std::move(*stats));
      if (Status s = catalog.RegisterStats(t.name, &table_stats.back()); !s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
        return 2;
      }
    }
  }

  Result<analyze::BoundQuery> bound =
      use_emf ? analyze::BindEmfQueryString(query, catalog)
              : analyze::BindQueryString(query, catalog);
  if (!bound.ok()) {
    std::fprintf(stderr, "error: %s\n", bound.status().ToString().c_str());
    return 1;
  }
  PlanPtr plan = bound->plan;
  QueryProfile profile;
  if (optimize) {
    Result<PlanPtr> optimized =
        OptimizePlan(plan, catalog, {}, nullptr, &profile.rewrites);
    if (!optimized.ok()) {
      std::fprintf(stderr, "error: %s\n", optimized.status().ToString().c_str());
      return 1;
    }
    plan = *optimized;
  }
  if (explain) {
    std::printf("plan:\n%s\n", ExplainPlan(plan).c_str());
    std::vector<std::string> analysis = StaticAnalysisReport(plan, catalog);
    if (!analysis.empty()) {
      std::printf("static analysis:\n");
      for (const std::string& line : analysis) std::printf("  %s\n", line.c_str());
      std::printf("\n");
    }
  }
  // Stops tracing and writes the trace/metrics dumps requested on the
  // command line; shared by the single-query and --server-sim paths.
  auto dump_observability = [&]() -> bool {
    if (!trace_out.empty()) {
      Tracing::Stop();
      if (!ChromeTraceWriter::WriteFile(trace_out)) {
        std::fprintf(stderr, "error: could not write trace to %s\n", trace_out.c_str());
        return false;
      }
    }
    if (!metrics_out.empty()) {
      MetricsRegistry& registry = MetricsRegistry::Global();
      const bool json = metrics_out.size() >= 5 &&
                        metrics_out.compare(metrics_out.size() - 5, 5, ".json") == 0;
      if (!WriteTextFile(metrics_out, json ? registry.RenderJson()
                                           : registry.RenderText())) {
        std::fprintf(stderr, "error: could not write metrics to %s\n",
                     metrics_out.c_str());
        return false;
      }
    }
    return true;
  };

  if (server_sim > 0) {
    // The service optimizes (canonicalizes) plans itself, so hand it the
    // bound plan as-is; --optimize only affects the single-query path.
    if (!trace_out.empty()) Tracing::Start();
    const int rc =
        RunServerSim(catalog, bound->plan, server_sim, sim_queries, guard_options,
                     num_threads, query_log_path, slow_query_ms, stats_dump);
    if (!dump_observability()) return 2;
    return rc;
  }

  const bool guarded = guard_options.timeout_ms > 0 ||
                       guard_options.memory_hard_limit_bytes > 0;
  QueryGuard guard(guard_options);
  MdJoinOptions md_options;
  if (guarded) md_options.guard = &guard;
  md_options.num_threads = num_threads;
  md_options.block_cache = block_cache.get();
  if (!spill_dir.empty()) {
    md_options.enable_spill = true;
    md_options.spill_dir = spill_dir;
  }

  // Feedback store shared across --repeat runs: run k's EXPLAIN ANALYZE
  // estimates from the cardinalities measured in runs 1..k-1, so the max
  // q-error line should drop run over run.
  FeedbackStore feedback;
  if (explain_analyze) md_options.feedback = &feedback;

  std::unique_ptr<QueryHistory> history;
  if (!query_log_path.empty() || slow_query_ms > 0 || stats_dump) {
    QueryHistory::Options history_options;
    history_options.log_path = query_log_path;
    history_options.slow_query_ms = slow_query_ms;
    history = std::make_unique<QueryHistory>(history_options);
  }
  const uint64_t query_fingerprint = FingerprintString(ExplainPlan(bound->plan));
  const uint64_t plan_hash = FingerprintString(ExplainPlan(plan));

  if (!trace_out.empty()) Tracing::Start();
  Result<Table> result = Status::Internal("query never ran (--repeat 0)");
  for (int run = 1; run <= repeat; ++run) {
    const auto run_start = std::chrono::steady_clock::now();
    ExecStats exec;
    result = explain_analyze ? ExplainAnalyze(plan, catalog, md_options, &profile, &exec)
                             : ExecutePlan(plan, catalog, md_options, &exec);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - run_start)
            .count();
    if (repeat > 1 && explain_analyze) {
      std::printf("run %d/%d: max q-error=%.2f\n", run, repeat,
                  profile.max_qerror);
    }
    if (history != nullptr) {
      QueryRecord record;
      record.fingerprint = query_fingerprint;
      record.plan_hash = plan_hash;
      record.wall_ms = wall_ms;
      if (result.ok()) {
        record.rows = result->num_rows();
        record.outcome = "ok";
      } else {
        const StatusCode code = result.status().code();
        record.outcome = code == StatusCode::kDeadlineExceeded ? "deadline"
                         : code == StatusCode::kResourceExhausted
                             ? "shed"
                         : code == StatusCode::kCancelled ? "cancelled"
                                                          : "error";
        record.guard_tripped = code == StatusCode::kDeadlineExceeded ||
                               code == StatusCode::kCancelled;
      }
      record.detail_rows_scanned = exec.detail_rows_scanned;
      record.blocks_read = exec.blocks_read;
      record.spill_bytes = exec.spill_bytes_written;
      if (explain_analyze) {
        record.max_qerror = profile.max_qerror;
        record.cpu_ms = profile.root != nullptr ? profile.root->cpu_ms : 0;
      }
      history->Record(std::move(record));
    }
    if (!result.ok()) break;
  }
  if (!dump_observability()) return 2;
  // The profile of a failed/cancelled run is still well-formed (partial
  // counts + terminal status), so print it before the exit-code logic.
  if (explain_analyze) std::printf("%s", profile.ToText().c_str());
  if (stats_dump) {
    for (const TableStats& stats : table_stats) {
      std::printf("%s", stats.SummaryText().c_str());
    }
    if (explain_analyze) {
      std::printf("feedback store: %lld entries\n",
                  static_cast<long long>(feedback.size()));
    }
    if (history != nullptr) std::printf("%s", history->SummaryText().c_str());
  }
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    StatusCode code = result.status().code();
    return (code == StatusCode::kCancelled || code == StatusCode::kDeadlineExceeded ||
            code == StatusCode::kResourceExhausted)
               ? 3
               : 1;
  }
  if (!explain_analyze) std::printf("%s", TableToCsv(*result).c_str());
  return 0;
}
