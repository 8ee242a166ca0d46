#ifndef MDJOIN_BENCH_BENCH_UTIL_H_
#define MDJOIN_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/simd.h"
#include "core/mdjoin.h"
#include "expr/conjuncts.h"
#include "expr/expr.h"
#include "workload/generators.h"

namespace mdjoin {
namespace bench {

/// Cached Sales instances so google-benchmark's repeated setup does not
/// regenerate data. Keyed by (rows, customers, products, months).
inline const Table& CachedSales(int64_t rows, int64_t customers, int64_t products = 100,
                                int num_months = 12, double zipf = 0.0) {
  static std::map<std::string, Table>* cache = new std::map<std::string, Table>();
  std::string key = std::to_string(rows) + "/" + std::to_string(customers) + "/" +
                    std::to_string(products) + "/" + std::to_string(num_months) + "/" +
                    std::to_string(zipf);
  auto it = cache->find(key);
  if (it == cache->end()) {
    SalesConfig config;
    config.num_rows = rows;
    config.num_customers = customers;
    config.num_products = products;
    config.num_months = num_months;
    config.zipf_theta = zipf;
    it = cache->emplace(key, GenerateSales(config)).first;
  }
  return it->second;
}

inline const Table& CachedPayments(int64_t rows, int64_t customers) {
  static std::map<std::string, Table>* cache = new std::map<std::string, Table>();
  std::string key = std::to_string(rows) + "/" + std::to_string(customers);
  auto it = cache->find(key);
  if (it == cache->end()) {
    PaymentsConfig config;
    config.num_rows = rows;
    config.num_customers = customers;
    it = cache->emplace(key, GeneratePayments(config)).first;
  }
  return it->second;
}

/// θ: equality over the given dimensions (base side may hold ALL).
inline ExprPtr DimsTheta(const std::vector<std::string>& dims) {
  std::vector<ExprPtr> eqs;
  for (const std::string& d : dims) {
    eqs.push_back(Expr::Binary(BinaryOp::kEq, Expr::ColumnRef(Side::kBase, d),
                               Expr::ColumnRef(Side::kDetail, d)));
  }
  return CombineConjuncts(std::move(eqs));
}

/// Mean, minimum and sample standard deviation (0 for one sample) of the
/// repetitions of one measurement.
struct Spread {
  double mean = 0;
  double min = 0;
  double stddev = 0;
};

inline Spread SpreadOf(const std::vector<double>& samples) {
  Spread out;
  if (samples.empty()) return out;
  double sum = 0;
  for (double x : samples) sum += x;
  out.mean = sum / static_cast<double>(samples.size());
  out.min = *std::min_element(samples.begin(), samples.end());
  double sq = 0;
  for (double x : samples) sq += (x - out.mean) * (x - out.mean);
  out.stddev =
      samples.size() > 1 ? std::sqrt(sq / static_cast<double>(samples.size() - 1)) : 0;
  return out;
}

/// Console reporter that additionally collects one machine-readable record
/// per benchmark for the harness: name, rows (the "detail_rows" counter when
/// the bench sets it), ns/op, detail-row throughput — plus every user counter
/// the bench set (latency percentiles, shed fractions, QPS, cache hit
/// counts, ...), so bench drivers can publish arbitrary experiment-specific
/// measurements through the same BENCH_*.json pipeline. Under
/// --benchmark_repetitions=N the N runs of one benchmark fold into one
/// record: ns/op and every counter keep all N runs' values, summarized as
/// their mean with their minimum and standard deviation beside it.
class JsonCollectingReporter : public ::benchmark::ConsoleReporter {
 public:
  struct Record {
    std::string name;
    double rows = 0;  // mean of the "detail_rows" counter
    Spread ns_per_op;
    double rows_per_sec = 0;
    int repetitions = 0;
    /// Every user counter of the runs, verbatim (includes "detail_rows").
    std::map<std::string, Spread> counters;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    ::benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const std::string name = run.benchmark_name();
      auto it = std::find_if(records_.begin(), records_.end(),
                             [&name](const Record& r) { return r.name == name; });
      if (it == records_.end()) {
        records_.push_back(Record{});
        it = records_.end() - 1;
        it->name = name;
        samples_.emplace_back();
      }
      Samples& samples = samples_[static_cast<size_t>(it - records_.begin())];
      const double iters = run.iterations > 0 ? static_cast<double>(run.iterations) : 1;
      samples.ns.push_back(run.real_accumulated_time / iters * 1e9);
      for (const auto& [counter, value] : run.counters) {
        samples.counters[counter].push_back(value.value);
      }
      Record& rec = *it;
      rec.repetitions = static_cast<int>(samples.ns.size());
      rec.ns_per_op = SpreadOf(samples.ns);
      for (const auto& [counter, values] : samples.counters) {
        rec.counters[counter] = SpreadOf(values);
      }
      auto rows = rec.counters.find("detail_rows");
      rec.rows = rows != rec.counters.end() ? rows->second.mean : 0;
      rec.rows_per_sec = rec.ns_per_op.mean > 0 ? rec.rows * 1e9 / rec.ns_per_op.mean : 0;
    }
  }

  const std::vector<Record>& records() const { return records_; }

 private:
  struct Samples {
    std::vector<double> ns;                                // ns/op of each run
    std::map<std::string, std::vector<double>> counters;  // each run's value
  };
  std::vector<Record> records_;
  std::vector<Samples> samples_;  // parallel to records_
};

/// Publishes an arm's raw-speed configuration as cfg_* counters;
/// WriteBenchJson folds them into the record's "config" block instead of the
/// flat counter list. The SIMD level is the machine's (simd::BestLevel) and
/// the dictionary/flat-column path runs exactly when the scanned detail
/// table carries its typed mirror, so the detail table is the whole
/// configuration. A record without cfg_* counters is reported with the
/// dictionary on.
inline void TagConfig(::benchmark::State& state, const Table& detail) {
  state.counters["cfg_dict"] = detail.accel() != nullptr ? 1.0 : 0.0;
}

/// The git revision and the tree's CMAKE_BUILD_TYPE the bench binary was
/// built from, injected by bench/CMakeLists.txt at configure time ("unknown"
/// outside a git tree or without a build type).
#ifndef MDJOIN_GIT_SHA
#define MDJOIN_GIT_SHA "unknown"
#endif
#ifndef MDJOIN_BUILD_TYPE
#define MDJOIN_BUILD_TYPE "unknown"
#endif

/// Writes the collected records as a JSON array of flat objects. Every record
/// carries its repetitions (count, and for ns/op and each counter the mean,
/// with `_min` and `_stddev` beside it), the host's
/// online core count, the build type, the build's git SHA and the
/// harness-supplied wall-clock timestamp, so checked-in BENCH_*.json files
/// stay attributable to a revision, a build and a machine.
inline bool WriteBenchJson(const std::string& path,
                           const std::vector<JsonCollectingReporter::Record>& records,
                           const std::string& timestamp) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"rows\": %.0f, \"ns_per_op\": %.1f, "
                 "\"ns_per_op_min\": %.1f, \"ns_per_op_stddev\": %.1f, "
                 "\"repetitions\": %d, \"rows_per_sec\": %.1f",
                 r.name.c_str(), r.rows, r.ns_per_op.mean, r.ns_per_op.min,
                 r.ns_per_op.stddev, r.repetitions, r.rows_per_sec);
    for (const auto& [name, value] : r.counters) {
      if (name == "detail_rows") continue;  // already published as "rows"
      if (name.rfind("cfg_", 0) == 0) continue;  // folded into "config" below
      std::fprintf(f, ", \"%s\": %.3f, \"%s_min\": %.3f, \"%s_stddev\": %.3f",
                   name.c_str(), value.mean, name.c_str(), value.min, name.c_str(),
                   value.stddev);
    }
    // The arm's raw-speed configuration (TagConfig): the SIMD level every
    // kernel ran at on this host, and whether the detail carried its mirror.
    double dict_d = 1.0;
    if (auto c = r.counters.find("cfg_dict"); c != r.counters.end()) dict_d = c->second.mean;
    std::fprintf(f, ", \"config\": {\"simd\": \"%s\", \"dictionary\": %s}",
                 simd::LevelName(simd::BestLevel()), dict_d != 0 ? "true" : "false");
    std::fprintf(f,
                 ", \"nproc\": %ld, \"build_type\": \"%s\", \"git_sha\": \"%s\", "
                 "\"timestamp\": \"%s\"}%s\n",
                 nproc, MDJOIN_BUILD_TYPE, MDJOIN_GIT_SHA, timestamp.c_str(),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  return true;
}

/// Shared main body for every bench target. Handles `--json_out` /
/// `--json_out=<path>` (default path BENCH_<experiment>.json in the working
/// directory) and `--timestamp=<string>` (wall-clock run timestamp recorded
/// verbatim in every JSON record; the harness passes `date -u +%FT%TZ`),
/// which google-benchmark would otherwise reject as unknown flags — so they
/// are parsed and stripped from argv before Initialize().
inline int RunBenchMain(int argc, char** argv, const std::string& experiment) {
  std::string json_path;
  std::string timestamp;
  bool json = false;
  std::vector<char*> kept;
  kept.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json_out") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--json_out=", 11) == 0) {
      json = true;
      json_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--timestamp=", 12) == 0) {
      timestamp = argv[i] + 12;
    } else {
      kept.push_back(argv[i]);
    }
  }
  if (json && json_path.empty()) json_path = "BENCH_" + experiment + ".json";
  int kept_argc = static_cast<int>(kept.size());
  ::benchmark::Initialize(&kept_argc, kept.data());
  if (!json) {
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
  }
  JsonCollectingReporter reporter;
  ::benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!WriteBenchJson(json_path, reporter.records(), timestamp)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu records to %s\n", reporter.records().size(),
               json_path.c_str());
  return 0;
}

}  // namespace bench
}  // namespace mdjoin

#endif  // MDJOIN_BENCH_BENCH_UTIL_H_
