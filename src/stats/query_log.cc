#include "stats/query_log.h"

#include <cinttypes>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mdjoin {

namespace {

Counter* QueriesLoggedCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "mdjoin_queries_logged_total", "query records appended to the history");
  return c;
}

Counter* SlowQueriesCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "mdjoin_slow_queries_total",
      "queries whose wall time exceeded --slow-query-ms");
  return c;
}

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out->push_back(c);
    }
  }
}

/// Finds `"key":` in `line` and returns the character index just past the
/// colon (skipping spaces), or npos.
size_t FindValue(const std::string& line, const char* key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return std::string::npos;
  pos += needle.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  return pos;
}

bool ParseU64(const std::string& line, const char* key, uint64_t* out) {
  size_t pos = FindValue(line, key);
  if (pos == std::string::npos) return false;
  if (line[pos] == '"') ++pos;  // fingerprints are quoted decimal
  *out = std::strtoull(line.c_str() + pos, nullptr, 10);
  return true;
}

bool ParseI64(const std::string& line, const char* key, int64_t* out) {
  size_t pos = FindValue(line, key);
  if (pos == std::string::npos) return false;
  *out = std::strtoll(line.c_str() + pos, nullptr, 10);
  return true;
}

bool ParseDouble(const std::string& line, const char* key, double* out) {
  size_t pos = FindValue(line, key);
  if (pos == std::string::npos) return false;
  *out = std::strtod(line.c_str() + pos, nullptr);
  return true;
}

bool ParseBool(const std::string& line, const char* key, bool* out) {
  size_t pos = FindValue(line, key);
  if (pos == std::string::npos) return false;
  *out = line.compare(pos, 4, "true") == 0;
  return true;
}

bool ParseString(const std::string& line, const char* key, std::string* out) {
  size_t pos = FindValue(line, key);
  if (pos == std::string::npos || line[pos] != '"') return false;
  ++pos;
  out->clear();
  while (pos < line.size() && line[pos] != '"') {
    if (line[pos] == '\\' && pos + 1 < line.size()) ++pos;
    out->push_back(line[pos++]);
  }
  return true;
}

}  // namespace

std::string QueryRecord::ToJsonl() const {
  char buf[256];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf),
                "\"fingerprint\":\"%" PRIu64 "\",\"plan_hash\":\"%" PRIu64
                "\",\"wall_ms\":%.3f,\"cpu_ms\":%.3f,\"rows\":%lld",
                fingerprint, plan_hash, wall_ms, cpu_ms,
                static_cast<long long>(rows));
  out += buf;
  out += ",\"outcome\":\"";
  AppendEscaped(&out, outcome);
  out += "\",\"cache\":\"";
  AppendEscaped(&out, cache);
  out += "\"";
  std::snprintf(buf, sizeof(buf),
                ",\"queue_wait_ms\":%lld,\"detail_rows_scanned\":%lld"
                ",\"blocks_read\":%lld,\"spill_bytes\":%lld",
                static_cast<long long>(queue_wait_ms),
                static_cast<long long>(detail_rows_scanned),
                static_cast<long long>(blocks_read),
                static_cast<long long>(spill_bytes));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                ",\"guard_tripped\":%s,\"max_qerror\":%.3f,\"slow\":%s}",
                guard_tripped ? "true" : "false", max_qerror,
                slow ? "true" : "false");
  out += buf;
  return out;
}

Result<QueryRecord> QueryRecord::FromJsonl(const std::string& line) {
  QueryRecord r;
  if (!ParseU64(line, "fingerprint", &r.fingerprint) ||
      !ParseU64(line, "plan_hash", &r.plan_hash) ||
      !ParseDouble(line, "wall_ms", &r.wall_ms) ||
      !ParseI64(line, "rows", &r.rows) ||
      !ParseString(line, "outcome", &r.outcome)) {
    return Status::InvalidArgument("query-log line missing required keys: " +
                                   line);
  }
  ParseDouble(line, "cpu_ms", &r.cpu_ms);
  ParseString(line, "cache", &r.cache);
  ParseI64(line, "queue_wait_ms", &r.queue_wait_ms);
  ParseI64(line, "detail_rows_scanned", &r.detail_rows_scanned);
  ParseI64(line, "blocks_read", &r.blocks_read);
  ParseI64(line, "spill_bytes", &r.spill_bytes);
  ParseBool(line, "guard_tripped", &r.guard_tripped);
  ParseDouble(line, "max_qerror", &r.max_qerror);
  ParseBool(line, "slow", &r.slow);
  return r;
}

QueryHistory::QueryHistory(const Options& options) : options_(options) {
  QueriesLoggedCounter();
  SlowQueriesCounter();
  if (!options_.log_path.empty()) {
    log_file_ = std::fopen(options_.log_path.c_str(), "a");
    // A failed open degrades to in-memory history; the CLI surfaces the
    // path it asked for, so silent-null here is observable.
  }
}

QueryHistory::~QueryHistory() {
  MutexLock lock(mu_);
  if (log_file_ != nullptr) std::fclose(log_file_);
}

void QueryHistory::Record(QueryRecord record) {
  record.slow = options_.slow_query_ms > 0 &&
                record.wall_ms >= static_cast<double>(options_.slow_query_ms);
  if (record.slow) {
    SlowQueriesCounter()->Increment();
    TraceInstant("slow_query", "server", "wall_ms",
                 static_cast<int64_t>(record.wall_ms), "rows", record.rows);
  }
  QueriesLoggedCounter()->Increment();
  MutexLock lock(mu_);
  ++total_;
  if (log_file_ != nullptr) {
    const std::string line = record.ToJsonl();
    std::fwrite(line.data(), 1, line.size(), log_file_);
    std::fputc('\n', log_file_);
    std::fflush(log_file_);
  }
  if (ring_.size() < options_.capacity) {
    ring_.push_back(std::move(record));
  } else if (!ring_.empty()) {
    ring_[next_ % ring_.size()] = std::move(record);
    ++next_;
  }
}

std::vector<QueryRecord> QueryHistory::Snapshot() const {
  MutexLock lock(mu_);
  if (ring_.size() < options_.capacity || ring_.empty()) return ring_;
  // Oldest-first: the write cursor points at the oldest slot.
  std::vector<QueryRecord> out;
  out.reserve(ring_.size());
  const size_t start = next_ % ring_.size();
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

int64_t QueryHistory::total_recorded() const {
  MutexLock lock(mu_);
  return total_;
}

std::string QueryHistory::SummaryText() const {
  MutexLock lock(mu_);
  int64_t ok = 0, slow = 0, errors = 0, cache_hits = 0;
  double wall_sum = 0, qerr_max = -1;
  for (const QueryRecord& r : ring_) {
    ok += r.outcome == "ok";
    slow += r.slow;
    errors += r.outcome != "ok";
    cache_hits += r.cache == "hit" || r.cache == "rollup_hit";
    wall_sum += r.wall_ms;
    if (r.max_qerror > qerr_max) qerr_max = r.max_qerror;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "query history: %lld recorded (%zu retained), %lld ok, %lld "
                "non-ok, %lld slow, %lld cache hits, %.3f ms total wall",
                static_cast<long long>(total_), ring_.size(),
                static_cast<long long>(ok), static_cast<long long>(errors),
                static_cast<long long>(slow),
                static_cast<long long>(cache_hits), wall_sum);
  std::string out = buf;
  if (qerr_max >= 0) {
    std::snprintf(buf, sizeof(buf), ", max q-error %.2f", qerr_max);
    out += buf;
  }
  out += "\n";
  return out;
}

}  // namespace mdjoin
