#include "server/result_cache.h"

#include <utility>

#include "analyze/plan_analyzer.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mdjoin {

namespace {

Counter* EvictionsCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "mdjoin_server_cache_evictions_total", "result-cache entries evicted (LRU)");
  return c;
}
Counter* InsertsCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "mdjoin_server_cache_insert_total", "result-cache entries inserted");
  return c;
}
Gauge* BytesGauge() {
  static Gauge* g = MetricsRegistry::Global().GetGauge(
      "mdjoin_server_cache_bytes", "bytes of cached query results");
  return g;
}
Gauge* EntriesGauge() {
  static Gauge* g = MetricsRegistry::Global().GetGauge(
      "mdjoin_server_cache_entries", "cached query results");
  return g;
}

}  // namespace

PlanCacheKey MakePlanCacheKey(const PlanPtr& plan) {
  PlanCacheKey key;
  key.exact = ExplainPlan(plan);
  if (plan == nullptr || plan->kind() != PlanKind::kMdJoin) return key;
  const PlanPtr& base = plan->child(0);
  if (base->kind() != PlanKind::kCuboidBase) return key;
  // Only plans the roll-up rule could serve get a lattice position: the
  // analyzer's Theorem-4.5 certificate (distributive aggregate list, θ the
  // pure dimension-equality condition) is exactly the legality gate
  // ApplyRollup itself uses.
  if (!CertifyRollup(plan).ok()) return key;
  // The family is the canonical key with the mask normalized to the grand
  // total, so every cuboid of the same cube query lands in one family.
  PlanPtr normalized = CloneWithChildren(
      plan, {CuboidBasePlan(base->child(0), base->cube_dims, 0), plan->child(1)});
  key.family = ExplainPlan(normalized);
  key.mask = base->cuboid_masks[0];
  return key;
}

void ResultCache::RegisterMetrics() {
  EvictionsCounter();
  InsertsCounter();
  BytesGauge();
  EntriesGauge();
}

ResultCache::ResultCache(AdmissionController* pool, const Options& options)
    : pool_(pool), options_(options) {
  MDJ_CHECK(pool_ != nullptr) << "ResultCache needs an admission pool";
  MDJ_CHECK(options_.capacity_bytes >= 1) << "ResultCache: capacity must be >= 1";
  RegisterMetrics();
}

ResultCache::~ResultCache() { Clear(); }

void ResultCache::TouchLocked(LruList::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

int64_t ResultCache::EvictOneLocked() {
  if (lru_.empty()) return 0;
  const Entry& victim = lru_.back();
  const int64_t freed = victim.bytes;
  by_exact_.erase(victim.key.exact);
  if (!victim.key.family.empty()) {
    auto fam = by_family_.find(victim.key.family);
    if (fam != by_family_.end()) {
      fam->second.erase(victim.key.mask);
      if (fam->second.empty()) by_family_.erase(fam);
    }
  }
  lru_.pop_back();
  bytes_cached_ -= freed;
  pool_->ReleaseChargedBytes(freed);
  EvictionsCounter()->Increment();
  TraceInstant("cache_evict", "lru");
  UpdateGaugesLocked();
  return freed;
}

void ResultCache::UpdateGaugesLocked() {
  BytesGauge()->Set(bytes_cached_);
  EntriesGauge()->Set(static_cast<int64_t>(lru_.size()));
}

std::shared_ptr<const Table> ResultCache::LookupExact(const std::string& exact_key) {
  MutexLock lock(mu_);
  auto it = by_exact_.find(exact_key);
  if (it == by_exact_.end()) return nullptr;
  TouchLocked(it->second);
  return it->second->table;
}

std::optional<ResultCache::FinerCuboid> ResultCache::LookupFiner(
    const std::string& family, CuboidMask coarse) {
  if (family.empty()) return std::nullopt;
  MutexLock lock(mu_);
  auto fam = by_family_.find(family);
  if (fam == by_family_.end()) return std::nullopt;
  LruList::iterator best;
  bool found = false;
  for (const auto& [mask, entry] : fam->second) {
    // A strict superset of the request's grouped dimensions is a finer
    // cuboid: Theorem 4.5 says the coarser result is its roll-up.
    if ((coarse & mask) != coarse || mask == coarse) continue;
    if (!found || entry->table->num_rows() < best->table->num_rows()) {
      best = entry;
      found = true;
    }
  }
  if (!found) return std::nullopt;
  TouchLocked(best);
  return FinerCuboid{best->table, best->key.mask};
}

void ResultCache::Insert(const PlanCacheKey& key, std::shared_ptr<const Table> table) {
  if (table == nullptr) return;
  const int64_t bytes =
      table->ApproxBytes() + static_cast<int64_t>(key.exact.size() + key.family.size());
  if (bytes > options_.capacity_bytes) return;  // would evict everything else

  MutexLock lock(mu_);
  if (by_exact_.count(key.exact) > 0) return;  // lost an insert race; keep LRU state

  // Deterministic coverage of the eviction path: pretend the cache is over
  // capacity once.
  if (MDJ_FAILPOINT("server:cache_evict")) EvictOneLocked();

  while (bytes_cached_ + bytes > options_.capacity_bytes && !lru_.empty()) {
    EvictOneLocked();
  }
  // Charge the shared admission pool; make room by shrinking ourselves if
  // admitted queries hold the rest of the pool.
  while (!pool_->TryChargeBytes(bytes)) {
    if (lru_.empty()) return;  // pool is full of running queries; skip caching
    EvictOneLocked();
  }

  lru_.push_front(Entry{key, std::move(table), bytes});
  by_exact_[key.exact] = lru_.begin();
  if (!key.family.empty()) by_family_[key.family][key.mask] = lru_.begin();
  bytes_cached_ += bytes;
  InsertsCounter()->Increment();
  UpdateGaugesLocked();
}

int64_t ResultCache::EvictBytes(int64_t bytes_needed) {
  MutexLock lock(mu_);
  int64_t freed = 0;
  while (freed < bytes_needed && !lru_.empty()) freed += EvictOneLocked();
  return freed;
}

void ResultCache::Clear() {
  MutexLock lock(mu_);
  while (!lru_.empty()) EvictOneLocked();
}

int64_t ResultCache::bytes_cached() const {
  MutexLock lock(mu_);
  return bytes_cached_;
}

int64_t ResultCache::entries() const {
  MutexLock lock(mu_);
  return static_cast<int64_t>(lru_.size());
}

}  // namespace mdjoin
