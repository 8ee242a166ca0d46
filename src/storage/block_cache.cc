#include "storage/block_cache.h"

#include <atomic>
#include <cstdlib>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace mdjoin {

namespace {

Gauge* ResidentGauge() {
  static Gauge* g = MetricsRegistry::Global().GetGauge(
      "mdjoin_block_cache_bytes",
      "decoded bytes resident in the block cache (all caches summed)");
  return g;
}

Counter* HitCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "mdjoin_block_cache_hit_total", "block-cache lookups served resident");
  return c;
}

Counter* MissCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "mdjoin_block_cache_miss_total", "block-cache lookups that ran a loader");
  return c;
}

Counter* EvictionCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "mdjoin_block_cache_evictions_total", "blocks evicted from the cache");
  return c;
}

}  // namespace

struct BlockCache::Entry {
  Key key;
  std::shared_ptr<const Table> table;  // null while loading
  int64_t bytes = 0;                   // charged on residency
  int pins = 0;
  bool loading = true;
  bool failed = false;  // load failed or bypassed; entry is off the map
  bool in_lru = false;
  std::list<std::shared_ptr<Entry>>::iterator lru_it;
};

// ---------------------------------------------------------------------------
// BlockPin
// ---------------------------------------------------------------------------

BlockPin::BlockPin(BlockPin&& other) noexcept
    : table_(std::move(other.table_)),
      cache_(other.cache_),
      entry_(std::move(other.entry_)) {
  other.cache_ = nullptr;
}

BlockPin& BlockPin::operator=(BlockPin&& other) noexcept {
  if (this != &other) {
    Release();
    table_ = std::move(other.table_);
    cache_ = other.cache_;
    entry_ = std::move(other.entry_);
    other.cache_ = nullptr;
  }
  return *this;
}

BlockPin::~BlockPin() { Release(); }

void BlockPin::Release() {
  if (cache_ != nullptr && entry_ != nullptr) cache_->Unpin(entry_);
  cache_ = nullptr;
  entry_.reset();
  table_.reset();
}

// ---------------------------------------------------------------------------
// BlockCache
// ---------------------------------------------------------------------------

namespace {

/// The default-capacity resolution for Options::capacity_bytes == -1:
/// 64 MiB unless $MDJOIN_BLOCK_CACHE_BYTES overrides it (parsed once).
int64_t DefaultCapacityBytes() {
  static const int64_t bytes = [] {
    if (const char* e = std::getenv("MDJOIN_BLOCK_CACHE_BYTES")) {
      char* end = nullptr;
      const long long v = std::strtoll(e, &end, 10);
      if (end != e && *end == '\0' && v >= 0) return static_cast<int64_t>(v);
    }
    return int64_t{64} << 20;
  }();
  return bytes;
}

}  // namespace

BlockCache::BlockCache(Options options) : options_(std::move(options)) {
  if (options_.capacity_bytes < 0) options_.capacity_bytes = DefaultCapacityBytes();
}

BlockCache::~BlockCache() {
  // All pins must be dropped before destruction; whatever is resident then is
  // cold, so this drains the cache and returns every external charge.
  EvictBytes(resident_bytes());
}

uint64_t BlockCache::NewFileId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

int64_t BlockCache::resident_bytes() const {
  MutexLock lock(mu_);
  return resident_bytes_;
}

BlockCache::StatsSnapshot BlockCache::stats() const {
  MutexLock lock(mu_);
  StatsSnapshot s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.ephemeral_loads = ephemeral_loads_;
  s.resident_bytes = resident_bytes_;
  return s;
}

int64_t BlockCache::EvictLocked(int64_t target, std::vector<int64_t>* freed) {
  int64_t total = 0;
  while (total < target && !lru_.empty()) {
    std::shared_ptr<Entry> e = lru_.front();
    lru_.pop_front();
    e->in_lru = false;
    map_.erase(e->key);
    resident_bytes_ -= e->bytes;
    total += e->bytes;
    ++evictions_;
    EvictionCounter()->Increment();
    freed->push_back(e->bytes);
  }
  ResidentGauge()->Add(-total);
  return total;
}

int64_t BlockCache::EvictBytes(int64_t target_bytes) {
  if (target_bytes <= 0) return 0;
  std::vector<int64_t> freed;
  int64_t total;
  {
    MutexLock lock(mu_);
    total = EvictLocked(target_bytes, &freed);
  }
  if (options_.release) {
    for (int64_t b : freed) options_.release(b);
  }
  return total;
}

Result<BlockPin> BlockCache::GetOrLoad(uint64_t file_id, int block,
                                       const std::vector<int>& columns,
                                       int64_t charge_bytes, const Loader& loader,
                                       bool* was_hit) {
  if (was_hit != nullptr) *was_hit = false;
  const Key key{file_id, block, columns};
  std::shared_ptr<Entry> entry;
  for (;;) {
    MutexLock lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      std::shared_ptr<Entry> e = it->second;
      if (e->loading) {
        load_cv_.Wait(lock, [&] { return !e->loading; });
      }
      if (e->failed) continue;  // loader lost; retry, likely becoming loader
      ++hits_;
      HitCounter()->Increment();
      if (e->in_lru) {
        lru_.erase(e->lru_it);
        e->in_lru = false;
      }
      ++e->pins;
      if (was_hit != nullptr) *was_hit = true;
      BlockPin pin;
      pin.table_ = e->table;
      pin.cache_ = this;
      pin.entry_ = e;
      return pin;
    }
    ++misses_;
    MissCounter()->Increment();
    entry = std::make_shared<Entry>();
    entry->key = key;
    entry->bytes = charge_bytes;
    entry->pins = 1;
    map_.emplace(key, entry);
    break;
  }

  // We are the single-flighted loader for this block. Make room (best
  // effort), charge the external pool, then decode — all without the lock.
  const int64_t overage =
      resident_bytes() + charge_bytes - options_.capacity_bytes;
  if (overage > 0) EvictBytes(overage);

  bool charged = true;
  if (options_.charge) {
    charged = options_.charge(charge_bytes);
    if (!charged) {
      EvictBytes(charge_bytes);
      charged = options_.charge(charge_bytes);
    }
  }

  Result<Table> loaded = loader();

  if (!loaded.ok() || !charged) {
    {
      MutexLock lock(mu_);
      map_.erase(key);
      entry->loading = false;
      entry->failed = true;
      if (!loaded.ok()) {
        // Nothing resident; waiters retry.
      } else {
        ++ephemeral_loads_;
      }
    }
    load_cv_.NotifyAll();
    if (!loaded.ok()) {
      if (charged && options_.release) options_.release(charge_bytes);
      return loaded.status();
    }
    // Pool refused the bytes: hand the block to the caller uncached. The
    // caller's own guard reservation is the only accounting for it.
    BlockPin pin;
    pin.table_ = std::make_shared<const Table>(std::move(loaded).value());
    return pin;
  }

  {
    MutexLock lock(mu_);
    entry->table = std::make_shared<const Table>(std::move(loaded).value());
    entry->loading = false;
    resident_bytes_ += charge_bytes;
  }
  ResidentGauge()->Add(charge_bytes);
  load_cv_.NotifyAll();
  BlockPin pin;
  pin.table_ = entry->table;
  pin.cache_ = this;
  pin.entry_ = std::move(entry);
  return pin;
}

void BlockCache::Unpin(const std::shared_ptr<void>& opaque_entry) {
  auto e = std::static_pointer_cast<Entry>(opaque_entry);
  MutexLock lock(mu_);
  --e->pins;
  if (e->pins == 0 && !e->loading && !e->failed && !e->in_lru) {
    lru_.push_back(e);
    e->lru_it = std::prev(lru_.end());
    e->in_lru = true;
  }
}

}  // namespace mdjoin
