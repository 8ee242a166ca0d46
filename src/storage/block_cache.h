#ifndef MDJOIN_STORAGE_BLOCK_CACHE_H_
#define MDJOIN_STORAGE_BLOCK_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/hash_util.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "table/table.h"

namespace mdjoin {

class BlockCache;

/// RAII handle on a decoded block. While any pin on a cache entry is live the
/// entry cannot be evicted; dropping the last pin returns it to the LRU tail.
/// A pin may also be *ephemeral* — owning a block that never entered the cache
/// (budget exhausted or no cache configured) — in which case the block is
/// freed with the pin. Either way, `table()` is valid for the pin's lifetime.
class BlockPin {
 public:
  BlockPin() = default;
  BlockPin(BlockPin&& other) noexcept;
  BlockPin& operator=(BlockPin&& other) noexcept;
  BlockPin(const BlockPin&) = delete;
  BlockPin& operator=(const BlockPin&) = delete;
  ~BlockPin();

  bool valid() const { return table_ != nullptr; }
  const Table& table() const { return *table_; }

  /// Drops the pin early (idempotent).
  void Release();

 private:
  friend class BlockCache;
  friend class PagedTable;  // builds ephemeral pins for cache-less faults

  std::shared_ptr<const Table> table_;
  BlockCache* cache_ = nullptr;      // null for ephemeral pins
  std::shared_ptr<void> entry_;      // opaque BlockCache::Entry
};

/// Fixed-budget LRU cache of decoded blocks, shared across queries (and, in
/// server mode, across sessions), in the spirit of WiredTiger's block_cache +
/// evict split. Keys are (file_id, block, columns): an entry holds the
/// decode of those columns of the block only, and never serves a lookup
/// that names another column set. File ids come from NewFileId() so
/// distinct open tables never collide even across reopens of the same path.
///
/// Byte accounting: each resident entry is charged `charge_bytes` (the
/// decoded-size estimate of its columns) against (a) this cache's capacity
/// and (b) the optional external pool via the charge/release callbacks — the
/// AdmissionController's memory pool in server mode. Callbacks are always
/// invoked WITHOUT the cache mutex held, so a charge callback may itself call
/// back into EvictBytes (the admission reclaimer does) without deadlocking.
///
/// If the external pool refuses the charge even after eviction, the load
/// still succeeds but the block bypasses the cache: the caller gets an
/// ephemeral pin and the bytes stay attributed to the query's own guard
/// reservation only. Queries degrade to streaming, they don't fail.
///
/// Loads are single-flighted: concurrent faults of the same block wait for
/// the first loader. A failed load wakes waiters, who retry (and typically
/// become the next loader) — the failure Status goes to the initiating
/// caller only.
class BlockCache {
 public:
  struct Options {
    /// Decoded-bytes budget. The default (-1) resolves to 64 MiB, or to
    /// $MDJOIN_BLOCK_CACHE_BYTES when that is set — the CI low-memory job
    /// starves every default-sized cache through the environment without
    /// touching caches whose owner chose an explicit size.
    int64_t capacity_bytes = -1;
    /// External byte-pool hooks (e.g. AdmissionController). `charge` returns
    /// false to refuse; `release` returns bytes previously charged. Both may
    /// be empty. Never invoked with the cache mutex held.
    std::function<bool(int64_t)> charge;
    std::function<void(int64_t)> release;
  };

  struct StatsSnapshot {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t ephemeral_loads = 0;
    int64_t resident_bytes = 0;
  };

  using Loader = std::function<Result<Table>()>;

  explicit BlockCache(Options options);
  ~BlockCache();  // evicts everything resident, releasing external charges

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Returns a pin on the decoded `columns` of the block, running `loader`
  /// on a miss. `was_hit`, when non-null, reports whether the entry was
  /// already resident (single-flight waiters count as hits: they never ran a
  /// loader). Capacity is a target, not a hard wall: concurrent in-flight
  /// loads and a pinned working set larger than the budget may transiently
  /// overshoot.
  Result<BlockPin> GetOrLoad(uint64_t file_id, int block, const std::vector<int>& columns,
                             int64_t charge_bytes, const Loader& loader,
                             bool* was_hit = nullptr);

  /// Evicts cold (unpinned) entries until at least `target_bytes` are freed
  /// or nothing evictable remains; returns bytes actually freed. Safe to call
  /// from external reclaimers (admission pressure, result-cache interplay).
  int64_t EvictBytes(int64_t target_bytes);

  int64_t resident_bytes() const;
  int64_t capacity_bytes() const { return options_.capacity_bytes; }
  StatsSnapshot stats() const;

  /// Process-unique id for keying one open paged table.
  static uint64_t NewFileId();

 private:
  friend class BlockPin;

  struct Key {
    uint64_t file_id;
    int block;
    std::vector<int> columns;
    bool operator==(const Key& o) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t h = std::hash<uint64_t>()(k.file_id * 1000003ULL +
                                       static_cast<uint64_t>(k.block));
      for (int c : k.columns) HashCombine(&h, std::hash<int>()(c));
      return h;
    }
  };
  struct Entry;

  void Unpin(const std::shared_ptr<void>& opaque_entry);
  /// Pops cold entries until `target` bytes collected; appends each entry's
  /// charge to `freed` so the caller can run release callbacks unlocked.
  int64_t EvictLocked(int64_t target, std::vector<int64_t>* freed)
      MDJ_REQUIRES(mu_);

  Options options_;
  mutable Mutex mu_;
  CondVar load_cv_;
  std::unordered_map<Key, std::shared_ptr<Entry>, KeyHash> map_
      MDJ_GUARDED_BY(mu_);
  /// Unpinned resident entries, coldest at the front. Pinned or loading
  /// entries live only in map_.
  std::list<std::shared_ptr<Entry>> lru_ MDJ_GUARDED_BY(mu_);
  int64_t resident_bytes_ MDJ_GUARDED_BY(mu_) = 0;
  int64_t hits_ MDJ_GUARDED_BY(mu_) = 0;
  int64_t misses_ MDJ_GUARDED_BY(mu_) = 0;
  int64_t evictions_ MDJ_GUARDED_BY(mu_) = 0;
  int64_t ephemeral_loads_ MDJ_GUARDED_BY(mu_) = 0;
};

}  // namespace mdjoin

#endif  // MDJOIN_STORAGE_BLOCK_CACHE_H_
