#ifndef MDJOIN_COMMON_HASH_UTIL_H_
#define MDJOIN_COMMON_HASH_UTIL_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace mdjoin {

/// Mixes `v` into the running hash `seed` (boost::hash_combine recipe with a
/// 64-bit golden-ratio constant). Used to hash composite keys.
inline void HashCombine(size_t* seed, size_t v) {
  *seed ^= v + 0x9e3779b97f4a7c15ULL + (*seed << 6) + (*seed >> 2);
}

template <typename T>
void HashCombineValue(size_t* seed, const T& v) {
  HashCombine(seed, std::hash<T>{}(v));
}

/// Numbers distinct keys 0, 1, 2, ... in first-seen order. The keys live with
/// the caller (rows of a table, groups of a generator): FindOrAdd takes a
/// key's hash and a test of whether it equals group g's key, and returns that
/// group or numbers the key as the next one. One open-addressing probe
/// sequence per key, and no allocation per key.
class GroupNumbering {
 public:
  template <typename EqualsGroup>
  int64_t FindOrAdd(size_t hash, const EqualsGroup& equals_group) {
    if (2 * (hashes_.size() + 1) > slots_.size()) Grow();
    for (size_t i = Slot(hash);; i = (i + 1) & (slots_.size() - 1)) {
      const int64_t g = slots_[i];
      if (g < 0) {
        slots_[i] = static_cast<int64_t>(hashes_.size());
        hashes_.push_back(hash);
        return slots_[i];
      }
      if (hashes_[static_cast<size_t>(g)] == hash && equals_group(g)) return g;
    }
  }

 private:
  // Fibonacci hashing: the top bits of hash × 2^64/φ pick the slot, so keys
  // whose combined hashes differ only in high bits still spread.
  size_t Slot(size_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void Grow() {
    const size_t cap = std::max<size_t>(64, 2 * slots_.size());
    slots_.assign(cap, -1);
    shift_ = 64 - std::countr_zero(cap);
    for (size_t g = 0; g < hashes_.size(); ++g) {
      size_t i = Slot(hashes_[g]);
      while (slots_[i] >= 0) i = (i + 1) & (cap - 1);
      slots_[i] = static_cast<int64_t>(g);
    }
  }

  std::vector<int64_t> slots_;  // group id, or -1 for an empty slot
  std::vector<size_t> hashes_;  // per group
  int shift_ = 64;
};

}  // namespace mdjoin

#endif  // MDJOIN_COMMON_HASH_UTIL_H_
