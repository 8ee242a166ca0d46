#ifndef MDJOIN_TABLE_KEY_NUMBERING_H_
#define MDJOIN_TABLE_KEY_NUMBERING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/hash_util.h"
#include "table/dictionary.h"
#include "table/table.h"

namespace mdjoin {

/// One key cell as a machine word: its class and a 64-bit payload (an int64
/// or float64 bit pattern, the id of a string interned by the numbering, 0
/// for NULL and ALL). Two words are equal exactly when Value::Equals says so
/// of their cells, and numerics hash through their double value as
/// Value::Hash does, so an int64 cell and the float64 cell it equals collide.
struct KeyWord {
  enum Class : uint8_t { kNull, kAll, kInt64, kFloat64, kString };

  uint64_t bits = 0;
  Class cls = kNull;
};

/// Numbers the distinct keys of rows over `ndims` key columns 0, 1, 2, ... in
/// first-seen order, deduplicating on KeyWords: a row joins the earliest group
/// whose key equals its own cell by cell, as a first-match scan over Value
/// cells would, even where Value::Equals is not transitive (int64 cells
/// beyond ±2^53 beside float64 ones). Each key cell is read from the chunk's
/// typed mirror where it flattens the column (int64 and float64 payloads,
/// dictionary codes) and from its Value cells otherwise; a string is interned
/// once per column.
class KeyNumbering {
 public:
  explicit KeyNumbering(size_t ndims) : dims_(ndims) {}

  /// Reserves key storage for `groups` groups, so numbering that many grows
  /// no buffer (an in-memory table's row count bounds its groups).
  void Reserve(int64_t groups) { keys_.reserve(static_cast<size_t>(groups) * dims_.size()); }

  /// Numbers `n` rows of `chunk` by their cells in `cols` (one column per
  /// key dim): row start + lanes[i], or start + i when `lanes` is null, gets
  /// its group in groups[i].
  void Number(const Table& chunk, const std::vector<int>& cols, int64_t start,
              const uint32_t* lanes, int n, int64_t* groups);

  /// Dim d's words of the rows of the last Number() call, in its order.
  const KeyWord* words(size_t d) const { return dims_[d].batch.data(); }

  /// Groups numbered so far.
  int64_t size() const { return size_; }

  /// Group g's key cell of dim d, bit for bit the cell it was read from.
  Value Cell(size_t d, int64_t g) const;

  /// Deduplicates the groups on the dims `pos`, in group order: the first
  /// group of each coarse group is appended to `first`, and group g's coarse
  /// group (an index into `first`) is (*coarse_of)[g].
  void Coarsen(const std::vector<size_t>& pos, std::vector<int64_t>* first,
               std::vector<int64_t>* coarse_of) const;

 private:
  struct Dim {
    std::vector<KeyWord> batch;  // one per row of the last Number() call
    // Interned strings, by id, and the ids of the mirror dictionary's codes
    // (-1 until seen). The dictionary is held so its codes stay its own.
    std::vector<std::string> strings;
    GroupNumbering string_ids;
    std::shared_ptr<const Dictionary> dict;
    std::vector<int64_t> code_ids;

    /// `s`'s id, interning it when new.
    uint64_t Intern(const std::string& s);
    /// `batch` := the words of column `col` of `chunk` at `rows`.
    void Fill(const Table& chunk, int col, const std::vector<int64_t>& rows);
  };

  const KeyWord& key(int64_t g, size_t d) const {
    return keys_[static_cast<size_t>(g) * dims_.size() + d];
  }

  std::vector<Dim> dims_;
  std::vector<KeyWord> keys_;  // group g's words at [g * ndims, (g + 1) * ndims)
  GroupNumbering ids_;
  int64_t size_ = 0;
  std::vector<int64_t> rows_;            // the rows of the last Number() call,
  std::vector<size_t> hashes_;           // their key hashes
  std::vector<const KeyWord*> batches_;  // and each dim's words
};

}  // namespace mdjoin

#endif  // MDJOIN_TABLE_KEY_NUMBERING_H_
