#include "table/key_numbering.h"

#include <bit>
#include <functional>
#include <string_view>

#include "table/table_accel.h"

namespace mdjoin {

namespace {

bool IsNumeric(KeyWord w) { return w.cls == KeyWord::kInt64 || w.cls == KeyWord::kFloat64; }

/// A numeric word's value, widened to double as Value::AsDouble widens it.
double AsDouble(KeyWord w) {
  return w.cls == KeyWord::kInt64 ? static_cast<double>(std::bit_cast<int64_t>(w.bits))
                                  : std::bit_cast<double>(w.bits);
}

/// Value::Equals on words: int64 cells compare exactly, a float64 cell with
/// any numeric through doubles (so NaN equals nothing and -0.0 equals 0.0),
/// other classes by payload.
bool WordsEqual(KeyWord a, KeyWord b) {
  if (a.cls == b.cls) {
    return a.cls == KeyWord::kFloat64 ? AsDouble(a) == AsDouble(b) : a.bits == b.bits;
  }
  return IsNumeric(a) && IsNumeric(b) && AsDouble(a) == AsDouble(b);
}

/// A hash equal for equal words: numerics hash their double value (-0.0 as
/// 0.0), so an int64 and a float64 that WordsEqual collide, through
/// murmur3's 64-bit finalizer.
size_t WordHash(KeyWord w) {
  uint64_t x = 0;
  switch (w.cls) {
    case KeyWord::kNull:
      return 0x6e756c6cULL;  // "null"
    case KeyWord::kAll:
      return 0x616c6cULL;  // "all"
    case KeyWord::kString:
      x = w.bits ^ 0x737472ULL;  // "str"
      break;
    case KeyWord::kInt64:
    case KeyWord::kFloat64: {
      double d = AsDouble(w);
      if (d == 0.0) d = 0.0;
      x = std::bit_cast<uint64_t>(d);
      break;
    }
  }
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<size_t>(x);
}

}  // namespace

uint64_t KeyNumbering::Dim::Intern(const std::string& s) {
  const int64_t id = string_ids.FindOrAdd(std::hash<std::string_view>{}(s), [&](int64_t g) {
    return strings[static_cast<size_t>(g)] == s;
  });
  if (id == static_cast<int64_t>(strings.size())) strings.push_back(s);
  return static_cast<uint64_t>(id);
}

void KeyNumbering::Dim::Fill(const Table& chunk, int col, const std::vector<int64_t>& rows) {
  const size_t n = rows.size();
  batch.resize(n);
  const TableAccel* accel = chunk.accel().get();
  const FlatColumn* flat = accel != nullptr ? &accel->cols[static_cast<size_t>(col)] : nullptr;
  if (flat == nullptr || !flat->flat()) {
    const Value* cells = chunk.column(col).data();
    for (size_t i = 0; i < n; ++i) {
      const Value& v = cells[rows[i]];
      if (v.is_int64()) {
        batch[i] = {std::bit_cast<uint64_t>(v.int64()), KeyWord::kInt64};
      } else if (v.is_float64()) {
        batch[i] = {std::bit_cast<uint64_t>(v.float64()), KeyWord::kFloat64};
      } else if (v.is_string()) {
        batch[i] = {Intern(v.string()), KeyWord::kString};
      } else {
        batch[i] = {0, v.is_all() ? KeyWord::kAll : KeyWord::kNull};
      }
    }
    return;
  }
  const uint8_t* nulls = flat->null_bytes();
  switch (flat->rep) {
    case FlatColumn::Rep::kInt64:
      for (size_t i = 0; i < n; ++i) {
        const size_t r = static_cast<size_t>(rows[i]);
        batch[i] = nulls != nullptr && nulls[r] != 0
                       ? KeyWord{}
                       : KeyWord{std::bit_cast<uint64_t>(flat->i64[r]), KeyWord::kInt64};
      }
      break;
    case FlatColumn::Rep::kFloat64:
      for (size_t i = 0; i < n; ++i) {
        const size_t r = static_cast<size_t>(rows[i]);
        batch[i] = nulls != nullptr && nulls[r] != 0
                       ? KeyWord{}
                       : KeyWord{std::bit_cast<uint64_t>(flat->f64[r]), KeyWord::kFloat64};
      }
      break;
    case FlatColumn::Rep::kDict:
      if (dict != flat->dict) {
        dict = flat->dict;
        code_ids.assign(static_cast<size_t>(dict->size()), -1);
      }
      for (size_t i = 0; i < n; ++i) {
        const size_t r = static_cast<size_t>(rows[i]);
        if (nulls != nullptr && nulls[r] != 0) {
          batch[i] = KeyWord{};
          continue;
        }
        int64_t& id = code_ids[static_cast<size_t>(flat->codes[r])];
        if (id < 0) id = static_cast<int64_t>(Intern(dict->Decode(flat->codes[r])));
        batch[i] = {static_cast<uint64_t>(id), KeyWord::kString};
      }
      break;
    case FlatColumn::Rep::kNone:
      break;  // flat() above
  }
}

void KeyNumbering::Number(const Table& chunk, const std::vector<int>& cols, int64_t start,
                          const uint32_t* lanes, int n, int64_t* groups) {
  const size_t count = static_cast<size_t>(n);
  rows_.resize(count);
  for (size_t i = 0; i < count; ++i) {
    rows_[i] = start + (lanes != nullptr ? lanes[i] : static_cast<int64_t>(i));
  }
  const size_t ndims = dims_.size();
  hashes_.assign(count, ndims);
  batches_.resize(ndims);
  for (size_t d = 0; d < ndims; ++d) {
    Dim& dim = dims_[d];
    dim.Fill(chunk, cols[d], rows_);
    batches_[d] = dim.batch.data();
    for (size_t i = 0; i < count; ++i) HashCombine(&hashes_[i], WordHash(dim.batch[i]));
  }
  for (size_t i = 0; i < count; ++i) {
    const int64_t g = ids_.FindOrAdd(hashes_[i], [&](int64_t g) {
      const KeyWord* k = keys_.data() + static_cast<size_t>(g) * ndims;
      for (size_t d = 0; d < ndims; ++d) {
        if (!WordsEqual(batches_[d][i], k[d])) return false;
      }
      return true;
    });
    if (g == size_) {
      keys_.resize(keys_.size() + ndims);
      KeyWord* k = keys_.data() + static_cast<size_t>(g) * ndims;
      for (size_t d = 0; d < ndims; ++d) k[d] = batches_[d][i];
      ++size_;
    }
    groups[i] = g;
  }
}

Value KeyNumbering::Cell(size_t d, int64_t g) const {
  const KeyWord w = key(g, d);
  switch (w.cls) {
    case KeyWord::kNull:
      break;
    case KeyWord::kAll:
      return Value::All();
    case KeyWord::kInt64:
      return Value::Int64(std::bit_cast<int64_t>(w.bits));
    case KeyWord::kFloat64:
      return Value::Float64(std::bit_cast<double>(w.bits));
    case KeyWord::kString:
      return Value::String(dims_[d].strings[static_cast<size_t>(w.bits)]);
  }
  return Value::Null();
}

void KeyNumbering::Coarsen(const std::vector<size_t>& pos, std::vector<int64_t>* first,
                           std::vector<int64_t>* coarse_of) const {
  GroupNumbering ids;
  coarse_of->resize(static_cast<size_t>(size_));
  for (int64_t g = 0; g < size_; ++g) {
    size_t hash = pos.size();
    for (size_t d : pos) HashCombine(&hash, WordHash(key(g, d)));
    const int64_t c = ids.FindOrAdd(hash, [&](int64_t c) {
      const int64_t f = (*first)[static_cast<size_t>(c)];
      for (size_t d : pos) {
        if (!WordsEqual(key(g, d), key(f, d))) return false;
      }
      return true;
    });
    if (c == static_cast<int64_t>(first->size())) first->push_back(g);
    (*coarse_of)[static_cast<size_t>(g)] = c;
  }
}

}  // namespace mdjoin
