#include "storage/block_format.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>

#include "common/failpoint.h"
#include "table/dictionary.h"

namespace mdjoin {

namespace {

constexpr char kHeaderMagic[4] = {'M', 'D', 'J', 'B'};
constexpr char kTrailerMagic[4] = {'M', 'D', 'J', 'E'};
constexpr uint32_t kFormatVersion = 2;
// Trailer: u64 header length, u64 footer offset, u64 checksum, magic.
constexpr int64_t kTrailerBytes = 28;
// Header prefix read before the checksum: magic + version.
constexpr size_t kLeadBytes = 8;

// ---------------------------------------------------------------------------
// Little serialization kit. The format is single-machine (spill + paged
// detail live and die with one host), so native byte order via memcpy is
// fine; every read is bounds-checked so a truncated or corrupt file surfaces
// as a clean Status, never UB.
// ---------------------------------------------------------------------------

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

template <typename T>
void PutRaw(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

void PutU32(std::string* out, uint32_t v) { PutRaw(out, v); }
void PutU64(std::string* out, uint64_t v) { PutRaw(out, v); }
void PutI64(std::string* out, int64_t v) { PutRaw(out, v); }
void PutF64(std::string* out, double v) { PutRaw(out, v); }

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

struct ByteReader {
  const char* data;
  size_t len;
  size_t pos = 0;

  bool U8(uint8_t* v) {
    if (pos + 1 > len) return false;
    *v = static_cast<uint8_t>(data[pos++]);
    return true;
  }
  template <typename T>
  bool Raw(T* v) {
    if (pos + sizeof(T) > len) return false;
    std::memcpy(v, data + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }
  bool U32(uint32_t* v) { return Raw(v); }
  bool U64(uint64_t* v) { return Raw(v); }
  bool I64(int64_t* v) { return Raw(v); }
  bool F64(double* v) { return Raw(v); }
  bool Str(std::string* s) {
    uint32_t n = 0;
    if (!U32(&n) || pos + n > len) return false;
    s->assign(data + pos, n);
    pos += n;
    return true;
  }
};

Status Truncated(const std::string& what) {
  return Status::Internal("block file corrupt: truncated ", what);
}

// ---------------------------------------------------------------------------
// Tagged value codec (shared with the spill writer via EncodeValue/DecodeValue
// below). Doubles round-trip by bit pattern, so NaN payloads and -0.0 decode
// exactly as stored.
// ---------------------------------------------------------------------------

constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagAll = 1;
constexpr uint8_t kTagInt64 = 2;
constexpr uint8_t kTagFloat64 = 3;
constexpr uint8_t kTagString = 4;

uint8_t TagOf(const Value& v) {
  if (v.is_null()) return kTagNull;
  if (v.is_all()) return kTagAll;
  if (v.is_int64()) return kTagInt64;
  if (v.is_float64()) return kTagFloat64;
  return kTagString;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Same variant *and* same payload bits. Distinct from Value::Equals, which
/// compares Int64(3) == Float64(3.0) numerically — merging those in an RLE
/// run would decode the wrong variant and break bit-identity.
bool ExactSame(const Value& a, const Value& b) {
  const uint8_t tag = TagOf(a);
  if (tag != TagOf(b)) return false;
  switch (tag) {
    case kTagNull:
    case kTagAll:
      return true;
    case kTagInt64:
      return a.int64() == b.int64();
    case kTagFloat64:
      return DoubleBits(a.float64()) == DoubleBits(b.float64());
    default:
      return a.string() == b.string();
  }
}

void EncodeValue(std::string* out, const Value& v) {
  const uint8_t tag = TagOf(v);
  PutU8(out, tag);
  switch (tag) {
    case kTagInt64:
      PutI64(out, v.int64());
      break;
    case kTagFloat64:
      PutF64(out, v.float64());
      break;
    case kTagString:
      PutString(out, v.string());
      break;
    default:
      break;
  }
}

bool DecodeValue(ByteReader* r, Value* out) {
  uint8_t tag = 0;
  if (!r->U8(&tag)) return false;
  switch (tag) {
    case kTagNull:
      *out = Value::Null();
      return true;
    case kTagAll:
      *out = Value::All();
      return true;
    case kTagInt64: {
      int64_t v = 0;
      if (!r->I64(&v)) return false;
      *out = Value::Int64(v);
      return true;
    }
    case kTagFloat64: {
      double v = 0;
      if (!r->F64(&v)) return false;
      *out = Value::Float64(v);
      return true;
    }
    case kTagString: {
      std::string s;
      if (!r->Str(&s)) return false;
      *out = Value::String(std::move(s));
      return true;
    }
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Column-chunk encodings
// ---------------------------------------------------------------------------

struct ChunkShape {
  bool all_int64 = true;     // every cell Int64 (kForInt eligible)
  bool dict_eligible = true; // only string / NULL / ALL cells
  int64_t runs = 0;          // ExactSame run count
  int64_t strings = 0;
};

ChunkShape ShapeOf(const Value* cells, int64_t n) {
  ChunkShape s;
  for (int64_t i = 0; i < n; ++i) {
    const Value& v = cells[i];
    if (!v.is_int64()) s.all_int64 = false;
    if (v.is_string()) {
      ++s.strings;
    } else if (!v.is_null() && !v.is_all()) {
      s.dict_eligible = false;
    }
    if (i == 0 || !ExactSame(cells[i - 1], v)) ++s.runs;
  }
  if (s.strings == 0) s.dict_eligible = false;
  return s;
}

void EncodePlain(std::string* out, const Value* cells, int64_t n) {
  for (int64_t i = 0; i < n; ++i) EncodeValue(out, cells[i]);
}

void EncodeRle(std::string* out, const Value* cells, int64_t n, int64_t runs) {
  PutU32(out, static_cast<uint32_t>(runs));
  int64_t i = 0;
  while (i < n) {
    int64_t j = i + 1;
    while (j < n && ExactSame(cells[i], cells[j])) ++j;
    PutU32(out, static_cast<uint32_t>(j - i));
    EncodeValue(out, cells[i]);
    i = j;
  }
}

void EncodeDict(std::string* out, const Value* cells, int64_t n) {
  std::vector<std::string> strings;
  strings.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    if (cells[i].is_string()) strings.push_back(cells[i].string());
  }
  Dictionary dict = Dictionary::Build(std::move(strings));
  PutU32(out, static_cast<uint32_t>(dict.size()));
  for (int32_t c = 0; c < dict.size(); ++c) PutString(out, dict.Decode(c));
  for (int64_t i = 0; i < n; ++i) {
    int32_t code;
    if (cells[i].is_null()) {
      code = -1;
    } else if (cells[i].is_all()) {
      code = -2;
    } else {
      code = dict.CodeOf(cells[i].string());
    }
    PutRaw(out, code);
  }
}

void EncodeForInt(std::string* out, const Value* cells, int64_t n) {
  int64_t lo = cells[0].int64();
  uint64_t max_delta = 0;
  for (int64_t i = 0; i < n; ++i) lo = std::min(lo, cells[i].int64());
  for (int64_t i = 0; i < n; ++i) {
    // Two's-complement wraparound keeps this exact even for INT64_MIN..MAX.
    const uint64_t d =
        static_cast<uint64_t>(cells[i].int64()) - static_cast<uint64_t>(lo);
    max_delta = std::max(max_delta, d);
  }
  uint8_t width = 8;
  if (max_delta <= 0xff) {
    width = 1;
  } else if (max_delta <= 0xffff) {
    width = 2;
  } else if (max_delta <= 0xffffffffULL) {
    width = 4;
  }
  PutI64(out, lo);
  PutU8(out, width);
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t d =
        static_cast<uint64_t>(cells[i].int64()) - static_cast<uint64_t>(lo);
    out->append(reinterpret_cast<const char*>(&d), width);
  }
}

Status DecodeChunk(BlockEncoding enc, ByteReader* r, int64_t n,
                   std::vector<Value>* out) {
  out->clear();
  out->reserve(static_cast<size_t>(n));
  switch (enc) {
    case BlockEncoding::kPlain: {
      for (int64_t i = 0; i < n; ++i) {
        Value v;
        if (!DecodeValue(r, &v)) return Truncated("plain chunk");
        out->push_back(std::move(v));
      }
      return Status::OK();
    }
    case BlockEncoding::kRle: {
      uint32_t runs = 0;
      if (!r->U32(&runs)) return Truncated("rle chunk");
      for (uint32_t run = 0; run < runs; ++run) {
        uint32_t len = 0;
        Value v;
        if (!r->U32(&len) || !DecodeValue(r, &v)) return Truncated("rle run");
        for (uint32_t i = 0; i < len; ++i) out->push_back(v);
      }
      if (static_cast<int64_t>(out->size()) != n) {
        return Status::Internal("block file corrupt: rle run lengths sum to ",
                                out->size(), ", block has ", n, " rows");
      }
      return Status::OK();
    }
    case BlockEncoding::kDict: {
      uint32_t dict_size = 0;
      if (!r->U32(&dict_size)) return Truncated("dict header");
      std::vector<std::string> dict(dict_size);
      for (uint32_t i = 0; i < dict_size; ++i) {
        if (!r->Str(&dict[i])) return Truncated("dict entry");
      }
      for (int64_t i = 0; i < n; ++i) {
        int32_t code = 0;
        if (!r->Raw(&code)) return Truncated("dict codes");
        if (code == -1) {
          out->push_back(Value::Null());
        } else if (code == -2) {
          out->push_back(Value::All());
        } else if (code >= 0 && static_cast<uint32_t>(code) < dict_size) {
          out->push_back(Value::String(dict[static_cast<size_t>(code)]));
        } else {
          return Status::Internal("block file corrupt: dict code ", code,
                                  " outside dictionary of ", dict_size);
        }
      }
      return Status::OK();
    }
    case BlockEncoding::kForInt: {
      int64_t lo = 0;
      uint8_t width = 0;
      if (!r->I64(&lo) || !r->U8(&width)) return Truncated("for header");
      if (width != 1 && width != 2 && width != 4 && width != 8) {
        return Status::Internal("block file corrupt: for-int width ", width);
      }
      if (r->pos + static_cast<size_t>(n) * width > r->len) {
        return Truncated("for deltas");
      }
      for (int64_t i = 0; i < n; ++i) {
        uint64_t d = 0;
        std::memcpy(&d, r->data + r->pos, width);
        r->pos += width;
        out->push_back(
            Value::Int64(static_cast<int64_t>(static_cast<uint64_t>(lo) + d)));
      }
      return Status::OK();
    }
  }
  return Status::Internal("block file corrupt: unknown encoding");
}

int64_t EstimateDecodedBytes(const Value* cells, int64_t n) {
  int64_t bytes = n * static_cast<int64_t>(sizeof(Value));
  for (int64_t i = 0; i < n; ++i) {
    if (cells[i].is_string()) {
      bytes += static_cast<int64_t>(cells[i].string().size());
    }
  }
  return bytes;
}

void PutZone(std::string* out, const ColumnZoneMap& z) {
  PutF64(out, z.num_min);
  PutF64(out, z.num_max);
  PutI64(out, z.null_count);
  PutI64(out, z.all_count);
  PutI64(out, z.nan_count);
  PutI64(out, z.numeric_count);
  PutI64(out, z.string_count);
  PutString(out, z.str_min);
  PutString(out, z.str_max);
}

bool ReadZone(ByteReader* r, ColumnZoneMap* z) {
  return r->F64(&z->num_min) && r->F64(&z->num_max) && r->I64(&z->null_count) &&
         r->I64(&z->all_count) && r->I64(&z->nan_count) &&
         r->I64(&z->numeric_count) && r->I64(&z->string_count) &&
         r->Str(&z->str_min) && r->Str(&z->str_max);
}

/// The trailer's checksum: over the header, the footer and the trailer's
/// header-length and footer-offset fields (the first 16 bytes of `trailer`).
uint64_t MetadataChecksum(const std::string& header, const std::string& footer,
                          const std::string& trailer) {
  std::string covered;
  covered.reserve(header.size() + footer.size() + 16);
  covered.append(header).append(footer).append(trailer, 0, 16);
  return BlockChecksum(covered.data(), covered.size());
}

}  // namespace

void AppendTaggedValue(std::string* out, const Value& v) { EncodeValue(out, v); }

bool ParseTaggedValue(const char* data, size_t len, size_t* pos, Value* out) {
  ByteReader r{data, len, *pos};
  if (!DecodeValue(&r, out)) return false;
  *pos = r.pos;
  return true;
}

uint64_t BlockChecksum(const char* data, size_t len) {
  // Multiplying by an odd constant and rotating are bijections, and so is
  // xoring the word in: one word's change always reaches the result.
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<uint64_t>(len);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, sizeof(w));
    h = std::rotl((h ^ w) * kMul, 29);
  }
  uint64_t tail = 0;
  if (i < len) std::memcpy(&tail, data + i, len - i);
  h = std::rotl((h ^ tail) * kMul, 29);
  h ^= h >> 32;
  h *= 0xd6e8feb86659fd93ULL;
  return h ^ (h >> 32);
}

Status WriteBlockFile(const Table& table, const std::string& path,
                      const BlockFileOptions& options) {
  const int64_t block_rows =
      options.block_size_rows > 0 ? options.block_size_rows : 4096;
  const int ncols = table.num_columns();

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open block file for writing: ", path);
  }

  // Header: magic, version, schema, geometry.
  std::string header;
  header.append(kHeaderMagic, sizeof(kHeaderMagic));
  PutU32(&header, kFormatVersion);
  PutU32(&header, static_cast<uint32_t>(ncols));
  for (const Field& f : table.schema().fields()) {
    PutString(&header, f.name);
    PutU8(&header, static_cast<uint8_t>(f.type));
  }
  PutI64(&header, block_rows);
  PutI64(&header, table.num_rows());
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  uint64_t offset = header.size();

  std::vector<BlockMeta> metas;
  MorselZoneMaps zones;
  std::string chunk;
  for (int64_t start = 0; start < table.num_rows(); start += block_rows) {
    const int64_t n = std::min<int64_t>(block_rows, table.num_rows() - start);
    BlockMeta& meta = metas.emplace_back();
    meta.num_rows = n;
    std::vector<ColumnZoneMap>& block_zones = zones.emplace_back();
    for (int c = 0; c < ncols; ++c) {
      const Value* cells = table.column(c).data() + start;
      block_zones.push_back(ComputeZone(cells, n));

      const ChunkShape shape = ShapeOf(cells, n);
      BlockEncoding enc = BlockEncoding::kPlain;
      if (shape.dict_eligible) {
        enc = BlockEncoding::kDict;
      } else if (shape.all_int64) {
        enc = BlockEncoding::kForInt;
      } else if (shape.runs <= n / 4) {
        enc = BlockEncoding::kRle;
      }
      chunk.clear();
      switch (enc) {
        case BlockEncoding::kPlain:
          EncodePlain(&chunk, cells, n);
          break;
        case BlockEncoding::kRle:
          EncodeRle(&chunk, cells, n, shape.runs);
          break;
        case BlockEncoding::kDict:
          EncodeDict(&chunk, cells, n);
          break;
        case BlockEncoding::kForInt:
          EncodeForInt(&chunk, cells, n);
          break;
      }
      meta.chunks.push_back(ChunkMeta{offset, chunk.size(), enc,
                                      BlockChecksum(chunk.data(), chunk.size()),
                                      EstimateDecodedBytes(cells, n)});
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      offset += chunk.size();
    }
  }

  // Footer index, then the trailer whose checksum covers header and footer.
  std::string footer;
  PutU32(&footer, static_cast<uint32_t>(metas.size()));
  for (size_t b = 0; b < metas.size(); ++b) {
    PutI64(&footer, metas[b].num_rows);
    for (int c = 0; c < ncols; ++c) {
      const ChunkMeta& m = metas[b].chunks[static_cast<size_t>(c)];
      PutU64(&footer, m.offset);
      PutU64(&footer, m.length);
      PutU8(&footer, static_cast<uint8_t>(m.encoding));
      PutU64(&footer, m.checksum);
      PutI64(&footer, m.decoded_bytes_estimate);
      PutZone(&footer, zones[b][static_cast<size_t>(c)]);
    }
  }
  out.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  std::string trailer;
  PutU64(&trailer, header.size());
  PutU64(&trailer, offset);
  PutU64(&trailer, MetadataChecksum(header, footer, trailer));
  trailer.append(kTrailerMagic, sizeof(kTrailerMagic));
  out.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
  out.flush();
  if (!out) return Status::Internal("write failed for block file: ", path);
  return Status::OK();
}

Result<std::unique_ptr<BlockFile>> BlockFile::Open(std::string path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open block file: ", path);
  in.seekg(0, std::ios::end);
  const int64_t file_size = static_cast<int64_t>(in.tellg());
  auto read_at = [&](int64_t offset, int64_t len, std::string* out) {
    out->assign(static_cast<size_t>(len), '\0');
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(out->data(), static_cast<std::streamsize>(len));
    return static_cast<bool>(in);
  };

  // The magic and the version come first: the version says where the
  // checksum is and what it covers.
  std::string lead;
  if (file_size < static_cast<int64_t>(kLeadBytes) ||
      !read_at(0, static_cast<int64_t>(kLeadBytes), &lead) ||
      std::memcmp(lead.data(), kHeaderMagic, sizeof(kHeaderMagic)) != 0) {
    return Status::Internal("block file corrupt: ", path, " bad header magic");
  }
  uint32_t version = 0;
  std::memcpy(&version, lead.data() + sizeof(kHeaderMagic), sizeof(version));
  if (version != kFormatVersion) {
    return Status::Internal("block file version ", version, " unsupported");
  }

  std::string trailer;
  if (file_size < static_cast<int64_t>(kLeadBytes) + kTrailerBytes ||
      !read_at(file_size - kTrailerBytes, kTrailerBytes, &trailer) ||
      std::memcmp(trailer.data() + 24, kTrailerMagic, sizeof(kTrailerMagic)) != 0) {
    return Status::Internal("block file corrupt: ", path, " bad trailer magic");
  }
  uint64_t header_len = 0, footer_offset = 0, stored = 0;
  std::memcpy(&header_len, trailer.data(), 8);
  std::memcpy(&footer_offset, trailer.data() + 8, 8);
  std::memcpy(&stored, trailer.data() + 16, 8);
  const uint64_t footer_end = static_cast<uint64_t>(file_size - kTrailerBytes);
  if (header_len < kLeadBytes || header_len > footer_offset ||
      footer_offset > footer_end) {
    return Status::Internal("block file corrupt: ", path, " header length ",
                            header_len, ", footer offset ", footer_offset,
                            " do not fit ", file_size, " bytes");
  }
  std::string header, footer;
  if (!read_at(0, static_cast<int64_t>(header_len), &header) ||
      !read_at(static_cast<int64_t>(footer_offset),
               static_cast<int64_t>(footer_end - footer_offset), &footer)) {
    return Status::Internal("block file corrupt: ", path, " short metadata read");
  }
  const uint64_t computed = MetadataChecksum(header, footer, trailer);
  if (computed != stored) {
    return Status::Internal("block file corrupt: ", path,
                            " header/footer checksum mismatch (stored ", stored,
                            ", computed ", computed, ")");
  }

  auto file = std::unique_ptr<BlockFile>(new BlockFile());
  file->path_ = std::move(path);

  // Header.
  ByteReader hr{header.data(), header.size(), kLeadBytes};
  uint32_t ncols = 0;
  if (!hr.U32(&ncols)) return Truncated("header");
  std::vector<Field> fields;
  for (uint32_t c = 0; c < ncols; ++c) {
    std::string name;
    uint8_t type = 0;
    if (!hr.Str(&name) || !hr.U8(&type)) return Truncated("schema");
    if (type > static_cast<uint8_t>(DataType::kString)) {
      return Status::Internal("block file corrupt: bad column type ", type);
    }
    fields.push_back(Field{std::move(name), static_cast<DataType>(type)});
  }
  file->schema_ = Schema(std::move(fields));
  if (!hr.I64(&file->block_size_rows_) || !hr.I64(&file->num_rows_)) {
    return Truncated("header geometry");
  }
  if (hr.pos != hr.len || file->block_size_rows_ <= 0 || file->num_rows_ < 0) {
    return Status::Internal("block file corrupt: geometry rows=", file->num_rows_,
                            " block_rows=", file->block_size_rows_);
  }
  for (uint32_t c = 0; c < ncols; ++c) file->all_columns_.push_back(static_cast<int>(c));

  // Footer: every chunk lies between the header and the footer.
  ByteReader fr{footer.data(), footer.size()};
  uint32_t nblocks = 0;
  if (!fr.U32(&nblocks)) return Truncated("footer");
  int64_t total = 0;
  for (uint32_t b = 0; b < nblocks; ++b) {
    BlockMeta& m = file->blocks_.emplace_back();
    if (!fr.I64(&m.num_rows)) return Truncated("block meta");
    if (m.num_rows <= 0 || m.num_rows > file->block_size_rows_) {
      return Status::Internal("block file corrupt: block ", b, " holds ", m.num_rows,
                              " rows");
    }
    total += m.num_rows;
    std::vector<ColumnZoneMap>& zones = file->zones_.emplace_back();
    for (uint32_t c = 0; c < ncols; ++c) {
      ChunkMeta& chunk = m.chunks.emplace_back();
      uint8_t enc = 0;
      ColumnZoneMap& z = zones.emplace_back();
      if (!fr.U64(&chunk.offset) || !fr.U64(&chunk.length) || !fr.U8(&enc) ||
          !fr.U64(&chunk.checksum) || !fr.I64(&chunk.decoded_bytes_estimate) ||
          !ReadZone(&fr, &z)) {
        return Truncated("chunk meta");
      }
      if (enc > static_cast<uint8_t>(BlockEncoding::kForInt)) {
        return Status::Internal("block file corrupt: encoding ", enc);
      }
      chunk.encoding = static_cast<BlockEncoding>(enc);
      if (chunk.offset < header_len || chunk.length > footer_offset ||
          chunk.offset > footer_offset - chunk.length ||
          chunk.decoded_bytes_estimate < 0) {
        return Status::Internal("block file corrupt: block ", b, " column ", c,
                                " chunk geometry");
      }
    }
  }
  if (fr.pos != fr.len) {
    return Status::Internal("block file corrupt: ", fr.len - fr.pos,
                            " bytes after the footer index");
  }
  if (total != file->num_rows_) {
    return Status::Internal("block file corrupt: blocks hold ", total,
                            " rows, header promises ", file->num_rows_);
  }
  return file;
}

int64_t BlockFile::ApproxBlockBytes(int b, const std::vector<int>& cols) const {
  const BlockMeta& meta = blocks_[static_cast<size_t>(b)];
  int64_t bytes = 0;
  for (int c : cols) bytes += meta.chunks[static_cast<size_t>(c)].decoded_bytes_estimate;
  return bytes;
}

Result<Table> BlockFile::ReadBlock(int b, const std::vector<int>& cols) const {
  if (b < 0 || b >= num_blocks()) {
    return Status::OutOfRange("block ", b, " of ", num_blocks());
  }
  if (cols.empty()) {
    return Status::InvalidArgument("block read of ", path_, " names no column");
  }
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] < 0 || cols[i] >= schema_.num_fields() ||
        (i > 0 && cols[i] <= cols[i - 1])) {
      return Status::InvalidArgument("block read columns must be ascending schema "
                                     "indices, got ", cols[i], " at position ", i);
    }
  }
  const BlockMeta& meta = blocks_[static_cast<size_t>(b)];

  std::ifstream in(path_, std::ios::binary);
  const bool read_fault = MDJ_FAILPOINT("storage:block_read");
  if (!in || read_fault) {
    return Status::Internal("block read failed: ", path_, " block ", b,
                            read_fault ? " (failpoint storage:block_read)" : "");
  }
  Table out;
  std::string bytes;
  std::vector<Value> cells;
  for (int c : cols) {
    const ChunkMeta& chunk = meta.chunks[static_cast<size_t>(c)];
    bytes.resize(chunk.length);
    in.seekg(static_cast<std::streamoff>(chunk.offset));
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!in) {
      return Status::Internal("block read failed: ", path_, " block ", b, " column ",
                              schema_.field(c).name, " short read");
    }
    uint64_t checksum = BlockChecksum(bytes.data(), bytes.size());
    if (MDJ_FAILPOINT("storage:block_corrupt")) checksum ^= 0xdeadbeefULL;
    if (checksum != chunk.checksum) {
      return Status::Internal("block checksum mismatch: ", path_, " block ", b,
                              " column ", schema_.field(c).name, " (stored ",
                              chunk.checksum, ", computed ", checksum, ")");
    }
    ByteReader r{bytes.data(), bytes.size()};
    MDJ_RETURN_NOT_OK(DecodeChunk(chunk.encoding, &r, meta.num_rows, &cells));
    if (r.pos != r.len) {
      return Status::Internal("block file corrupt: ", r.len - r.pos,
                              " bytes after the cells of block ", b, " column ",
                              schema_.field(c).name);
    }
    MDJ_RETURN_NOT_OK(out.AddColumn(schema_.field(c), std::move(cells)));
  }
  return out;
}

}  // namespace mdjoin
