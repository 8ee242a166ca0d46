#include "common/simd.h"

#include <algorithm>

// Backend availability. The AVX2 bodies are compiled with a per-function
// target attribute, so the rest of the binary stays baseline-x86 and the
// choice is made per process at runtime (BestLevel's cpuid check). NEON is
// architecturally guaranteed on aarch64, so it needs no runtime check.
#if defined(MDJOIN_ENABLE_SIMD) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define MDJOIN_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(MDJOIN_ENABLE_SIMD) && defined(__ARM_NEON)
#define MDJOIN_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace mdjoin {
namespace simd {

namespace {

template <typename T>
inline bool CmpScalar(CmpOp op, T x, T lit) {
  switch (op) {
    case CmpOp::kEq:
      return x == lit;
    case CmpOp::kNe:
      return x != lit;
    case CmpOp::kLt:
      return x < lit;
    case CmpOp::kLe:
      return !(x > lit);  // NaN-true for float64, == x<=lit for integers
    case CmpOp::kGt:
      return x > lit;
    case CmpOp::kGe:
      return !(x < lit);
  }
  return false;
}

template <typename T>
void CmpScalarLoop(CmpOp op, const T* x, int n, T lit, uint64_t* mask) {
  for (int w = 0; w * 64 < n; ++w) {
    const int lo = w * 64;
    const int hi = std::min(n, lo + 64);
    uint64_t bits = 0;
    for (int i = lo; i < hi; ++i) {
      bits |= static_cast<uint64_t>(CmpScalar(op, x[i], lit)) << (i - lo);
    }
    mask[w] = bits;
  }
}

#if defined(MDJOIN_SIMD_X86)

__attribute__((target("avx2"))) void CmpI64Avx2(CmpOp op, const int64_t* x, int n,
                                                int64_t lit, uint64_t* mask) {
  std::fill(mask, mask + MaskWords(n), uint64_t{0});
  const __m256i vlit = _mm256_set1_epi64x(lit);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    __m256i r;
    uint64_t flip = 0;
    switch (op) {
      case CmpOp::kEq:
        r = _mm256_cmpeq_epi64(v, vlit);
        break;
      case CmpOp::kNe:
        r = _mm256_cmpeq_epi64(v, vlit);
        flip = 0xF;
        break;
      case CmpOp::kLt:
        r = _mm256_cmpgt_epi64(vlit, v);
        break;
      case CmpOp::kLe:
        r = _mm256_cmpgt_epi64(v, vlit);
        flip = 0xF;
        break;
      case CmpOp::kGt:
        r = _mm256_cmpgt_epi64(v, vlit);
        break;
      case CmpOp::kGe:
        r = _mm256_cmpgt_epi64(vlit, v);
        flip = 0xF;
        break;
      default:
        r = _mm256_setzero_si256();
        break;
    }
    const uint64_t bits =
        static_cast<uint64_t>(_mm256_movemask_pd(_mm256_castsi256_pd(r))) ^ flip;
    mask[i >> 6] |= bits << (i & 63);
  }
  for (; i < n; ++i) {
    mask[i >> 6] |= static_cast<uint64_t>(CmpScalar(op, x[i], lit)) << (i & 63);
  }
}

__attribute__((target("avx2"))) void CmpF64Avx2(CmpOp op, const double* x, int n,
                                                double lit, uint64_t* mask) {
  std::fill(mask, mask + MaskWords(n), uint64_t{0});
  const __m256d vlit = _mm256_set1_pd(lit);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    __m256d r;
    // Predicates chosen to agree lane-for-lane with CmpScalar<double>:
    // ordered-quiet where NaN must fail, unordered-quiet where NaN must pass.
    switch (op) {
      case CmpOp::kEq:
        r = _mm256_cmp_pd(v, vlit, _CMP_EQ_OQ);
        break;
      case CmpOp::kNe:
        r = _mm256_cmp_pd(v, vlit, _CMP_NEQ_UQ);
        break;
      case CmpOp::kLt:
        r = _mm256_cmp_pd(v, vlit, _CMP_LT_OQ);
        break;
      case CmpOp::kLe:
        r = _mm256_cmp_pd(v, vlit, _CMP_NGT_UQ);
        break;
      case CmpOp::kGt:
        r = _mm256_cmp_pd(v, vlit, _CMP_GT_OQ);
        break;
      case CmpOp::kGe:
        r = _mm256_cmp_pd(v, vlit, _CMP_NLT_UQ);
        break;
      default:
        r = _mm256_setzero_pd();
        break;
    }
    const uint64_t bits = static_cast<uint64_t>(_mm256_movemask_pd(r));
    mask[i >> 6] |= bits << (i & 63);
  }
  for (; i < n; ++i) {
    mask[i >> 6] |= static_cast<uint64_t>(CmpScalar(op, x[i], lit)) << (i & 63);
  }
}

__attribute__((target("avx2"))) void CmpI32Avx2(CmpOp op, const int32_t* x, int n,
                                                int32_t lit, uint64_t* mask) {
  std::fill(mask, mask + MaskWords(n), uint64_t{0});
  const __m256i vlit = _mm256_set1_epi32(lit);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    __m256i r;
    uint64_t flip = 0;
    switch (op) {
      case CmpOp::kEq:
        r = _mm256_cmpeq_epi32(v, vlit);
        break;
      case CmpOp::kNe:
        r = _mm256_cmpeq_epi32(v, vlit);
        flip = 0xFF;
        break;
      case CmpOp::kLt:
        r = _mm256_cmpgt_epi32(vlit, v);
        break;
      case CmpOp::kLe:
        r = _mm256_cmpgt_epi32(v, vlit);
        flip = 0xFF;
        break;
      case CmpOp::kGt:
        r = _mm256_cmpgt_epi32(v, vlit);
        break;
      case CmpOp::kGe:
        r = _mm256_cmpgt_epi32(vlit, v);
        flip = 0xFF;
        break;
      default:
        r = _mm256_setzero_si256();
        break;
    }
    const uint64_t bits =
        static_cast<uint64_t>(_mm256_movemask_ps(_mm256_castsi256_ps(r))) ^ flip;
    mask[i >> 6] |= bits << (i & 63);
  }
  for (; i < n; ++i) {
    mask[i >> 6] |= static_cast<uint64_t>(CmpScalar(op, x[i], lit)) << (i & 63);
  }
}

bool CpuHasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

#endif  // MDJOIN_SIMD_X86

#if defined(MDJOIN_SIMD_NEON)

void CmpI64Neon(CmpOp op, const int64_t* x, int n, int64_t lit, uint64_t* mask) {
  std::fill(mask, mask + MaskWords(n), uint64_t{0});
  const int64x2_t vlit = vdupq_n_s64(lit);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const int64x2_t v = vld1q_s64(x + i);
    uint64x2_t r;
    uint64_t flip = 0;
    switch (op) {
      case CmpOp::kEq:
        r = vceqq_s64(v, vlit);
        break;
      case CmpOp::kNe:
        r = vceqq_s64(v, vlit);
        flip = 0x3;
        break;
      case CmpOp::kLt:
        r = vcltq_s64(v, vlit);
        break;
      case CmpOp::kLe:
        r = vcgtq_s64(v, vlit);
        flip = 0x3;
        break;
      case CmpOp::kGt:
        r = vcgtq_s64(v, vlit);
        break;
      case CmpOp::kGe:
        r = vcltq_s64(v, vlit);
        flip = 0x3;
        break;
      default:
        r = vdupq_n_u64(0);
        break;
    }
    const uint64_t bits =
        ((vgetq_lane_u64(r, 0) & 1) | ((vgetq_lane_u64(r, 1) & 1) << 1)) ^ flip;
    mask[i >> 6] |= bits << (i & 63);
  }
  for (; i < n; ++i) {
    mask[i >> 6] |= static_cast<uint64_t>(CmpScalar(op, x[i], lit)) << (i & 63);
  }
}

void CmpF64Neon(CmpOp op, const double* x, int n, double lit, uint64_t* mask) {
  std::fill(mask, mask + MaskWords(n), uint64_t{0});
  const float64x2_t vlit = vdupq_n_f64(lit);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t v = vld1q_f64(x + i);
    uint64x2_t r;
    uint64_t flip = 0;
    // NEON float compares are ordered (NaN lanes yield false); the NaN-true
    // ops (Ne/Le/Ge) are expressed by inverting the complementary compare.
    switch (op) {
      case CmpOp::kEq:
        r = vceqq_f64(v, vlit);
        break;
      case CmpOp::kNe:
        r = vceqq_f64(v, vlit);
        flip = 0x3;
        break;
      case CmpOp::kLt:
        r = vcltq_f64(v, vlit);
        break;
      case CmpOp::kLe:
        r = vcgtq_f64(v, vlit);
        flip = 0x3;
        break;
      case CmpOp::kGt:
        r = vcgtq_f64(v, vlit);
        break;
      case CmpOp::kGe:
        r = vcltq_f64(v, vlit);
        flip = 0x3;
        break;
      default:
        r = vdupq_n_u64(0);
        break;
    }
    const uint64_t bits =
        ((vgetq_lane_u64(r, 0) & 1) | ((vgetq_lane_u64(r, 1) & 1) << 1)) ^ flip;
    mask[i >> 6] |= bits << (i & 63);
  }
  for (; i < n; ++i) {
    mask[i >> 6] |= static_cast<uint64_t>(CmpScalar(op, x[i], lit)) << (i & 63);
  }
}

void CmpI32Neon(CmpOp op, const int32_t* x, int n, int32_t lit, uint64_t* mask) {
  std::fill(mask, mask + MaskWords(n), uint64_t{0});
  const int32x4_t vlit = vdupq_n_s32(lit);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const int32x4_t v = vld1q_s32(x + i);
    uint32x4_t r;
    uint64_t flip = 0;
    switch (op) {
      case CmpOp::kEq:
        r = vceqq_s32(v, vlit);
        break;
      case CmpOp::kNe:
        r = vceqq_s32(v, vlit);
        flip = 0xF;
        break;
      case CmpOp::kLt:
        r = vcltq_s32(v, vlit);
        break;
      case CmpOp::kLe:
        r = vcgtq_s32(v, vlit);
        flip = 0xF;
        break;
      case CmpOp::kGt:
        r = vcgtq_s32(v, vlit);
        break;
      case CmpOp::kGe:
        r = vcltq_s32(v, vlit);
        flip = 0xF;
        break;
      default:
        r = vdupq_n_u32(0);
        break;
    }
    const uint64_t bits = ((vgetq_lane_u32(r, 0) & 1) | ((vgetq_lane_u32(r, 1) & 1) << 1) |
                           ((vgetq_lane_u32(r, 2) & 1) << 2) |
                           ((vgetq_lane_u32(r, 3) & 1) << 3)) ^
                          flip;
    mask[i >> 6] |= bits << (i & 63);
  }
  for (; i < n; ++i) {
    mask[i >> 6] |= static_cast<uint64_t>(CmpScalar(op, x[i], lit)) << (i & 63);
  }
}

#endif  // MDJOIN_SIMD_NEON

}  // namespace

Level BestLevel() {
#if defined(MDJOIN_SIMD_X86)
  if (CpuHasAvx2()) return Level::kAvx2;
#endif
#if defined(MDJOIN_SIMD_NEON)
  return Level::kNeon;
#endif
  return Level::kScalar;
}

bool LevelAvailable(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
#if defined(MDJOIN_SIMD_X86)
      return CpuHasAvx2();
#else
      return false;
#endif
    case Level::kNeon:
#if defined(MDJOIN_SIMD_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kNeon:
      return "neon";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

void CmpI64(Level level, CmpOp op, const int64_t* x, int n, int64_t lit,
            uint64_t* mask) {
#if defined(MDJOIN_SIMD_X86)
  if (level == Level::kAvx2 && CpuHasAvx2()) {
    CmpI64Avx2(op, x, n, lit, mask);
    return;
  }
#endif
#if defined(MDJOIN_SIMD_NEON)
  if (level == Level::kNeon) {
    CmpI64Neon(op, x, n, lit, mask);
    return;
  }
#endif
  (void)level;
  CmpScalarLoop(op, x, n, lit, mask);
}

void CmpF64(Level level, CmpOp op, const double* x, int n, double lit,
            uint64_t* mask) {
#if defined(MDJOIN_SIMD_X86)
  if (level == Level::kAvx2 && CpuHasAvx2()) {
    CmpF64Avx2(op, x, n, lit, mask);
    return;
  }
#endif
#if defined(MDJOIN_SIMD_NEON)
  if (level == Level::kNeon) {
    CmpF64Neon(op, x, n, lit, mask);
    return;
  }
#endif
  (void)level;
  CmpScalarLoop(op, x, n, lit, mask);
}

void CmpI32(Level level, CmpOp op, const int32_t* x, int n, int32_t lit,
            uint64_t* mask) {
#if defined(MDJOIN_SIMD_X86)
  if (level == Level::kAvx2 && CpuHasAvx2()) {
    CmpI32Avx2(op, x, n, lit, mask);
    return;
  }
#endif
#if defined(MDJOIN_SIMD_NEON)
  if (level == Level::kNeon) {
    CmpI32Neon(op, x, n, lit, mask);
    return;
  }
#endif
  (void)level;
  CmpScalarLoop(op, x, n, lit, mask);
}

void MaskSetAll(uint64_t* mask, int n) {
  const int words = MaskWords(n);
  for (int w = 0; w < words; ++w) mask[w] = ~uint64_t{0};
  if (n & 63) mask[words - 1] = (uint64_t{1} << (n & 63)) - 1;
}

void MaskAndNotNull(const uint8_t* nulls, int n, uint64_t* mask) {
  for (int w = 0; w * 64 < n; ++w) {
    const int lo = w * 64;
    const int hi = std::min(n, lo + 64);
    uint64_t null_bits = 0;
    for (int i = lo; i < hi; ++i) {
      null_bits |= static_cast<uint64_t>(nulls[i] != 0) << (i - lo);
    }
    mask[w] &= ~null_bits;
  }
}

void MaskFromNotNull(const uint8_t* nulls, int n, uint64_t* mask) {
  MaskSetAll(mask, n);
  MaskAndNotNull(nulls, n, mask);
}

bool MaskAllSet(const uint64_t* mask, int n) {
  const int words = MaskWords(n);
  for (int w = 0; w + 1 < words; ++w) {
    if (mask[w] != ~uint64_t{0}) return false;
  }
  if (words == 0) return true;
  const uint64_t tail =
      (n & 63) ? (uint64_t{1} << (n & 63)) - 1 : ~uint64_t{0};
  return mask[words - 1] == tail;
}

int MaskCompress(const uint64_t* mask, int n, uint32_t* sel) {
  int out = 0;
  for (int w = 0; w < MaskWords(n); ++w) {
    uint64_t bits = mask[w];
    const uint32_t base = static_cast<uint32_t>(w) * 64;
    while (bits != 0) {
      sel[out++] = base + static_cast<uint32_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
    }
  }
  return out;
}

}  // namespace simd
}  // namespace mdjoin
