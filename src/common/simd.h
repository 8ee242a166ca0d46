#ifndef MDJOIN_COMMON_SIMD_H_
#define MDJOIN_COMMON_SIMD_H_

#include <cstdint>

namespace mdjoin {
namespace simd {

/// Instruction-set level a kernel executes at. The scalar level is always
/// available and is the semantic reference: every wider level must produce
/// bit-identical masks and reductions (enforced by
/// tests/simd_kernel_fuzz_test.cc). kAvx2/kNeon are compiled in only on the
/// matching architecture when the MDJOIN_SIMD CMake option is ON; kAvx2 is
/// additionally gated on a runtime cpuid check so one binary runs on
/// pre-AVX2 x86 machines.
enum class Level {
  kScalar = 0,
  kNeon = 1,
  kAvx2 = 2,
};

/// The widest Level usable here (compile-time support ∧ runtime cpu check).
/// Every MD-join runs its kernels at this level; a build with the MDJOIN_SIMD
/// CMake option OFF runs the scalar level.
Level BestLevel();

/// True when `level` can execute on this build + machine.
bool LevelAvailable(Level level);

const char* LevelName(Level level);  // "scalar" / "neon" / "avx2"

/// Comparison operator for the dense compare kernels. Semantics for kLe/kGe
/// on float64 are !(x > lit) / !(x < lit) — i.e. true when x is NaN —
/// matching CompareHolds in expr/eval_ops.h, which maps them through
/// Value::Compare (NaN compares "equal" there). kEq/kNe/kLt/kGt are plain
/// IEEE and agree with both formulations.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Dense block compares: bit i of mask[i/64] is set iff x[i] <op> lit.
/// Lanes past n in the last word are zero. n <= a few thousand (one block).
void CmpI64(Level level, CmpOp op, const int64_t* x, int n, int64_t lit,
            uint64_t* mask);
void CmpF64(Level level, CmpOp op, const double* x, int n, double lit,
            uint64_t* mask);
void CmpI32(Level level, CmpOp op, const int32_t* x, int n, int32_t lit,
            uint64_t* mask);

/// Number of 64-bit words a mask over n lanes occupies.
inline int MaskWords(int n) { return (n + 63) >> 6; }

/// mask := all lanes [0, n) set.
void MaskSetAll(uint64_t* mask, int n);

/// mask &= "row is not null" (nulls is a 0/1 byte per lane).
void MaskAndNotNull(const uint8_t* nulls, int n, uint64_t* mask);

/// mask := "row is not null".
void MaskFromNotNull(const uint8_t* nulls, int n, uint64_t* mask);

bool MaskAllSet(const uint64_t* mask, int n);

/// Writes the set lane indices (ascending) into sel; returns how many. The
/// bitmask → selection-vector boundary of the adaptive dense path.
int MaskCompress(const uint64_t* mask, int n, uint32_t* sel);

}  // namespace simd
}  // namespace mdjoin

#endif  // MDJOIN_COMMON_SIMD_H_
