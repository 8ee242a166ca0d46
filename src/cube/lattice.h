#ifndef MDJOIN_CUBE_LATTICE_H_
#define MDJOIN_CUBE_LATTICE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/result.h"

namespace mdjoin {

/// A cuboid of a d-dimensional data cube, identified by the subset of
/// dimensions it groups on: bit i set means dims[i] is grouped, bit i clear
/// means dims[i] is rolled up to ALL. The full cuboid is (2^d)-1; the grand
/// total is 0.
using CuboidMask = uint32_t;

/// Dimensions a cuboid mask can name, one bit each.
constexpr size_t kMaxCuboidDims = std::numeric_limits<CuboidMask>::digits;

/// Dimensions a cube lattice (all 2^d cuboids) may have.
constexpr size_t kMaxCubeDims = 20;

/// The mask grouping the first `k` dims, 0 <= k <= kMaxCuboidDims (no shift
/// by the mask's width at either end).
constexpr CuboidMask PrefixMask(size_t k) {
  return k == 0 ? 0 : ~CuboidMask{0} >> (kMaxCuboidDims - k);
}

/// The search lattice of a data cube over named dimensions (paper §4.4).
/// Purely structural: enumeration, parent/child tests, pretty names. Limited
/// to kMaxCubeDims dimensions (2^20 cuboids) — far beyond practical cube
/// widths.
class CubeLattice {
 public:
  static Result<CubeLattice> Make(std::vector<std::string> dims);

  int num_dims() const { return static_cast<int>(dims_.size()); }
  const std::vector<std::string>& dims() const { return dims_; }

  CuboidMask full_cuboid() const { return (CuboidMask{1} << num_dims()) - 1; }

  /// All 2^d cuboid masks, grand total first, full cuboid last.
  std::vector<CuboidMask> AllCuboids() const;

  /// Cuboids grouping exactly `level` dimensions.
  std::vector<CuboidMask> CuboidsAtLevel(int level) const;

  /// Dimension names grouped by `mask`, in dims() order.
  std::vector<std::string> CuboidAttrs(CuboidMask mask) const;

  static int Level(CuboidMask mask);

  /// True if `parent` has exactly one more grouped dimension than `child`
  /// and contains it (a lattice edge: child is a roll-up of parent).
  static bool IsParent(CuboidMask parent, CuboidMask child);

  /// All direct parents of `child` within this lattice.
  std::vector<CuboidMask> ParentsOf(CuboidMask child) const;

  /// "(prod, ALL, state)"-style label for diagnostics.
  std::string CuboidName(CuboidMask mask) const;

 private:
  explicit CubeLattice(std::vector<std::string> dims) : dims_(std::move(dims)) {}

  std::vector<std::string> dims_;
};

}  // namespace mdjoin

#endif  // MDJOIN_CUBE_LATTICE_H_
