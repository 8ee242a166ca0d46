#include "cube/lattice.h"

#include <bit>

namespace mdjoin {

Result<CubeLattice> CubeLattice::Make(std::vector<std::string> dims) {
  if (dims.empty()) return Status::InvalidArgument("cube lattice needs >= 1 dimension");
  if (dims.size() > kMaxCubeDims) {
    return Status::InvalidArgument("cube lattice limited to ", kMaxCubeDims,
                                   " dimensions, got ", dims.size());
  }
  for (size_t i = 0; i < dims.size(); ++i) {
    for (size_t j = i + 1; j < dims.size(); ++j) {
      if (dims[i] == dims[j]) {
        return Status::InvalidArgument("duplicate cube dimension '", dims[i], "'");
      }
    }
  }
  return CubeLattice(std::move(dims));
}

std::vector<CuboidMask> CubeLattice::AllCuboids() const {
  std::vector<CuboidMask> out;
  out.reserve(size_t{1} << num_dims());
  for (CuboidMask m = 0; m <= full_cuboid(); ++m) out.push_back(m);
  return out;
}

std::vector<CuboidMask> CubeLattice::CuboidsAtLevel(int level) const {
  std::vector<CuboidMask> out;
  for (CuboidMask m = 0; m <= full_cuboid(); ++m) {
    if (Level(m) == level) out.push_back(m);
  }
  return out;
}

std::vector<std::string> CubeLattice::CuboidAttrs(CuboidMask mask) const {
  std::vector<std::string> out;
  for (int i = 0; i < num_dims(); ++i) {
    if (mask & (CuboidMask{1} << i)) out.push_back(dims_[static_cast<size_t>(i)]);
  }
  return out;
}

int CubeLattice::Level(CuboidMask mask) { return std::popcount(mask); }

bool CubeLattice::IsParent(CuboidMask parent, CuboidMask child) {
  return (child & parent) == child && Level(parent) == Level(child) + 1;
}

std::vector<CuboidMask> CubeLattice::ParentsOf(CuboidMask child) const {
  std::vector<CuboidMask> out;
  for (int i = 0; i < num_dims(); ++i) {
    CuboidMask bit = CuboidMask{1} << i;
    if (!(child & bit)) out.push_back(child | bit);
  }
  return out;
}

std::string CubeLattice::CuboidName(CuboidMask mask) const {
  std::string out = "(";
  for (int i = 0; i < num_dims(); ++i) {
    if (i > 0) out += ", ";
    if (mask & (CuboidMask{1} << i)) {
      out += dims_[static_cast<size_t>(i)];
    } else {
      out += "ALL";
    }
  }
  return out + ")";
}

}  // namespace mdjoin
