#include "core/generalized.h"

#include "core/detail_scan.h"

namespace mdjoin {

Result<Table> GeneralizedMdJoin(const Table& base, const Table& detail,
                                const std::vector<MdJoinComponent>& components,
                                const MdJoinOptions& options, MdJoinStats* stats,
                                const GroupIdMap* groups) {
  return RunMdJoin(base, TableSource(detail), components, options, stats, groups);
}

}  // namespace mdjoin
