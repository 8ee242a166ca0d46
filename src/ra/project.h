#ifndef MDJOIN_RA_PROJECT_H_
#define MDJOIN_RA_PROJECT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "table/table.h"

namespace mdjoin {

/// One output column of a projection: an expression and its name.
struct ProjectItem {
  ExprPtr expr;
  std::string name;
};

/// π over computed expressions (extended projection). No deduplication; use
/// Distinct for set semantics. An item that names a column of `t` bare takes
/// that column whole (moved, or copied when another item names it too); the
/// others evaluate per row.
Result<Table> Project(Table t, const std::vector<ProjectItem>& items);

/// Plain column-list projection.
Result<Table> ProjectColumns(const Table& t, const std::vector<std::string>& columns);

}  // namespace mdjoin

#endif  // MDJOIN_RA_PROJECT_H_
