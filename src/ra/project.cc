#include "ra/project.h"

#include "expr/compile.h"
#include "table/table_ops.h"

namespace mdjoin {

Result<Table> Project(Table t, const std::vector<ProjectItem>& items) {
  std::vector<CompiledExpr> exprs(items.size());
  std::vector<int> bare(items.size(), -1);  // the column an item names bare
  std::vector<int> uses(static_cast<size_t>(t.num_columns()), 0);
  std::vector<Field> fields;
  fields.reserve(items.size());
  for (size_t k = 0; k < items.size(); ++k) {
    const ExprPtr& e = items[k].expr;
    MDJ_ASSIGN_OR_RETURN(exprs[k], CompileExpr(e, t.schema()));
    fields.push_back(Field{items[k].name, exprs[k].result_type()});
    if (e->kind() == ExprKind::kColumnRef && e->side() == Side::kDetail) {
      MDJ_ASSIGN_OR_RETURN(bare[k], t.schema().GetFieldIndex(e->column_name()));
      ++uses[static_cast<size_t>(bare[k])];
    }
  }
  // Computed items read `t` before any of its columns move.
  const int64_t rows = t.num_rows();
  std::vector<std::vector<Value>> out(items.size());
  RowCtx ctx;
  ctx.detail = &t;
  for (size_t k = 0; k < items.size(); ++k) {
    if (bare[k] >= 0) continue;
    out[k].reserve(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
      ctx.detail_row = r;
      out[k].push_back(exprs[k].Eval(ctx));
    }
  }
  std::vector<std::vector<Value>> columns = std::move(t).ReleaseColumns();
  for (size_t k = 0; k < items.size(); ++k) {
    if (bare[k] < 0) continue;
    std::vector<Value>& column = columns[static_cast<size_t>(bare[k])];
    out[k] = --uses[static_cast<size_t>(bare[k])] == 0 ? std::move(column) : column;
  }
  return Table(Schema(std::move(fields)), std::move(out), rows);
}

Result<Table> ProjectColumns(const Table& t, const std::vector<std::string>& columns) {
  MDJ_ASSIGN_OR_RETURN(std::vector<int> cols, ResolveColumns(t.schema(), columns));
  std::vector<Field> fields;
  fields.reserve(cols.size());
  for (int c : cols) fields.push_back(t.schema().field(c));
  Table out{Schema(std::move(fields))};
  out.Reserve(t.num_rows());
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    out.AppendRowUnchecked(t.GetRowKey(r, cols));
  }
  return out;
}

}  // namespace mdjoin
