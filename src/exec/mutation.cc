#include "exec/mutation.h"

#include "common/clock.h"
#include "expr/eval.h"
#include "storage/table.h"

namespace skinner {

Result<MutationPlan> ComputeMutation(const BoundMutation& m,
                                     const StringPool* pool) {
  MutationPlan plan;
  const Table* tab = m.table;
  const std::vector<const Table*> tables = {tab};
  std::vector<int64_t> binding(1, 0);
  VirtualClock clock;
  EvalContext ctx{&tables, pool, binding.data(), &clock};

  const bool masked = tab->has_deletes();
  const int64_t n = tab->num_rows();
  for (int64_t r = 0; r < n; ++r) {
    ++plan.cost;
    if (masked && !tab->IsRowValid(r)) continue;
    binding[0] = r;
    if (m.where != nullptr && !EvalPredicate(*m.where, ctx)) continue;
    ++plan.rows_matched;
    if (m.kind == Statement::Kind::kDelete) {
      plan.deleted_rows.push_back(r);
      continue;
    }
    for (const auto& sc : m.sets) {
      Value v = EvalExpr(*sc.expr, ctx);
      // Surface storage type errors now, before any cell is written.
      SKINNER_RETURN_IF_ERROR(Column::CheckStorable(
          tab->schema().column(sc.column_idx).type, v));
      plan.cell_changes.push_back(
          MutationPlan::CellChange{r, sc.column_idx, std::move(v)});
    }
  }
  plan.cost += clock.now();
  return plan;
}

Status ApplyMutation(Table* table, const MutationPlan& plan) {
  for (const auto& cc : plan.cell_changes) {
    SKINNER_RETURN_IF_ERROR(table->UpdateCell(cc.row, cc.col, cc.value));
  }
  for (int64_t r : plan.deleted_rows) table->DeleteRow(r);
  return Status::OK();
}

}  // namespace skinner
