#include "engine/multiway_join.h"

#include <algorithm>

namespace skinner {

std::vector<JoinStep> BuildJoinSteps(const PreparedQuery& pq,
                                     const std::vector<int>& order) {
  const QueryInfo& info = pq.info();
  std::vector<JoinStep> steps;
  steps.reserve(order.size());
  TableSet prefix = 0;
  for (int t : order) {
    JoinStep step;
    step.table = t;
    step.rows = pq.filtered_rows(t).data();
    step.card = pq.cardinality(t);
    TableSet with_t = prefix | TableBit(t);
    for (const PredInfo* p : info.NewlyApplicable(with_t, t)) {
      // Binary equality between t and an earlier table?
      const Expr* e = p->expr;
      bool is_equi = false;
      if (e->kind == ExprKind::kBinaryOp && e->bin_op == BinOp::kEq &&
          e->children[0]->kind == ExprKind::kColumnRef &&
          e->children[1]->kind == ExprKind::kColumnRef) {
        const Expr* a = e->children[0].get();
        const Expr* b = e->children[1].get();
        const Expr* mine = nullptr;
        const Expr* other = nullptr;
        if (a->table_idx == t && b->table_idx != t) {
          mine = a;
          other = b;
        } else if (b->table_idx == t && a->table_idx != t) {
          mine = b;
          other = a;
        }
        if (mine != nullptr) {
          EquiProbe probe;
          probe.other_table = other->table_idx;
          probe.index = pq.index(t, mine->column_idx);
          probe.this_keys = pq.key_view(t, mine->column_idx);
          probe.other_keys = pq.key_view(other->table_idx, other->column_idx);
          step.eq.push_back(probe);
          is_equi = true;
        }
      }
      if (!is_equi) step.checks.push_back(e);
    }
    // Pick the first index-backed equality as the driver.
    for (size_t i = 0; i < step.eq.size(); ++i) {
      if (step.eq[i].index != nullptr) {
        step.driver = static_cast<int>(i);
        break;
      }
    }
    step.residual = !step.checks.empty() ||
                    step.eq.size() > (step.driver >= 0 ? 1u : 0u);
    steps.push_back(std::move(step));
    prefix = with_t;
  }
  return steps;
}

JoinCursor::JoinCursor(const PreparedQuery* pq, std::vector<JoinStep> steps)
    : pq_(pq),
      steps_(std::move(steps)),
      binding_(static_cast<size_t>(pq->num_tables()), 0),
      windows_(steps_.size()),
      tuple_(static_cast<size_t>(pq->num_tables()), -1) {}

bool JoinCursor::CheckResidual(int depth) const {
  const JoinStep& s = steps_[static_cast<size_t>(depth)];
  const int64_t my_row = binding_[static_cast<size_t>(s.table)];
  // Equality checks beyond the driver (or all of them when scanning).
  for (size_t i = 0; i < s.eq.size(); ++i) {
    if (static_cast<int>(i) == s.driver) continue;
    const EquiProbe& p = s.eq[i];
    const int64_t other_row = binding_[static_cast<size_t>(p.other_table)];
    if (p.this_keys.IsNull(my_row) || p.other_keys.IsNull(other_row) ||
        p.this_keys.Key(my_row) != p.other_keys.Key(other_row)) {
      return false;
    }
  }
  if (!s.checks.empty()) {
    EvalContext ctx = pq_->MakeEvalContext(binding_.data());
    if (clock_override_ != nullptr) ctx.clock = clock_override_;
    for (const Expr* e : s.checks) {
      if (!EvalPredicate(*e, ctx)) return false;
    }
  }
  return true;
}

}  // namespace skinner
