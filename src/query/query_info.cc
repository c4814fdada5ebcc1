#include "query/query_info.h"

namespace skinner {

Result<QueryInfo> QueryInfo::Analyze(const BoundQuery& query) {
  QueryInfo info;
  info.num_tables_ = query.num_tables();
  if (info.num_tables_ > 32) {
    return Status::Unsupported("queries join at most 32 tables");
  }
  info.unary_preds_.resize(static_cast<size_t>(info.num_tables_));
  info.adjacency_.resize(static_cast<size_t>(info.num_tables_), 0);

  std::vector<Expr*> conjuncts;
  if (query.where != nullptr) SplitConjuncts(query.where.get(), &conjuncts);

  for (Expr* c : conjuncts) {
    std::set<int> tables;
    c->CollectTables(&tables);
    if (tables.empty()) {
      info.constant_preds_.push_back(PredInfo{c, 0, 0});
      continue;
    }
    if (tables.size() == 1) {
      info.unary_preds_[static_cast<size_t>(*tables.begin())].push_back(c);
      continue;
    }
    TableSet mask = 0;
    for (int t : tables) mask |= TableBit(t);
    info.join_preds_.push_back(
        PredInfo{c, mask, static_cast<int>(tables.size())});
    // Join graph: all tables in one predicate are pairwise adjacent.
    for (int a : tables) {
      for (int b : tables) {
        if (a != b) info.adjacency_[static_cast<size_t>(a)] |= TableBit(b);
      }
    }
    // Equality join detection.
    if (c->kind == ExprKind::kBinaryOp && c->bin_op == BinOp::kEq &&
        c->children[0]->kind == ExprKind::kColumnRef &&
        c->children[1]->kind == ExprKind::kColumnRef &&
        c->children[0]->table_idx != c->children[1]->table_idx) {
      info.equi_preds_.push_back(EquiJoinPred{
          c->children[0]->table_idx, c->children[0]->column_idx,
          c->children[1]->table_idx, c->children[1]->column_idx, c});
    }
  }
  return info;
}

TableSet QueryInfo::EligibleMask(TableSet chosen) const {
  const TableSet all = num_tables_ == 32 ? ~static_cast<TableSet>(0)
                                         : TableBit(num_tables_) - 1;
  if (chosen == 0) return all;
  // Tables connected to the chosen set.
  TableSet frontier = 0;
  for (int t = 0; t < num_tables_; ++t) {
    if (Contains(chosen, t)) frontier |= adjacency_[static_cast<size_t>(t)];
  }
  frontier &= ~chosen;
  // No connected table left: Cartesian product unavoidable.
  return frontier != 0 ? frontier : all & ~chosen;
}

std::vector<int> QueryInfo::EligibleTables(TableSet chosen) const {
  std::vector<int> out;
  const TableSet mask = EligibleMask(chosen);
  for (int t = 0; t < num_tables_; ++t) {
    if (Contains(mask, t)) out.push_back(t);
  }
  return out;
}

std::vector<const PredInfo*> QueryInfo::NewlyApplicable(
    TableSet prefix_with_table, int table) const {
  std::vector<const PredInfo*> out;
  for (const PredInfo& p : join_preds_) {
    if ((p.tables & ~prefix_with_table) == 0 && Contains(p.tables, table)) {
      out.push_back(&p);
    }
  }
  return out;
}

bool QueryInfo::IsConnected() const {
  if (num_tables_ == 0) return true;
  TableSet seen = TableBit(0);
  for (;;) {
    TableSet next = seen;
    for (int t = 0; t < num_tables_; ++t) {
      if (Contains(seen, t)) next |= adjacency_[static_cast<size_t>(t)];
    }
    if (next == seen) break;
    seen = next;
  }
  return seen == (num_tables_ == 32 ? ~static_cast<TableSet>(0)
                                    : TableBit(num_tables_) - 1);
}

}  // namespace skinner
