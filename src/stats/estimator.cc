#include "stats/estimator.h"

#include <algorithm>
#include <cmath>

namespace skinner {

namespace {
double Clamp01(double x) { return std::clamp(x, 0.0, 1.0); }
}  // namespace

double Estimator::PredicateSelectivity(const Table& table,
                                       const Expr& pred) const {
  const std::shared_ptr<const TableStats> stats = stats_->Get(&table);
  const TableStats& ts = *stats;
  switch (pred.kind) {
    case ExprKind::kBinaryOp: {
      const Expr& l = *pred.children[0];
      const Expr& r = *pred.children[1];
      switch (pred.bin_op) {
        case BinOp::kAnd:
          // Independence assumption: the precise blind spot that the
          // Correlation Torture benchmark attacks.
          return Clamp01(PredicateSelectivity(table, l) *
                         PredicateSelectivity(table, r));
        case BinOp::kOr: {
          double a = PredicateSelectivity(table, l);
          double b = PredicateSelectivity(table, r);
          return Clamp01(a + b - a * b);
        }
        case BinOp::kEq: {
          // col = literal: uniformity over distinct values.
          const Expr* col = l.kind == ExprKind::kColumnRef ? &l : nullptr;
          if (col == nullptr && r.kind == ExprKind::kColumnRef) col = &r;
          if (col != nullptr && col->column_idx >= 0 &&
              col->column_idx < static_cast<int>(ts.columns.size())) {
            int64_t ndv = ts.columns[static_cast<size_t>(col->column_idx)].num_distinct;
            if (ndv > 0) return 1.0 / static_cast<double>(ndv);
          }
          return 0.1;
        }
        case BinOp::kNe:
          return 0.9;
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe: {
          // Interpolate within [min,max] for col-vs-numeric-literal.
          const Expr* col = nullptr;
          const Expr* lit = nullptr;
          bool col_left = false;
          if (l.kind == ExprKind::kColumnRef && r.kind == ExprKind::kLiteral) {
            col = &l;
            lit = &r;
            col_left = true;
          } else if (r.kind == ExprKind::kColumnRef &&
                     l.kind == ExprKind::kLiteral) {
            col = &r;
            lit = &l;
          }
          if (col != nullptr && !lit->literal.is_null() &&
              lit->literal.type() != DataType::kString &&
              col->column_idx >= 0 &&
              col->column_idx < static_cast<int>(ts.columns.size())) {
            const ColumnStats& cs = ts.columns[static_cast<size_t>(col->column_idx)];
            if (cs.numeric && cs.max_val > cs.min_val) {
              double v = lit->literal.AsDouble();
              double frac = (v - cs.min_val) / (cs.max_val - cs.min_val);
              bool lower_side = (pred.bin_op == BinOp::kLt || pred.bin_op == BinOp::kLe);
              if (!col_left) lower_side = !lower_side;  // lit < col etc.
              double s = lower_side ? frac : 1.0 - frac;
              return Clamp01(s);
            }
          }
          return opts_.default_range_selectivity;
        }
        case BinOp::kLike:
          return opts_.default_like_selectivity;
        default:
          return opts_.default_range_selectivity;
      }
    }
    case ExprKind::kUnaryOp:
      switch (pred.un_op) {
        case UnOp::kNot:
          return Clamp01(1.0 - PredicateSelectivity(table, *pred.children[0]));
        case UnOp::kIsNull: {
          const Expr& c = *pred.children[0];
          if (c.kind == ExprKind::kColumnRef && ts.row_count > 0 &&
              c.column_idx < static_cast<int>(ts.columns.size())) {
            return static_cast<double>(
                       ts.columns[static_cast<size_t>(c.column_idx)].null_count) /
                   static_cast<double>(ts.row_count);
          }
          return 0.05;
        }
        case UnOp::kIsNotNull:
          return 0.95;
        default:
          return opts_.default_range_selectivity;
      }
    case ExprKind::kFunctionCall:
      // UDFs are opaque: the estimator has nothing better than a default.
      return opts_.default_udf_selectivity;
    default:
      return opts_.default_range_selectivity;
  }
}

double Estimator::FilteredCardinality(
    const Table& table, const std::vector<const Expr*>& preds) const {
  double card = static_cast<double>(table.num_rows());
  for (const Expr* p : preds) card *= PredicateSelectivity(table, *p);
  return std::max(card, 1.0);
}

double Estimator::JoinSelectivity(const BoundQuery& query,
                                  const PredInfo& pred) const {
  const Expr* e = pred.expr;
  if (e->kind == ExprKind::kBinaryOp && e->bin_op == BinOp::kEq &&
      e->children[0]->kind == ExprKind::kColumnRef &&
      e->children[1]->kind == ExprKind::kColumnRef) {
    const Expr& a = *e->children[0];
    const Expr& b = *e->children[1];
    const Table* ta = query.tables[static_cast<size_t>(a.table_idx)].table;
    const Table* tb = query.tables[static_cast<size_t>(b.table_idx)].table;
    int64_t ndv_a = stats_->Get(ta)->columns[static_cast<size_t>(a.column_idx)].num_distinct;
    int64_t ndv_b = stats_->Get(tb)->columns[static_cast<size_t>(b.column_idx)].num_distinct;
    int64_t ndv = std::max<int64_t>({ndv_a, ndv_b, 1});
    return 1.0 / static_cast<double>(ndv);
  }
  if (e->kind == ExprKind::kFunctionCall ||
      (e->kind == ExprKind::kUnaryOp &&
       e->children[0]->kind == ExprKind::kFunctionCall)) {
    return opts_.default_udf_selectivity;
  }
  return opts_.default_generic_join_selectivity;
}

double Estimator::JoinCardinality(TableSet set, const QueryInfo& info,
                                  const std::vector<double>& table_cards,
                                  const std::vector<double>& join_sels) {
  double card = 1.0;
  for (int t = 0; t < info.num_tables(); ++t) {
    if (Contains(set, t)) card *= table_cards[static_cast<size_t>(t)];
  }
  const auto& preds = info.join_preds();
  for (size_t i = 0; i < preds.size(); ++i) {
    if ((preds[i].tables & ~set) == 0) card *= join_sels[i];
  }
  return std::max(card, 1.0);
}

}  // namespace skinner
