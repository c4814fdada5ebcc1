#include "expr/filter_program.h"

#include <utility>

namespace skinner {

namespace {

bool IsComparison(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

/// `lit op col` as `col Flip(op) lit`. Exact under Value::Compare, whose
/// result is antisymmetric (NaN included: it compares 0 both ways).
BinOp Flip(BinOp op) {
  switch (op) {
    case BinOp::kLt: return BinOp::kGt;
    case BinOp::kLe: return BinOp::kGe;
    case BinOp::kGt: return BinOp::kLt;
    case BinOp::kGe: return BinOp::kLe;
    default: return op;
  }
}

/// True for a literal, or arithmetic and unary minus over such: a subtree
/// that reads no column and calls no UDF, so evaluating it once equals
/// evaluating it per row.
bool IsConstant(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kUnaryOp:
      return e.un_op == UnOp::kNeg && IsConstant(*e.children[0]);
    case ExprKind::kBinaryOp:
      switch (e.bin_op) {
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv:
        case BinOp::kMod:
          return IsConstant(*e.children[0]) && IsConstant(*e.children[1]);
        default:
          return false;
      }
    default:
      return false;
  }
}

bool CompareInts(BinOp op, int64_t a, int64_t b) {
  switch (op) {
    case BinOp::kEq: return a == b;
    case BinOp::kNe: return a != b;
    case BinOp::kLt: return a < b;
    case BinOp::kLe: return a <= b;
    case BinOp::kGt: return a > b;
    default: return a >= b;
  }
}

/// Value::Compare on doubles: an unordered pair (NaN) compares equal.
bool CompareDoubles(BinOp op, double a, double b) {
  const int c = a < b ? -1 : (a > b ? 1 : 0);
  switch (op) {
    case BinOp::kEq: return c == 0;
    case BinOp::kNe: return c != 0;
    case BinOp::kLt: return c < 0;
    case BinOp::kLe: return c <= 0;
    case BinOp::kGt: return c > 0;
    default: return c >= 0;
  }
}

}  // namespace

FilterProgram::FilterProgram(const std::vector<const Expr*>& conjuncts,
                             const Table& table, int table_idx)
    : table_(&table), table_idx_(table_idx) {
  roots_.reserve(conjuncts.size());
  for (const Expr* e : conjuncts) roots_.push_back(Compile(*e));
}

int32_t FilterProgram::Add(Node n) {
  nodes_.push_back(n);
  return static_cast<int32_t>(nodes_.size() - 1);
}

int32_t FilterProgram::Compile(const Expr& e) {
  Node n;
  n.expr = &e;
  if (e.kind == ExprKind::kBinaryOp &&
      (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr)) {
    n.kind = e.bin_op == BinOp::kAnd ? Kind::kAnd : Kind::kOr;
    n.lhs = Compile(*e.children[0]);
    n.rhs = Compile(*e.children[1]);
    return Add(n);
  }
  if (e.kind == ExprKind::kBinaryOp && IsComparison(e.bin_op)) {
    return CompileCompare(e);
  }
  if (e.kind == ExprKind::kUnaryOp && e.un_op == UnOp::kNot) {
    n.kind = Kind::kNot;
    n.lhs = Compile(*e.children[0]);
    return Add(n);
  }
  if (e.kind == ExprKind::kUnaryOp &&
      (e.un_op == UnOp::kIsNull || e.un_op == UnOp::kIsNotNull)) {
    const Expr& c = *e.children[0];
    if (c.kind == ExprKind::kColumnRef && c.table_idx == table_idx_) {
      const std::vector<uint8_t>& nulls =
          table_->column(c.column_idx).raw_nulls();
      n.kind = e.un_op == UnOp::kIsNull ? Kind::kIsNull : Kind::kIsNotNull;
      n.nulls = nulls.empty() ? nullptr : nulls.data();
      return Add(n);
    }
  }
  return Add(n);  // fallback
}

int32_t FilterProgram::CompileCompare(const Expr& e) {
  Node n;
  n.expr = &e;  // stays a fallback unless typed below
  const Expr* col = e.children[0].get();
  const Expr* lit = e.children[1].get();
  n.cmp = e.bin_op;
  if (col->kind != ExprKind::kColumnRef) {
    std::swap(col, lit);
    n.cmp = Flip(e.bin_op);
  }
  if (col->kind != ExprKind::kColumnRef || col->table_idx != table_idx_ ||
      !IsConstant(*lit)) {
    return Add(n);
  }
  const Value v = lit->kind == ExprKind::kLiteral
                      ? lit->literal
                      : EvalExpr(*lit, EvalContext{});
  if (v.is_null()) return Add(n);
  const Column& c = table_->column(col->column_idx);
  Node t = n;
  t.nulls = c.raw_nulls().empty() ? nullptr : c.raw_nulls().data();
  switch (c.type()) {
    case DataType::kInt64:
      if (v.type() == DataType::kString) return Add(n);
      t.ints = c.raw_ints().data();
      if (v.type() == DataType::kInt64) {
        t.kind = Kind::kCmpInt;
        t.ilit = v.AsInt();
      } else {
        t.kind = Kind::kCmpIntAsDbl;
        t.dlit = v.AsDouble();
      }
      return Add(t);
    case DataType::kDouble:
      if (v.type() == DataType::kString) return Add(n);
      t.kind = Kind::kCmpDbl;
      t.dbls = c.raw_doubles().data();
      t.dlit = v.AsDouble();
      return Add(t);
    case DataType::kString:
      // Equal strings share one pool id, so = and <> compare codes. String
      // ordering needs the strings: it falls back.
      if (lit->kind != ExprKind::kLiteral || v.type() != DataType::kString ||
          lit->literal_pool_id < 0 ||
          (t.cmp != BinOp::kEq && t.cmp != BinOp::kNe)) {
        return Add(n);
      }
      t.kind = Kind::kCmpInt;
      t.ints = c.raw_ints().data();
      t.ilit = lit->literal_pool_id;
      return Add(t);
  }
  return Add(n);
}

inline FilterProgram::Tri FilterProgram::Eval(int32_t node, int64_t row,
                                              const Frame& frame) const {
  const Node& n = nodes_[static_cast<size_t>(node)];
  const size_t r = static_cast<size_t>(row);
  switch (n.kind) {
    case Kind::kCmpInt:
      if (n.nulls != nullptr && n.nulls[r] != 0) return Tri::kNull;
      return CompareInts(n.cmp, n.ints[r], n.ilit) ? Tri::kTrue : Tri::kFalse;
    case Kind::kCmpIntAsDbl:
      if (n.nulls != nullptr && n.nulls[r] != 0) return Tri::kNull;
      return CompareDoubles(n.cmp, static_cast<double>(n.ints[r]), n.dlit)
                 ? Tri::kTrue
                 : Tri::kFalse;
    case Kind::kCmpDbl:
      if (n.nulls != nullptr && n.nulls[r] != 0) return Tri::kNull;
      return CompareDoubles(n.cmp, n.dbls[r], n.dlit) ? Tri::kTrue
                                                      : Tri::kFalse;
    case Kind::kIsNull:
      return n.nulls != nullptr && n.nulls[r] != 0 ? Tri::kTrue : Tri::kFalse;
    case Kind::kIsNotNull:
      return n.nulls != nullptr && n.nulls[r] != 0 ? Tri::kFalse : Tri::kTrue;
    default:
      return EvalComposite(n, row, frame);
  }
}

FilterProgram::Tri FilterProgram::EvalComposite(const Node& n, int64_t row,
                                                const Frame& frame) const {
  switch (n.kind) {
    case Kind::kAnd: {
      // EvalExpr's order: FALSE on the left skips the right side.
      const Tri l = Eval(n.lhs, row, frame);
      if (l == Tri::kFalse) return Tri::kFalse;
      const Tri r = Eval(n.rhs, row, frame);
      if (r == Tri::kFalse) return Tri::kFalse;
      return l == Tri::kNull || r == Tri::kNull ? Tri::kNull : Tri::kTrue;
    }
    case Kind::kOr: {
      const Tri l = Eval(n.lhs, row, frame);
      if (l == Tri::kTrue) return Tri::kTrue;
      const Tri r = Eval(n.rhs, row, frame);
      if (r == Tri::kTrue) return Tri::kTrue;
      return l == Tri::kNull || r == Tri::kNull ? Tri::kNull : Tri::kFalse;
    }
    case Kind::kNot: {
      const Tri c = Eval(n.lhs, row, frame);
      if (c == Tri::kNull) return Tri::kNull;
      return c == Tri::kTrue ? Tri::kFalse : Tri::kTrue;
    }
    default: {  // kFallback
      *frame.row = row;
      const Value v = EvalExpr(*n.expr, frame.ctx);
      if (v.is_null()) return Tri::kNull;
      return v.IsTrue() ? Tri::kTrue : Tri::kFalse;
    }
  }
}

void FilterProgram::Filter(int64_t begin, int64_t end,
                           const std::vector<const Table*>& tables,
                           const StringPool* pool, VirtualClock* clock,
                           std::vector<int32_t>* out) const {
  // Fallback nodes read this table's row through an EvalContext binding;
  // the other tables' slots are never referenced by a unary conjunct.
  std::vector<int64_t> binding(tables.size(), 0);
  Frame frame;
  frame.ctx.tables = &tables;
  frame.ctx.pool = pool;
  frame.ctx.rows = binding.data();
  frame.ctx.clock = clock;
  frame.row = binding.data() + table_idx_;
  // Deleted rows are dropped in the same pass, before any conjunct runs,
  // so they cost one row visit and no predicate work.
  const bool masked = table_->has_deletes();
  for (int64_t r = begin; r < end; ++r) {
    if (masked && !table_->IsRowValid(r)) continue;
    bool pass = true;
    for (const int32_t root : roots_) {
      if (Eval(root, r, frame) != Tri::kTrue) {
        pass = false;
        break;
      }
    }
    if (pass) out->push_back(static_cast<int32_t>(r));
  }
}

size_t FilterProgram::num_fallbacks() const {
  size_t n = 0;
  for (const Node& node : nodes_) n += node.kind == Kind::kFallback;
  return n;
}

}  // namespace skinner
