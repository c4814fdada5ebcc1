#include "expr/eval.h"

#include <cassert>
#include <cmath>
#include <cstdint>

#include "common/str_util.h"
#include "expr/udf.h"

namespace skinner {

namespace {

Value EvalComparison(BinOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  int c = l.Compare(r);
  switch (op) {
    case BinOp::kEq: return Value::Bool(c == 0);
    case BinOp::kNe: return Value::Bool(c != 0);
    case BinOp::kLt: return Value::Bool(c < 0);
    case BinOp::kLe: return Value::Bool(c <= 0);
    case BinOp::kGt: return Value::Bool(c > 0);
    case BinOp::kGe: return Value::Bool(c >= 0);
    default: break;
  }
  return Value::Null();
}

Value EvalArithmetic(BinOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  bool both_int =
      l.type() == DataType::kInt64 && r.type() == DataType::kInt64;
  if (both_int) {
    // Checked int64 math: an overflowing result is NULL, like a division
    // by zero. INT64_MIN / -1 overflows (and traps on x86); its remainder
    // is well defined as 0, but the hardware division would trap too.
    int64_t a = l.AsInt();
    int64_t b = r.AsInt();
    int64_t out = 0;
    switch (op) {
      case BinOp::kAdd:
        return __builtin_add_overflow(a, b, &out) ? Value::Null()
                                                  : Value::Int(out);
      case BinOp::kSub:
        return __builtin_sub_overflow(a, b, &out) ? Value::Null()
                                                  : Value::Int(out);
      case BinOp::kMul:
        return __builtin_mul_overflow(a, b, &out) ? Value::Null()
                                                  : Value::Int(out);
      case BinOp::kDiv:
        if (b == 0 || (a == INT64_MIN && b == -1)) return Value::Null();
        return Value::Int(a / b);
      case BinOp::kMod:
        if (b == 0) return Value::Null();
        return Value::Int(b == -1 ? 0 : a % b);
      default: break;
    }
    return Value::Null();
  }
  double a = l.AsDouble();
  double b = r.AsDouble();
  switch (op) {
    case BinOp::kAdd: return Value::Double(a + b);
    case BinOp::kSub: return Value::Double(a - b);
    case BinOp::kMul: return Value::Double(a * b);
    case BinOp::kDiv: return b == 0 ? Value::Null() : Value::Double(a / b);
    case BinOp::kMod:
      return b == 0 ? Value::Null() : Value::Double(std::fmod(a, b));
    default: break;
  }
  return Value::Null();
}

}  // namespace

Value EvalExpr(const Expr& e, const EvalContext& ctx) {
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      assert(e.table_idx >= 0 && "expression must be bound");
      const Table* t = (*ctx.tables)[static_cast<size_t>(e.table_idx)];
      int64_t row = ctx.rows[e.table_idx];
      return t->column(e.column_idx).GetValue(row, *ctx.pool);
    }
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kParam:
      // Parameters are substituted with literals before anything executes
      // (PreparedStatement::Execute); the pipeline rejects parameterized
      // queries on every other path.
      assert(false && "unsubstituted ? parameter reached the evaluator");
      return Value::Null();
    case ExprKind::kBinaryOp: {
      switch (e.bin_op) {
        case BinOp::kAnd: {
          // SQL three-valued AND: false dominates NULL.
          Value l = EvalExpr(*e.children[0], ctx);
          if (!l.is_null() && !l.IsTrue()) return Value::Bool(false);
          Value r = EvalExpr(*e.children[1], ctx);
          if (!r.is_null() && !r.IsTrue()) return Value::Bool(false);
          if (l.is_null() || r.is_null()) return Value::Null();
          return Value::Bool(true);
        }
        case BinOp::kOr: {
          Value l = EvalExpr(*e.children[0], ctx);
          if (!l.is_null() && l.IsTrue()) return Value::Bool(true);
          Value r = EvalExpr(*e.children[1], ctx);
          if (!r.is_null() && r.IsTrue()) return Value::Bool(true);
          if (l.is_null() || r.is_null()) return Value::Null();
          return Value::Bool(false);
        }
        case BinOp::kLike: {
          Value l = EvalExpr(*e.children[0], ctx);
          Value r = EvalExpr(*e.children[1], ctx);
          if (l.is_null() || r.is_null()) return Value::Null();
          return Value::Bool(LikeMatch(l.AsString(), r.AsString()));
        }
        case BinOp::kEq:
        case BinOp::kNe:
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe:
          return EvalComparison(e.bin_op, EvalExpr(*e.children[0], ctx),
                                EvalExpr(*e.children[1], ctx));
        default:
          return EvalArithmetic(e.bin_op, EvalExpr(*e.children[0], ctx),
                                EvalExpr(*e.children[1], ctx));
      }
    }
    case ExprKind::kUnaryOp: {
      Value c = EvalExpr(*e.children[0], ctx);
      switch (e.un_op) {
        case UnOp::kNot:
          if (c.is_null()) return Value::Null();
          return Value::Bool(!c.IsTrue());
        case UnOp::kNeg:
          if (c.is_null()) return Value::Null();
          if (c.type() == DataType::kDouble) return Value::Double(-c.AsDouble());
          // -INT64_MIN overflows: NULL, as in EvalArithmetic.
          if (c.AsInt() == INT64_MIN) return Value::Null();
          return Value::Int(-c.AsInt());
        case UnOp::kIsNull:
          return Value::Bool(c.is_null());
        case UnOp::kIsNotNull:
          return Value::Bool(!c.is_null());
      }
      return Value::Null();
    }
    case ExprKind::kFunctionCall: {
      assert(e.udf != nullptr && "function must be bound");
      std::vector<Value> args;
      args.reserve(e.children.size());
      for (const auto& c : e.children) args.push_back(EvalExpr(*c, ctx));
      if (ctx.clock != nullptr) {
        ctx.clock->Tick(static_cast<uint64_t>(e.udf->cost_units()));
      }
      return e.udf->Call(args);
    }
    case ExprKind::kAggregate:
      assert(false && "aggregates are evaluated by the post-processor");
      return Value::Null();
  }
  return Value::Null();
}

}  // namespace skinner
