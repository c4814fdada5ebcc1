#include "expr/eval.h"

#include <gtest/gtest.h>

#include "expr/udf.h"

namespace skinner {
namespace {

std::unique_ptr<Expr> Lit(Value v) { return Expr::MakeLiteral(std::move(v)); }
std::unique_ptr<Expr> Bin(BinOp op, std::unique_ptr<Expr> l,
                          std::unique_ptr<Expr> r) {
  return Expr::MakeBinary(op, std::move(l), std::move(r));
}

Value Eval(const Expr& e) {
  EvalContext ctx;
  return EvalExpr(e, ctx);
}

TEST(EvalTest, Arithmetic) {
  EXPECT_EQ(Eval(*Bin(BinOp::kAdd, Lit(Value::Int(2)), Lit(Value::Int(3)))).AsInt(), 5);
  EXPECT_EQ(Eval(*Bin(BinOp::kSub, Lit(Value::Int(2)), Lit(Value::Int(3)))).AsInt(), -1);
  EXPECT_EQ(Eval(*Bin(BinOp::kMul, Lit(Value::Int(4)), Lit(Value::Int(3)))).AsInt(), 12);
  EXPECT_EQ(Eval(*Bin(BinOp::kDiv, Lit(Value::Int(7)), Lit(Value::Int(2)))).AsInt(), 3);
  EXPECT_EQ(Eval(*Bin(BinOp::kMod, Lit(Value::Int(7)), Lit(Value::Int(2)))).AsInt(), 1);
}

TEST(EvalTest, MixedTypePromotion) {
  Value v = Eval(*Bin(BinOp::kAdd, Lit(Value::Int(1)), Lit(Value::Double(0.5))));
  EXPECT_EQ(v.type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 1.5);
}

TEST(EvalTest, DivisionByZeroIsNull) {
  EXPECT_TRUE(Eval(*Bin(BinOp::kDiv, Lit(Value::Int(1)), Lit(Value::Int(0)))).is_null());
  EXPECT_TRUE(Eval(*Bin(BinOp::kMod, Lit(Value::Int(1)), Lit(Value::Int(0)))).is_null());
}

// Checked int64 arithmetic: a result outside int64 is NULL (like a
// division by zero), never a wrap or a SIGFPE. INT64_MIN % -1 is 0.
TEST(EvalTest, Int64OverflowIsNull) {
  auto arith = [](BinOp op, int64_t a, int64_t b) {
    return Eval(*Bin(op, Lit(Value::Int(a)), Lit(Value::Int(b))));
  };
  EXPECT_TRUE(arith(BinOp::kAdd, INT64_MAX, 1).is_null());
  EXPECT_TRUE(arith(BinOp::kAdd, INT64_MIN, -1).is_null());
  EXPECT_EQ(arith(BinOp::kAdd, INT64_MAX, INT64_MIN).AsInt(), -1);
  EXPECT_TRUE(arith(BinOp::kSub, INT64_MIN, 1).is_null());
  EXPECT_TRUE(arith(BinOp::kSub, INT64_MAX, -1).is_null());
  EXPECT_TRUE(arith(BinOp::kSub, 0, INT64_MIN).is_null());
  EXPECT_EQ(arith(BinOp::kSub, -1, INT64_MAX).AsInt(), INT64_MIN);
  EXPECT_TRUE(arith(BinOp::kMul, INT64_MAX, 2).is_null());
  EXPECT_TRUE(arith(BinOp::kMul, INT64_MIN, -1).is_null());
  EXPECT_TRUE(arith(BinOp::kMul, int64_t{1} << 32, int64_t{1} << 31).is_null());
  EXPECT_EQ(arith(BinOp::kMul, INT64_MIN, 1).AsInt(), INT64_MIN);
  EXPECT_TRUE(arith(BinOp::kDiv, INT64_MIN, -1).is_null());
  EXPECT_EQ(arith(BinOp::kDiv, INT64_MIN, 1).AsInt(), INT64_MIN);
  EXPECT_EQ(arith(BinOp::kDiv, INT64_MAX, -1).AsInt(), -INT64_MAX);
  EXPECT_EQ(arith(BinOp::kMod, INT64_MIN, -1).AsInt(), 0);
  EXPECT_EQ(arith(BinOp::kMod, INT64_MAX, -1).AsInt(), 0);
  EXPECT_EQ(arith(BinOp::kMod, INT64_MIN, INT64_MAX).AsInt(), -1);
  EXPECT_TRUE(
      Eval(*Expr::MakeUnary(UnOp::kNeg, Lit(Value::Int(INT64_MIN)))).is_null());
  EXPECT_EQ(Eval(*Expr::MakeUnary(UnOp::kNeg, Lit(Value::Int(INT64_MAX))))
                .AsInt(),
            -INT64_MAX);
  // A NULL from an overflow propagates like any NULL: the comparison above
  // it is NULL, so a WHERE clause drops the row.
  EXPECT_TRUE(Eval(*Bin(BinOp::kGt,
                        Bin(BinOp::kDiv, Lit(Value::Int(INT64_MIN)),
                            Lit(Value::Int(-1))),
                        Lit(Value::Int(0))))
                  .is_null());
}

TEST(EvalTest, Comparisons) {
  EXPECT_TRUE(Eval(*Bin(BinOp::kLt, Lit(Value::Int(1)), Lit(Value::Int(2)))).IsTrue());
  EXPECT_FALSE(Eval(*Bin(BinOp::kGt, Lit(Value::Int(1)), Lit(Value::Int(2)))).IsTrue());
  EXPECT_TRUE(Eval(*Bin(BinOp::kNe, Lit(Value::String("a")), Lit(Value::String("b")))).IsTrue());
  EXPECT_TRUE(Eval(*Bin(BinOp::kGe, Lit(Value::Int(2)), Lit(Value::Int(2)))).IsTrue());
}

TEST(EvalTest, NullPropagatesThroughComparison) {
  EXPECT_TRUE(Eval(*Bin(BinOp::kEq, Lit(Value::Null()), Lit(Value::Int(1)))).is_null());
  EXPECT_TRUE(Eval(*Bin(BinOp::kEq, Lit(Value::Null()), Lit(Value::Null()))).is_null());
}

TEST(EvalTest, ThreeValuedAnd) {
  // NULL AND FALSE = FALSE (not NULL).
  Value v = Eval(*Bin(BinOp::kAnd, Lit(Value::Null()), Lit(Value::Bool(false))));
  EXPECT_FALSE(v.is_null());
  EXPECT_FALSE(v.IsTrue());
  // NULL AND TRUE = NULL.
  EXPECT_TRUE(Eval(*Bin(BinOp::kAnd, Lit(Value::Null()), Lit(Value::Bool(true)))).is_null());
}

TEST(EvalTest, ThreeValuedOr) {
  // NULL OR TRUE = TRUE.
  Value v = Eval(*Bin(BinOp::kOr, Lit(Value::Null()), Lit(Value::Bool(true))));
  EXPECT_TRUE(v.IsTrue());
  // NULL OR FALSE = NULL.
  EXPECT_TRUE(Eval(*Bin(BinOp::kOr, Lit(Value::Null()), Lit(Value::Bool(false)))).is_null());
}

TEST(EvalTest, NotAndIsNull) {
  EXPECT_FALSE(Eval(*Expr::MakeUnary(UnOp::kNot, Lit(Value::Bool(true)))).IsTrue());
  EXPECT_TRUE(Eval(*Expr::MakeUnary(UnOp::kNot, Lit(Value::Null()))).is_null());
  EXPECT_TRUE(Eval(*Expr::MakeUnary(UnOp::kIsNull, Lit(Value::Null()))).IsTrue());
  EXPECT_FALSE(Eval(*Expr::MakeUnary(UnOp::kIsNull, Lit(Value::Int(1)))).IsTrue());
  EXPECT_TRUE(Eval(*Expr::MakeUnary(UnOp::kIsNotNull, Lit(Value::Int(1)))).IsTrue());
}

TEST(EvalTest, Negation) {
  EXPECT_EQ(Eval(*Expr::MakeUnary(UnOp::kNeg, Lit(Value::Int(5)))).AsInt(), -5);
  EXPECT_DOUBLE_EQ(Eval(*Expr::MakeUnary(UnOp::kNeg, Lit(Value::Double(1.5)))).AsDouble(), -1.5);
}

TEST(EvalTest, LikeOperator) {
  EXPECT_TRUE(Eval(*Bin(BinOp::kLike, Lit(Value::String("hello")),
                        Lit(Value::String("h%o")))).IsTrue());
  EXPECT_TRUE(Eval(*Bin(BinOp::kLike, Lit(Value::Null()),
                        Lit(Value::String("%")))).is_null());
}

TEST(EvalTest, ColumnRefReadsBoundRow) {
  StringPool pool;
  Table t("t", Schema({{"a", DataType::kInt64}}), &pool);
  ASSERT_TRUE(t.AppendRow({Value::Int(10)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Int(20)}).ok());
  std::vector<const Table*> tables{&t};
  int64_t rows[1] = {1};
  EvalContext ctx;
  ctx.tables = &tables;
  ctx.pool = &pool;
  ctx.rows = rows;
  auto col = Expr::MakeColumn("t", "a");
  col->table_idx = 0;
  col->column_idx = 0;
  EXPECT_EQ(EvalExpr(*col, ctx).AsInt(), 20);
  rows[0] = 0;
  EXPECT_EQ(EvalExpr(*col, ctx).AsInt(), 10);
}

TEST(EvalTest, UdfCallTicksClockByCost) {
  Udf udf("expensive", 1, DataType::kInt64,
          [](const std::vector<Value>& args) {
            return Value::Int(args[0].AsInt() * 2);
          },
          /*cost_units=*/5);
  auto call = Expr::MakeFunc("expensive", {});
  call->children.push_back(Lit(Value::Int(21)));
  call->udf = &udf;
  VirtualClock clock;
  EvalContext ctx;
  ctx.clock = &clock;
  EXPECT_EQ(EvalExpr(*call, ctx).AsInt(), 42);
  EXPECT_EQ(clock.now(), 5u);
}

TEST(EvalTest, ExprToStringAndClone) {
  auto e = Bin(BinOp::kAnd,
               Bin(BinOp::kEq, Expr::MakeColumn("t", "a"), Lit(Value::Int(1))),
               Expr::MakeUnary(UnOp::kNot, Expr::MakeColumn("", "b")));
  EXPECT_EQ(e->ToString(), "((t.a = 1) AND (NOT b))");
  auto clone = e->Clone();
  EXPECT_EQ(clone->ToString(), e->ToString());
  EXPECT_NE(clone.get(), e.get());
}

TEST(EvalTest, CollectTablesAndSplitConjuncts) {
  auto a = Expr::MakeColumn("x", "a");
  a->table_idx = 0;
  auto b = Expr::MakeColumn("y", "b");
  b->table_idx = 2;
  auto e = Bin(BinOp::kAnd, Bin(BinOp::kEq, std::move(a), std::move(b)),
               Lit(Value::Bool(true)));
  std::set<int> tables;
  e->CollectTables(&tables);
  EXPECT_EQ(tables, (std::set<int>{0, 2}));
  std::vector<Expr*> conjuncts;
  SplitConjuncts(e.get(), &conjuncts);
  EXPECT_EQ(conjuncts.size(), 2u);
}

}  // namespace
}  // namespace skinner
