// The compiled filter program (expr/filter_program.h) against the
// interpreter it replaces: random conjunct trees over int64, double and
// string columns with NULLs and deleted rows, checked row by row against
// EvalPredicate — including the virtual-clock ticks of UDF fallbacks.

#include "expr/filter_program.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "expr/udf.h"

namespace skinner {
namespace {

constexpr int kInt = 0;   // INT with NULLs, small values
constexpr int kBig = 1;   // INT around +-2^53 and the int64 bounds
constexpr int kDbl = 2;   // DOUBLE with NULLs, -0.0, NaN, infinities
constexpr int kStr = 3;   // STRING with NULLs
constexpr int kInt2 = 4;  // INT without NULLs (column-vs-column partner)
constexpr int64_t kTwo53 = int64_t{1} << 53;

class FilterProgramTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(
        "t",
        Schema({{"i", DataType::kInt64},
                {"big", DataType::kInt64},
                {"d", DataType::kDouble},
                {"s", DataType::kString},
                {"i2", DataType::kInt64}}),
        &pool_);
    for (const char* s : {"a", "b", "ab", "ba", "abc", ""}) {
      strings_.push_back(s);
    }
    Rng rng(5);
    for (int r = 0; r < 400; ++r) {
      std::vector<Value> row;
      row.push_back(rng.Uniform(8) == 0
                        ? Value::Null()
                        : Value::Int(static_cast<int64_t>(rng.Uniform(21)) -
                                     10));
      row.push_back(Value::Int(BigValue(&rng)));
      row.push_back(rng.Uniform(8) == 0 ? Value::Null()
                                        : Value::Double(DoubleValue(&rng)));
      const std::string& s = strings_[rng.Uniform(strings_.size())];
      row.push_back(rng.Uniform(8) == 0 ? Value::Null() : Value::String(s));
      row.push_back(Value::Int(static_cast<int64_t>(rng.Uniform(21)) - 10));
      ASSERT_TRUE(table_->AppendRow(row).ok());
    }
    tables_ = {table_.get()};
    udf_ = std::make_unique<Udf>(
        "odd", 1, DataType::kInt64,
        [this](const std::vector<Value>& args) {
          ++udf_calls_;
          if (args[0].is_null()) return Value::Null();
          return Value::Int(args[0].AsInt() & 1);
        },
        /*cost_units=*/3);
  }

  static int64_t BigValue(Rng* rng) {
    const int64_t picks[] = {kTwo53,      kTwo53 + 1, kTwo53 - 1, -kTwo53,
                             -kTwo53 - 1, INT64_MAX,  INT64_MIN,  0,
                             1,           -1};
    return picks[rng->Uniform(sizeof(picks) / sizeof(picks[0]))];
  }

  static double DoubleValue(Rng* rng) {
    const double picks[] = {-0.0,
                            0.0,
                            0.5,
                            -2.5,
                            3.0,
                            -3.0,
                            std::nan(""),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            static_cast<double>(kTwo53),
                            1e300};
    return picks[rng->Uniform(sizeof(picks) / sizeof(picks[0]))];
  }

  std::unique_ptr<Expr> Col(int c) {
    static const char* kNames[] = {"i", "big", "d", "s", "i2"};
    auto e = Expr::MakeColumn("t", kNames[c]);
    e->table_idx = 0;
    e->column_idx = c;
    e->out_type = table_->schema().column(c).type;
    return e;
  }

  std::unique_ptr<Expr> Lit(Value v) {
    auto e = Expr::MakeLiteral(v);
    if (!v.is_null()) e->out_type = v.type();
    if (!v.is_null() && v.type() == DataType::kString) {
      e->literal_pool_id = pool_.Intern(v.AsString());
    }
    return e;
  }

  /// A literal comparable with column `c`: ints, doubles (NaN, -0.0,
  /// beyond 2^53), strings — some of them in no row — or NULL.
  std::unique_ptr<Expr> LitFor(int c, Rng* rng) {
    if (rng->Uniform(25) == 0) return Lit(Value::Null());
    if (c == kStr) {
      const char* extra[] = {"zzz", "a%", "b_"};
      return Lit(Value::String(rng->Uniform(4) == 0
                                   ? extra[rng->Uniform(3)]
                                   : strings_[rng->Uniform(strings_.size())]));
    }
    if (c == kBig) {
      if (rng->Uniform(2) == 0) return Lit(Value::Int(BigValue(rng)));
      return Lit(Value::Double(rng->Uniform(2) == 0
                                   ? static_cast<double>(kTwo53)
                                   : DoubleValue(rng)));
    }
    switch (rng->Uniform(4)) {
      case 0:
        return Lit(Value::Double(DoubleValue(rng)));
      case 1:  // a negative literal parses as unary minus: folded
        return Expr::MakeUnary(
            UnOp::kNeg, Lit(Value::Int(static_cast<int64_t>(rng->Uniform(6)))));
      case 2:
        return Lit(Value::Double(static_cast<double>(rng->Uniform(11)) - 5.0));
      default:
        return Lit(Value::Int(static_cast<int64_t>(rng->Uniform(21)) - 10));
    }
  }

  static BinOp RandomCmp(Rng* rng) {
    const BinOp ops[] = {BinOp::kEq, BinOp::kNe, BinOp::kLt,
                         BinOp::kLe, BinOp::kGt, BinOp::kGe};
    return ops[rng->Uniform(6)];
  }

  /// A random predicate of depth <= `depth`.
  std::unique_ptr<Expr> RandomPred(Rng* rng, int depth) {
    const uint64_t pick = depth <= 0 ? rng->Uniform(9) : rng->Uniform(14);
    const int c = static_cast<int>(rng->Uniform(4));  // kInt..kStr
    switch (pick) {
      case 0:
      case 1:
      case 2: {  // column vs literal, either side
        BinOp op = c == kStr && rng->Uniform(3) != 0
                       ? (rng->Uniform(2) ? BinOp::kEq : BinOp::kNe)
                       : RandomCmp(rng);
        if (rng->Uniform(2) == 0) {
          return Expr::MakeBinary(op, Col(c), LitFor(c, rng));
        }
        return Expr::MakeBinary(op, LitFor(c, rng), Col(c));
      }
      case 3: {  // IN list: the parser's OR chain of equalities
        std::unique_ptr<Expr> disj;
        const int n = 1 + static_cast<int>(rng->Uniform(4));
        for (int k = 0; k < n; ++k) {
          auto eq = Expr::MakeBinary(BinOp::kEq, Col(c), LitFor(c, rng));
          disj = disj ? Expr::MakeBinary(BinOp::kOr, std::move(disj),
                                         std::move(eq))
                      : std::move(eq);
        }
        if (rng->Uniform(3) == 0) {
          disj = Expr::MakeUnary(UnOp::kNot, std::move(disj));
        }
        return disj;
      }
      case 4: {  // BETWEEN: the parser's AND of >= and <=
        const int nc = c == kStr ? kInt : c;
        auto e = Expr::MakeBinary(
            BinOp::kAnd,
            Expr::MakeBinary(BinOp::kGe, Col(nc), LitFor(nc, rng)),
            Expr::MakeBinary(BinOp::kLe, Col(nc), LitFor(nc, rng)));
        if (rng->Uniform(2) == 0) e = Expr::MakeUnary(UnOp::kNot, std::move(e));
        return e;
      }
      case 5:
        return Expr::MakeUnary(
            rng->Uniform(2) ? UnOp::kIsNull : UnOp::kIsNotNull, Col(c));
      case 6: {  // fallback: UDF compared with a literal
        auto call = Expr::MakeFunc("odd", {});
        call->children.push_back(Col(rng->Uniform(2) ? kInt : kInt2));
        call->udf = udf_.get();
        return Expr::MakeBinary(BinOp::kEq, std::move(call),
                                Lit(Value::Int(1)));
      }
      case 7: {  // fallback: string ordering or LIKE
        if (rng->Uniform(2) == 0) {
          return Expr::MakeBinary(RandomCmp(rng) == BinOp::kEq ? BinOp::kLt
                                                               : BinOp::kGe,
                                  Col(kStr), LitFor(kStr, rng));
        }
        return Expr::MakeBinary(BinOp::kLike, Col(kStr),
                                Lit(Value::String(rng->Uniform(2) ? "a%"
                                                                  : "%b_")));
      }
      case 8: {  // fallback: column vs column, or arithmetic over a column
        if (rng->Uniform(2) == 0) {
          return Expr::MakeBinary(RandomCmp(rng), Col(kInt), Col(kInt2));
        }
        return Expr::MakeBinary(
            RandomCmp(rng),
            Expr::MakeBinary(BinOp::kAdd, Col(kInt), Lit(Value::Int(3))),
            Lit(Value::Int(2)));
      }
      case 9:
      case 10:
        return Expr::MakeBinary(BinOp::kAnd, RandomPred(rng, depth - 1),
                                RandomPred(rng, depth - 1));
      case 11:
      case 12:
        return Expr::MakeBinary(BinOp::kOr, RandomPred(rng, depth - 1),
                                RandomPred(rng, depth - 1));
      default:
        return Expr::MakeUnary(UnOp::kNot, RandomPred(rng, depth - 1));
    }
  }

  /// EvalPredicate over every live row, conjunct by conjunct with the
  /// scan's early exit; `clock` receives the UDF ticks.
  std::vector<int32_t> Reference(const std::vector<const Expr*>& conjuncts,
                                 VirtualClock* clock) {
    std::vector<int32_t> out;
    int64_t row = 0;
    EvalContext ctx;
    ctx.tables = &tables_;
    ctx.pool = &pool_;
    ctx.rows = &row;
    ctx.clock = clock;
    for (row = 0; row < table_->num_rows(); ++row) {
      if (!table_->IsRowValid(row)) continue;
      bool pass = true;
      for (const Expr* e : conjuncts) {
        if (!EvalPredicate(*e, ctx)) {
          pass = false;
          break;
        }
      }
      if (pass) out.push_back(static_cast<int32_t>(row));
    }
    return out;
  }

  /// Runs the program over the table in morsels of `morsel` rows.
  std::vector<int32_t> Compiled(const FilterProgram& program, int64_t morsel,
                                VirtualClock* clock) {
    std::vector<int32_t> out;
    for (int64_t b = 0; b < table_->num_rows(); b += morsel) {
      program.Filter(b, std::min(table_->num_rows(), b + morsel), tables_,
                     &pool_, clock, &out);
    }
    return out;
  }

  /// Checks `iterations` random conjunct lists, each at two morsel sizes.
  void CheckRandomPrograms(uint64_t seed, int iterations) {
    Rng rng(seed);
    size_t compiled_only = 0;
    size_t with_fallback = 0;
    for (int it = 0; it < iterations; ++it) {
      std::vector<std::unique_ptr<Expr>> owned;
      std::vector<const Expr*> conjuncts;
      const int n = 1 + static_cast<int>(rng.Uniform(3));
      for (int k = 0; k < n; ++k) {
        owned.push_back(RandomPred(&rng, 3));
        conjuncts.push_back(owned.back().get());
      }
      std::string text;
      for (const Expr* e : conjuncts) text += e->ToString() + " AND ";
      SCOPED_TRACE(text);

      VirtualClock ref_clock;
      udf_calls_ = 0;
      const std::vector<int32_t> expect = Reference(conjuncts, &ref_clock);
      const uint64_t ref_calls = udf_calls_;

      const FilterProgram program(conjuncts, *table_, 0);
      (program.num_fallbacks() == 0 ? compiled_only : with_fallback)++;
      for (int64_t morsel : {int64_t{1} << 20, int64_t{37}}) {
        VirtualClock clock;
        udf_calls_ = 0;
        EXPECT_EQ(Compiled(program, morsel, &clock), expect);
        EXPECT_EQ(clock.now(), ref_clock.now());
        EXPECT_EQ(udf_calls_, ref_calls);
      }
    }
    // Both regimes must actually be exercised.
    EXPECT_GT(compiled_only, static_cast<size_t>(iterations) / 10);
    EXPECT_GT(with_fallback, static_cast<size_t>(iterations) / 10);
  }

  StringPool pool_;
  std::unique_ptr<Table> table_;
  std::vector<const Table*> tables_;
  std::vector<std::string> strings_;
  std::unique_ptr<Udf> udf_;
  uint64_t udf_calls_ = 0;
};

TEST_F(FilterProgramTest, RandomConjunctsMatchEvalPredicate) {
  CheckRandomPrograms(/*seed=*/1, /*iterations=*/400);
}

TEST_F(FilterProgramTest, RandomConjunctsMatchWithDeletedRows) {
  Rng rng(9);
  for (int64_t r = 0; r < table_->num_rows(); ++r) {
    if (rng.Uniform(4) == 0) table_->DeleteRow(r);
  }
  ASSERT_TRUE(table_->has_deletes());
  CheckRandomPrograms(/*seed=*/2, /*iterations=*/400);
}

// Pinned cases of Value::Compare's semantics that a typed compare could
// get wrong: int-vs-double promotion beyond 2^53, NaN equal to all,
// -0.0 == 0.0, and a string literal absent from the column.
TEST_F(FilterProgramTest, CompareSemanticsEdgeCases) {
  struct Case {
    std::unique_ptr<Expr> pred;
    bool fully_compiled;
  };
  std::vector<Case> cases;
  const double two53 = static_cast<double>(kTwo53);
  cases.push_back(
      {Expr::MakeBinary(BinOp::kEq, Col(kBig), Lit(Value::Double(two53))),
       true});
  cases.push_back(
      {Expr::MakeBinary(BinOp::kLt, Lit(Value::Int(kTwo53)), Col(kBig)), true});
  cases.push_back(
      {Expr::MakeBinary(BinOp::kEq, Col(kDbl),
                        Lit(Value::Double(std::nan("")))),
       true});
  cases.push_back(
      {Expr::MakeBinary(BinOp::kGt, Col(kDbl), Lit(Value::Double(-0.0))),
       true});
  cases.push_back(
      {Expr::MakeBinary(BinOp::kNe, Col(kStr), Lit(Value::String("zzz"))),
       true});
  cases.push_back(
      {Expr::MakeBinary(BinOp::kGe, Col(kInt),
                        Expr::MakeUnary(UnOp::kNeg, Lit(Value::Int(3)))),
       true});
  cases.push_back(
      {Expr::MakeBinary(BinOp::kEq, Col(kInt), Lit(Value::Null())), false});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.pred->ToString());
    const std::vector<const Expr*> conjuncts = {c.pred.get()};
    VirtualClock ref_clock;
    const std::vector<int32_t> expect = Reference(conjuncts, &ref_clock);
    const FilterProgram program(conjuncts, *table_, 0);
    EXPECT_EQ(program.num_fallbacks() == 0, c.fully_compiled);
    VirtualClock clock;
    EXPECT_EQ(Compiled(program, int64_t{1} << 20, &clock), expect);
  }
}

}  // namespace
}  // namespace skinner
