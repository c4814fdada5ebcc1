#ifndef SKINNER_EXPR_EXPR_H_
#define SKINNER_EXPR_EXPR_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "storage/value.h"

namespace skinner {

class Udf;

enum class ExprKind {
  kColumnRef,
  kLiteral,
  kParam,  // `?` placeholder of a parameterized query template
  kBinaryOp,
  kUnaryOp,
  kFunctionCall,
  kAggregate,
};

enum class BinOp {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kAdd, kSub, kMul, kDiv, kMod,
  kLike,
};

enum class UnOp { kNot, kNeg, kIsNull, kIsNotNull };

enum class AggKind { kCountStar, kCount, kSum, kMin, kMax, kAvg };

/// One node of an expression tree. A single tagged struct (rather than a
/// class hierarchy) keeps the parser, binder and interpreter compact; only
/// the fields matching `kind` are meaningful.
struct Expr {
  ExprKind kind;

  // -- kColumnRef ------------------------------------------------------
  std::string table_name;   // alias as written; may be empty
  std::string column_name;  // as written
  int table_idx = -1;       // bound: index into the query's FROM list
  int column_idx = -1;      // bound: column within that table

  // -- kLiteral --------------------------------------------------------
  Value literal;
  // Bound string literals: id in StringPool, or -1 when absent from it.
  int32_t literal_pool_id = -1;

  // -- kParam ----------------------------------------------------------
  int param_idx = -1;  // 0-based ordinal in SQL-text order

  // -- kBinaryOp / kUnaryOp ---------------------------------------------
  BinOp bin_op = BinOp::kEq;
  UnOp un_op = UnOp::kNot;

  // -- kFunctionCall ----------------------------------------------------
  std::string func_name;
  const Udf* udf = nullptr;  // bound

  // -- kAggregate -------------------------------------------------------
  AggKind agg = AggKind::kCountStar;

  // Children: operands / function args / aggregate input.
  std::vector<std::unique_ptr<Expr>> children;

  // Set by the binder.
  DataType out_type = DataType::kInt64;

  // -- construction helpers ---------------------------------------------
  static std::unique_ptr<Expr> MakeColumn(std::string table, std::string col);
  static std::unique_ptr<Expr> MakeLiteral(Value v);
  static std::unique_ptr<Expr> MakeParam(int idx);
  static std::unique_ptr<Expr> MakeBinary(BinOp op, std::unique_ptr<Expr> l,
                                          std::unique_ptr<Expr> r);
  static std::unique_ptr<Expr> MakeUnary(UnOp op, std::unique_ptr<Expr> c);
  static std::unique_ptr<Expr> MakeFunc(std::string name,
                                        std::vector<std::unique_ptr<Expr>> args);
  static std::unique_ptr<Expr> MakeAgg(AggKind agg, std::unique_ptr<Expr> arg);

  /// Deep copy.
  std::unique_ptr<Expr> Clone() const;

  /// Collects the set of bound table indices referenced below this node.
  void CollectTables(std::set<int>* out) const;

  /// Collects the ordinals of `?` parameters appearing below this node.
  void CollectParams(std::set<int>* out) const;

  /// True if any node below is an aggregate.
  bool ContainsAggregate() const;

  std::string ToString() const;
};

/// Splits a (possibly nested) AND tree into conjuncts. Pointers remain
/// owned by the original tree.
void SplitConjuncts(Expr* e, std::vector<Expr*>* out);

}  // namespace skinner

#endif  // SKINNER_EXPR_EXPR_H_
