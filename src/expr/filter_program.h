#ifndef SKINNER_EXPR_FILTER_PROGRAM_H_
#define SKINNER_EXPR_FILTER_PROGRAM_H_

#include <cstdint>
#include <vector>

#include "expr/eval.h"

namespace skinner {

/// One table's unary conjuncts, compiled once per Prepare into a flat,
/// typed program over the table's raw column arrays: the pre-processing
/// filter scan (paper 4.5) without a per-cell type dispatch or a Value per
/// row. The compiled node kinds are
///  - a column compared with a literal (either side) over the int64 or the
///    double array, with Value::Compare's semantics: int-vs-double promotes
///    to double, and NaN compares equal to everything;
///  - string `=` and `<>` as dictionary-code compares against the
///    literal's pool id;
///  - `IS [NOT] NULL` of a column, read from the validity bytes;
///  - three-valued AND / OR / NOT, which covers the parser's IN and
///    BETWEEN desugarings.
/// A constant arithmetic operand (`-5`, `2 * 3`) is folded into a literal
/// first. Every other node (LIKE, arithmetic over columns, UDFs, string
/// ordering, column-vs-column compares, NULL literals) is a fallback node
/// that runs EvalExpr on its subtree per row. Short-circuiting follows
/// EvalExpr's order exactly, so fallback UDFs run and tick the clock on
/// the same rows as under EvalPredicate.
class FilterProgram {
 public:
  /// Compiles `conjuncts` (each referencing only table `table_idx`, the
  /// position of `table` in the FROM list). The program reads the table's
  /// arrays in place: it is valid while the table is not appended to.
  FilterProgram(const std::vector<const Expr*>& conjuncts, const Table& table,
                int table_idx);

  /// Appends to `out`, ascending, every row of [begin, end) that is not
  /// deleted and satisfies every conjunct. Fallback nodes evaluate under
  /// `tables` and `pool` and tick `clock` for UDF calls.
  void Filter(int64_t begin, int64_t end,
              const std::vector<const Table*>& tables, const StringPool* pool,
              VirtualClock* clock, std::vector<int32_t>* out) const;

  /// Nodes that run EvalExpr per row (tests and docs).
  size_t num_fallbacks() const;

 private:
  /// SQL three-valued truth.
  enum class Tri : uint8_t { kFalse, kTrue, kNull };

  enum class Kind : uint8_t {
    kCmpInt,       // int64 array (values or dictionary codes) vs int64
    kCmpIntAsDbl,  // int64 array promoted to double vs double
    kCmpDbl,       // double array vs double
    kIsNull,
    kIsNotNull,
    kAnd,
    kOr,
    kNot,
    kFallback,  // EvalExpr over `expr`
  };

  struct Node {
    Kind kind = Kind::kFallback;
    BinOp cmp = BinOp::kEq;          // comparisons: column `cmp` literal
    const uint8_t* nulls = nullptr;  // column validity; null = no NULLs
    const int64_t* ints = nullptr;
    const double* dbls = nullptr;
    int64_t ilit = 0;
    double dlit = 0;
    int32_t lhs = -1;  // AND/OR/NOT children (NOT uses lhs)
    int32_t rhs = -1;
    const Expr* expr = nullptr;  // fallback subtree
  };

  /// Per-row state of the fallback nodes: the EvalExpr context and the
  /// row slot it reads for this table.
  struct Frame {
    EvalContext ctx;
    int64_t* row = nullptr;
  };

  int32_t Compile(const Expr& e);
  int32_t CompileCompare(const Expr& e);
  int32_t Add(Node n);
  /// Evaluates node `node` on `row`: leaves inline, the rest through
  /// EvalComposite.
  Tri Eval(int32_t node, int64_t row, const Frame& frame) const;
  /// AND, OR, NOT and fallback nodes.
  Tri EvalComposite(const Node& n, int64_t row, const Frame& frame) const;

  const Table* table_;
  int table_idx_;
  std::vector<Node> nodes_;
  std::vector<int32_t> roots_;  // one per conjunct, in conjunct order
};

}  // namespace skinner

#endif  // SKINNER_EXPR_FILTER_PROGRAM_H_
