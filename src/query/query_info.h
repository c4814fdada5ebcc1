#ifndef SKINNER_QUERY_QUERY_INFO_H_
#define SKINNER_QUERY_QUERY_INFO_H_

#include <cstdint>
#include <set>
#include <vector>

#include "common/status.h"
#include "sql/binder.h"

namespace skinner {

/// Set of query tables as a bitmask (queries join at most 32 tables).
using TableSet = uint32_t;

inline TableSet TableBit(int t) { return static_cast<TableSet>(1u) << t; }
inline bool Contains(TableSet s, int t) { return (s & TableBit(t)) != 0; }
/// The table of the r-th set bit of `s` (r counted from 0, ascending);
/// `s` must have more than r bits set.
inline int NthTable(TableSet s, uint64_t r) {
  for (; r > 0; --r) s &= s - 1;  // drop the lowest set bit
  return __builtin_ctz(s);
}

/// An equality join predicate `left.col = right.col` between two distinct
/// tables; eligible for hash-index acceleration.
struct EquiJoinPred {
  int left_table;
  int left_col;
  int right_table;
  int right_col;
  const Expr* expr;
};

/// A generic predicate (any WHERE conjunct) plus the set of tables it
/// references.
struct PredInfo {
  const Expr* expr;
  TableSet tables;
  int num_tables;
};

/// Static per-query analysis shared by every execution strategy:
/// classified predicates, the join graph, and Cartesian-product-avoiding
/// candidate generation for join order enumeration (paper Section 4.2).
class QueryInfo {
 public:
  /// Analyzes a bound query. The BoundQuery must outlive this object.
  static Result<QueryInfo> Analyze(const BoundQuery& query);

  int num_tables() const { return num_tables_; }

  /// Conjuncts referencing no table (constant predicates).
  const std::vector<PredInfo>& constant_preds() const { return constant_preds_; }
  /// Conjuncts referencing exactly table `t` (applied in pre-processing).
  const std::vector<const Expr*>& unary_preds(int t) const {
    return unary_preds_[static_cast<size_t>(t)];
  }
  /// Conjuncts referencing >= 2 tables, in WHERE order.
  const std::vector<PredInfo>& join_preds() const { return join_preds_; }
  /// The equality joins among join_preds().
  const std::vector<EquiJoinPred>& equi_preds() const { return equi_preds_; }

  /// Tables adjacent to `t` in the join graph.
  TableSet adjacency(int t) const { return adjacency_[static_cast<size_t>(t)]; }

  /// Join-order candidate generation: tables eligible to extend `chosen`.
  /// Returns tables connected to `chosen` via some join predicate, or all
  /// remaining tables if none is connected (forced Cartesian product) or if
  /// `chosen` is empty.
  std::vector<int> EligibleTables(TableSet chosen) const;
  /// EligibleTables as a bitmask: its set bits, in ascending order, are
  /// exactly EligibleTables(chosen). Allocation-free.
  TableSet EligibleMask(TableSet chosen) const;

  /// Join predicates that become checkable exactly when `table` joins a
  /// prefix covering `prefix_with_table` (i.e. pred tables ⊆ prefix and
  /// pred references `table`).
  std::vector<const PredInfo*> NewlyApplicable(TableSet prefix_with_table,
                                               int table) const;

  /// True if the whole join graph is connected.
  bool IsConnected() const;

 private:
  int num_tables_ = 0;
  std::vector<PredInfo> constant_preds_;
  std::vector<std::vector<const Expr*>> unary_preds_;
  std::vector<PredInfo> join_preds_;
  std::vector<EquiJoinPred> equi_preds_;
  std::vector<TableSet> adjacency_;
};

}  // namespace skinner

#endif  // SKINNER_QUERY_QUERY_INFO_H_
