#ifndef SKINNER_POST_AGGREGATES_H_
#define SKINNER_POST_AGGREGATES_H_

#include <string>

#include "common/status.h"
#include "expr/expr.h"

namespace skinner {

/// Streaming accumulator for one aggregate function with SQL semantics:
/// NULL inputs are ignored; SUM/MIN/MAX of an empty input are NULL;
/// COUNT of an empty input is 0; AVG is SUM/COUNT as double.
class AggAccumulator {
 public:
  explicit AggAccumulator(AggKind kind) : kind_(kind) {}

  /// Feeds one input value. For COUNT(*) the value is ignored.
  void Add(const Value& v);

  /// COUNT(*) only: feeds `rows` rows at once.
  void AddRows(int64_t rows) { count_ += rows; }

  /// The aggregate result over everything added so far. An all-integer
  /// SUM whose running total left the int64 range fails with
  /// InvalidArgument rather than wrapping; AVG sums in double and never
  /// overflows.
  Result<Value> Finish() const;

 private:
  AggKind kind_;
  int64_t count_ = 0;        // non-null inputs (or all rows for COUNT(*))
  double sum_d_ = 0;
  int64_t sum_i_ = 0;        // SUM of the int64 inputs
  bool sum_i_overflow_ = false;
  bool any_double_ = false;
  bool has_value_ = false;
  Value best_;               // running MIN/MAX
};

// ---------------------------------------------------------------------------
// Value-key semantics. This file is the single home for "which output
// values count as equal" in post-processing; keep the three schemes below
// in sync when touching canonicalization:
//  - SerializeValueKey: byte keys whose EQUALITY defines GROUP BY groups.
//  - HashValueKey/HashRowKey: bucket hints for DISTINCT; equality is then
//    decided exactly by RowsEqualForDistinct, so the hash only has to be
//    equal for rows that compare equal (never the other way around).
// The schemes deliberately differ on int64 beyond 2^53: GROUP BY keys such
// values on exact bits (serialized equality must separate what doubles
// merge), while DISTINCT hashes them through double because
// Value::Compare's int/double promotion can call a big int64 equal to a
// double — hash-equal must cover everything Compare calls equal.
// ---------------------------------------------------------------------------

/// Serializes a value into `out` such that two values serialize equally iff
/// they are SQL-equal within a type class; used for GROUP BY keys.
void SerializeValueKey(const Value& v, std::string* out);

/// Hash of one value for DISTINCT bucketing, with JoinKeyOf-style
/// canonicalization: numerics hash through their double value (so 1 and
/// 1.0 share a bucket) with -0.0 canonicalized to +0.0; strings hash
/// their bytes; NULLs share a fixed salt (SQL DISTINCT treats NULLs as
/// one group).
uint64_t HashValueKey(const Value& v);

/// Combined hash of a full output row (HashValueKey per value).
uint64_t HashRowKey(const std::vector<Value>& row);

/// Exact row equality under DISTINCT semantics: NULLs equal each other,
/// non-NULLs equal iff Value::Compare says so (numerics compare across
/// int/double, and -0.0 == +0.0).
bool RowsEqualForDistinct(const std::vector<Value>& a,
                          const std::vector<Value>& b);

}  // namespace skinner

#endif  // SKINNER_POST_AGGREGATES_H_
