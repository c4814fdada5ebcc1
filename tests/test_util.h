#ifndef SKINNER_TESTS_TEST_UTIL_H_
#define SKINNER_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "api/database.h"
#include "common/rng.h"
#include "exec/prepared_query.h"
#include "storage/column.h"

namespace skinner {
namespace testing {

/// Parameters for the randomized schema/data generator used by the
/// cross-engine property tests.
struct RandomDbSpec {
  int num_tables = 4;
  int64_t min_rows = 4;
  int64_t max_rows = 12;
  /// Key domain size (smaller => more join matches).
  int64_t key_domain = 6;
  /// Probability of a NULL in the fk/val columns.
  double null_prob = 0.05;
  /// Fill the `d` DOUBLE column with join keys drawn from `key_domain`
  /// (half-integer values, with key 0 emitted as +0.0 or -0.0 at random)
  /// instead of arbitrary decimals, so that queries joining on `d`
  /// exercise the double hash-key path including signed zero.
  bool double_join_keys = false;
  uint64_t seed = 1;
};

/// Creates tables r0..r{n-1} with columns pk INT, fk INT, val INT,
/// s STRING, d DOUBLE and random contents.
Status BuildRandomDb(Database* db, const RandomDbSpec& spec,
                     std::vector<std::string>* table_names);

/// Generates a random SPJ COUNT(*) query over a random subset of the
/// tables: a random spanning tree of equality joins plus optional unary
/// predicates and an occasional non-equality join predicate.
std::string RandomCountQuery(Rng* rng, const std::vector<std::string>& tables);

/// Like RandomCountQuery, but the spanning tree joins on the DOUBLE `d`
/// column. Use with RandomDbSpec::double_join_keys so the keys actually
/// overlap (and include +0.0/-0.0).
std::string RandomDoubleKeyCountQuery(Rng* rng,
                                      const std::vector<std::string>& tables);

/// Ground truth: brute-force evaluation of a bound query's join count by
/// enumerating the full cross product and checking the complete WHERE
/// clause. Exponential; use tiny tables only.
int64_t BruteForceCount(Database* db, const BoundQuery& query);

/// Runs `sql` (a COUNT(*) query) under `opts` and returns the count.
int64_t RunCount(Database* db, const std::string& sql, const ExecOptions& opts);

/// Canonical string rendering of a result (rows sorted), for comparing
/// engine outputs that may differ in row order.
std::string CanonicalRows(const QueryResult& result);

/// The HashIndex of column `col` over identity rows: position p carries
/// row p's join key, and NULL cells are not indexed. Tests build a
/// standalone index from an int64 column of chosen keys through this.
HashIndex IndexOfColumn(const Column& col);

}  // namespace testing
}  // namespace skinner

#endif  // SKINNER_TESTS_TEST_UTIL_H_
