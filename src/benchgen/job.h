#ifndef SKINNER_BENCHGEN_JOB_H_
#define SKINNER_BENCHGEN_JOB_H_

#include <string>
#include <vector>

#include "api/database.h"

namespace skinner {
namespace bench {

/// Scale and randomness for the synthetic Join Order Benchmark stand-in.
/// `num_titles` plays the role of the IMDB title count; satellite tables
/// scale proportionally (cast_info ~5x, movie_info ~3x, ...).
struct JobSpec {
  int64_t num_titles = 8000;
  uint64_t seed = 17;
};

struct JobWorkload {
  std::vector<std::string> names;    // q01a, q01b, ...
  std::vector<std::string> queries;  // SQL
};

/// Creates the IMDB-like schema (title, cast_info, movie_companies,
/// movie_info, movie_keyword, name, company_name, keyword, info_type,
/// kind_type) with the two properties that give the real JOB its bite:
///  1. heavy skew (Zipf casts, Zipf keywords, blockbuster studios), and
///  2. planted cross-table correlations (the 'blockbuster' keyword
///     co-occurs with genre 'action', recent years and kind 'movie'),
/// so that an independence-assuming estimator is off by orders of
/// magnitude on exactly a few queries — which then dominate total time,
/// as in the paper's Figure 6. Fills the tables in place (Table::
/// mutable_column's loading contract): only while `db` serves nothing.
Status GenerateJob(Database* db, const JobSpec& spec);

/// Thirty queries (ten families x three variants) of 4-12 tables.
JobWorkload JobQueries();

}  // namespace bench
}  // namespace skinner

#endif  // SKINNER_BENCHGEN_JOB_H_
