#ifndef SKINNER_BENCHGEN_RUNNER_H_
#define SKINNER_BENCHGEN_RUNNER_H_

#include <string>
#include <vector>

#include "api/database.h"

namespace skinner {
namespace bench {

/// Measurement of one (query, engine) execution.
struct RunResult {
  std::string query_name;
  std::string engine_name;
  double wall_ms = 0;
  uint64_t cost = 0;              // virtual units (deterministic)
  uint64_t intermediate = 0;      // accumulated intermediate cardinality
  uint64_t result_rows = 0;
  uint64_t join_tuples = 0;       // join result size before post-processing
  uint64_t chunk_splits = 0;      // adaptive splits (parallel Skinner-C)
  bool timed_out = false;
  bool error = false;
  std::string error_message;
};

/// Runs one SQL query under one engine configuration.
RunResult RunQuery(Database* db, const std::string& query_name,
                   const std::string& sql, const ExecOptions& opts);

/// Aggregate over a workload: total/max cost and time, #timeouts.
struct Totals {
  double total_ms = 0;
  double max_ms = 0;
  uint64_t total_cost = 0;
  uint64_t max_cost = 0;
  uint64_t total_intermediate = 0;
  uint64_t max_intermediate = 0;
  int timeouts = 0;
  int errors = 0;

  void Add(const RunResult& r);
};

/// Pretty-prints a row-per-approach comparison table to stdout.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a cost-unit count compactly (12345678 -> "12.3M").
std::string FormatCount(uint64_t n);

/// Prints one paper-shape check computed from measured numbers, as
/// "Shape check (<label>): <claim>: <values>: holds" or "... does not
/// reproduce".
void PrintShapeCheck(const std::string& label, const std::string& claim,
                     const std::string& values, bool holds);

}  // namespace bench
}  // namespace skinner

#endif  // SKINNER_BENCHGEN_RUNNER_H_
