#include "benchgen/runner.h"

#include <algorithm>
#include <cstdio>

#include "common/str_util.h"

namespace skinner {
namespace bench {

RunResult RunQuery(Database* db, const std::string& query_name,
                   const std::string& sql, const ExecOptions& opts) {
  RunResult r;
  r.query_name = query_name;
  r.engine_name = EngineKindName(opts.engine);
  auto out = db->Query(sql, opts);
  if (!out.ok()) {
    r.error = true;
    r.error_message = out.status().ToString();
    return r;
  }
  const ExecutionStats& s = out.value().stats;
  r.wall_ms = s.wall_ms;
  r.cost = s.total_cost;
  r.intermediate = s.intermediate_tuples;
  r.result_rows = out.value().result.rows.size();
  r.join_tuples = s.join_result_tuples;
  r.chunk_splits = s.chunk_splits;
  r.timed_out = s.timed_out;
  return r;
}

void Totals::Add(const RunResult& r) {
  total_ms += r.wall_ms;
  max_ms = std::max(max_ms, r.wall_ms);
  total_cost += r.cost;
  max_cost = std::max(max_cost, r.cost);
  total_intermediate += r.intermediate;
  max_intermediate = std::max(max_intermediate, r.intermediate);
  if (r.timed_out) ++timeouts;
  if (r.error) ++errors;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> width(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) width[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < width.size(); ++i) {
      width[i] = std::max(width[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("| ");
    for (size_t i = 0; i < width.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      std::printf("%-*s | ", static_cast<int>(width[i]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::printf("|");
  for (size_t i = 0; i < width.size(); ++i) {
    for (size_t j = 0; j < width[i] + 3; ++j) std::printf("-");
    std::printf("|");
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

std::string FormatCount(uint64_t n) {
  if (n >= 10'000'000'000ull) {
    return StrFormat("%.1fG", static_cast<double>(n) / 1e9);
  }
  if (n >= 10'000'000ull) {
    return StrFormat("%.1fM", static_cast<double>(n) / 1e6);
  }
  if (n >= 10'000ull) {
    return StrFormat("%.1fK", static_cast<double>(n) / 1e3);
  }
  return std::to_string(n);
}

void PrintShapeCheck(const std::string& label, const std::string& claim,
                     const std::string& values, bool holds) {
  std::printf("Shape check (%s): %s: %s: %s\n", label.c_str(), claim.c_str(),
              values.c_str(), holds ? "holds" : "does not reproduce");
}

}  // namespace bench
}  // namespace skinner
