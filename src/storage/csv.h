#ifndef SKINNER_STORAGE_CSV_H_
#define SKINNER_STORAGE_CSV_H_

#include <string>

#include "common/status.h"
#include "storage/catalog.h"

namespace skinner {

/// Options for CSV ingestion.
struct CsvOptions {
  char delimiter = ',';
  /// If true, the first line holds column names and is skipped for data.
  bool has_header = true;
  /// Literal string treated as NULL (in addition to empty fields).
  std::string null_marker = "\\N";
};

/// Loads `path` into an existing table (schema must match field count).
/// Fields are coerced to the column types; unparsable numerics are errors.
/// Appends in place (Table::mutable_column's loading contract): only while
/// the database serves nothing.
Status LoadCsv(const std::string& path, Table* table, const CsvOptions& opts);

/// Parses one CSV line into fields (handles double-quoted fields with
/// embedded delimiters and "" escapes). Exposed for testing.
std::vector<std::string> ParseCsvLine(const std::string& line, char delimiter);

}  // namespace skinner

#endif  // SKINNER_STORAGE_CSV_H_
