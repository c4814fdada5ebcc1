#include "storage/csv.h"

#include <fstream>

#include "common/str_util.h"

namespace skinner {

std::vector<std::string> ParseCsvLine(const std::string& line, char delimiter) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delimiter) {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

namespace {

Result<Value> CoerceField(const std::string& field, DataType type,
                          const CsvOptions& opts) {
  if (field.empty() || field == opts.null_marker) return Value::Null();
  switch (type) {
    case DataType::kInt64: {
      SKINNER_ASSIGN_OR_RETURN(int64_t v, ParseInt64(field));
      return Value::Int(v);
    }
    case DataType::kDouble: {
      SKINNER_ASSIGN_OR_RETURN(double v, ParseDouble(field));
      return Value::Double(v);
    }
    case DataType::kString:
      return Value::String(field);
  }
  return Status::Internal("bad type");
}

}  // namespace

Status LoadCsv(const std::string& path, Table* table, const CsvOptions& opts) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  std::string line;
  bool first = true;
  int64_t line_no = 0;
  std::vector<Value> row;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (first && opts.has_header) {
      first = false;
      continue;
    }
    first = false;
    if (line.empty()) continue;
    std::vector<std::string> fields = ParseCsvLine(line, opts.delimiter);
    if (static_cast<int>(fields.size()) != table->schema().num_columns()) {
      return Status::ParseError(
          StrFormat("%s:%lld: expected %d fields, got %zu", path.c_str(),
                    static_cast<long long>(line_no),
                    table->schema().num_columns(), fields.size()));
    }
    row.clear();
    for (int i = 0; i < table->schema().num_columns(); ++i) {
      auto v = CoerceField(fields[static_cast<size_t>(i)],
                           table->schema().column(i).type, opts);
      if (!v.ok()) {
        return Status::ParseError(StrFormat(
            "%s:%lld: %s", path.c_str(), static_cast<long long>(line_no),
            v.status().message().c_str()));
      }
      row.push_back(v.MoveValue());
    }
    SKINNER_RETURN_IF_ERROR(table->AppendRow(row));
  }
  return Status::OK();
}

}  // namespace skinner
