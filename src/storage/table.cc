#include "storage/table.h"

#include <algorithm>

#include "common/str_util.h"

namespace skinner {

Table::Table(std::string name, Schema schema, StringPool* pool)
    : name_(std::move(name)), schema_(std::move(schema)), pool_(pool) {
  cols_.reserve(static_cast<size_t>(schema_.num_columns()));
  for (int i = 0; i < schema_.num_columns(); ++i) {
    cols_.push_back(std::make_shared<Column>(schema_.column(i).type));
  }
  shared_.assign(cols_.size(), 0);
}

std::unique_ptr<Table> Table::Clone() const {
  auto t = std::make_unique<Table>(name_, schema_, pool_);
  t->cols_ = cols_;
  t->shared_.assign(cols_.size(), 1);
  t->valid_ = valid_;
  t->num_rows_ = num_rows_;
  t->num_deleted_ = num_deleted_;
  t->id_ = id_;
  t->data_version_ = data_version_;
  t->change_log_ = change_log_;
  t->change_floor_ = change_floor_;
  return t;
}

Column* Table::WritableColumn(int i) {
  const size_t c = static_cast<size_t>(i);
  if (shared_[c] != 0) {
    cols_[c] = std::make_shared<Column>(*cols_[c]);
    shared_[c] = 0;
  }
  return cols_[c].get();
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (static_cast<int>(values.size()) != schema_.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("table %s expects %d values, got %zu", name_.c_str(),
                  schema_.num_columns(), values.size()));
  }
  // Check every value before appending any: a type error must not leave
  // the columns of one row at different lengths.
  for (int i = 0; i < schema_.num_columns(); ++i) {
    SKINNER_RETURN_IF_ERROR(Column::CheckStorable(
        schema_.column(i).type, values[static_cast<size_t>(i)]));
  }
  for (int i = 0; i < schema_.num_columns(); ++i) {
    SKINNER_RETURN_IF_ERROR(
        WritableColumn(i)->AppendValue(values[static_cast<size_t>(i)], pool_));
  }
  if (!valid_.empty()) valid_.push_back(1);
  LogChange(num_rows_++, kRowAppended);
  return Status::OK();
}

void Table::DeleteRow(int64_t row) {
  if (valid_.empty()) valid_.assign(static_cast<size_t>(num_rows_), 1);
  uint8_t& slot = valid_[static_cast<size_t>(row)];
  if (slot == 0) return;
  slot = 0;
  ++num_deleted_;
  LogChange(row, kRowDeleted);
}

Status Table::UpdateCell(int64_t row, int col, const Value& v) {
  SKINNER_RETURN_IF_ERROR(WritableColumn(col)->SetValue(row, v, pool_));
  LogChange(row, col);
  return Status::OK();
}

void Table::Compact() {
  if (valid_.empty()) return;
  for (int c = 0; c < schema_.num_columns(); ++c) {
    WritableColumn(c)->Retain(valid_.data(), num_rows_);
  }
  num_rows_ -= num_deleted_;
  num_deleted_ = 0;
  valid_.clear();
  ResetChangeLog();
}

void Table::LogChange(int64_t row, int col) {
  ++data_version_;
  if (change_log_.size() == kChangeLogCapacity) {
    const auto half = change_log_.begin() + kChangeLogCapacity / 2;
    change_floor_ = (half - 1)->version;
    change_log_.erase(change_log_.begin(), half);
  }
  change_log_.push_back(RowChange{data_version_, row, col});
}

bool Table::ChangesSince(uint64_t since, const RowChange** begin,
                         const RowChange** end) const {
  if (since < change_floor_ || since > data_version_) return false;
  const RowChange* first = change_log_.data();
  const RowChange* last = first + change_log_.size();
  *begin = std::upper_bound(
      first, last, since,
      [](uint64_t v, const RowChange& c) { return v < c.version; });
  *end = last;
  return true;
}

std::vector<Value> Table::GetRow(int64_t row) const {
  std::vector<Value> out;
  out.reserve(cols_.size());
  for (const auto& c : cols_) out.push_back(c->GetValue(row, *pool_));
  return out;
}

}  // namespace skinner
