#include "storage/table.h"

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
  ++num_rows_;
  ++data_version_;
  return Status::OK();
}

void Table::DeleteRow(int64_t row) {
  if (valid_.empty()) valid_.assign(static_cast<size_t>(num_rows_), 1);
  uint8_t& slot = valid_[static_cast<size_t>(row)];
  if (slot == 0) return;
  slot = 0;
  ++num_deleted_;
  ++data_version_;
}

Status Table::UpdateCell(int64_t row, int col, const Value& v) {
  SKINNER_RETURN_IF_ERROR(WritableColumn(col)->SetValue(row, v, pool_));
  ++data_version_;
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
  ++data_version_;
}

std::vector<Value> Table::GetRow(int64_t row) const {
  std::vector<Value> out;
  out.reserve(cols_.size());
  for (const auto& c : cols_) out.push_back(c->GetValue(row, *pool_));
  return out;
}

}  // namespace skinner
