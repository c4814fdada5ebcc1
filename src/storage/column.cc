#include "storage/column.h"

namespace skinner {

void Column::AppendNull() {
  size_t row = static_cast<size_t>(size());
  // Materialize the validity array lazily, then keep it in sync with the
  // payload arrays from here on (every append path extends it).
  if (nulls_.empty()) nulls_.assign(row, 0);
  if (type_ == DataType::kDouble) {
    doubles_.push_back(0);
  } else {
    ints_.push_back(0);
  }
  nulls_.push_back(1);
}

Status Column::CheckStorable(DataType type, const Value& v) {
  if (v.is_null()) return Status::OK();
  const bool v_str = v.type() == DataType::kString;
  switch (type) {
    case DataType::kInt64:
      if (v_str) return Status::TypeError("cannot store string in INT column");
      break;
    case DataType::kDouble:
      if (v_str) {
        return Status::TypeError("cannot store string in DOUBLE column");
      }
      break;
    case DataType::kString:
      if (!v_str) {
        return Status::TypeError("cannot store numeric in STRING column");
      }
      break;
  }
  return Status::OK();
}

Status Column::AppendValue(const Value& v, StringPool* pool) {
  SKINNER_RETURN_IF_ERROR(CheckStorable(type_, v));
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kInt64:
      AppendInt(v.type() == DataType::kDouble ? static_cast<int64_t>(v.AsDouble())
                                              : v.AsInt());
      break;
    case DataType::kDouble:
      AppendDouble(v.AsDouble());
      break;
    case DataType::kString:
      AppendString(v.AsString(), pool);
      break;
  }
  return Status::OK();
}

Status Column::SetValue(int64_t row, const Value& v, StringPool* pool) {
  SKINNER_RETURN_IF_ERROR(CheckStorable(type_, v));
  size_t r = static_cast<size_t>(row);
  if (v.is_null()) {
    if (nulls_.empty()) nulls_.assign(static_cast<size_t>(size()), 0);
    if (type_ == DataType::kDouble) {
      doubles_[r] = 0;
    } else {
      ints_[r] = 0;
    }
    nulls_[r] = 1;
    return Status::OK();
  }
  switch (type_) {
    case DataType::kInt64:
      ints_[r] = v.type() == DataType::kDouble
                     ? static_cast<int64_t>(v.AsDouble())
                     : v.AsInt();
      break;
    case DataType::kDouble:
      doubles_[r] = v.AsDouble();
      break;
    case DataType::kString:
      ints_[r] = pool->Intern(v.AsString());
      break;
  }
  if (!nulls_.empty()) nulls_[r] = 0;
  return Status::OK();
}

void Column::Retain(const uint8_t* valid, int64_t n) {
  size_t w = 0;
  bool any_null = false;
  for (int64_t r = 0; r < n; ++r) {
    if (!valid[r]) continue;
    size_t rr = static_cast<size_t>(r);
    if (type_ == DataType::kDouble) {
      doubles_[w] = doubles_[rr];
    } else {
      ints_[w] = ints_[rr];
    }
    if (!nulls_.empty()) {
      nulls_[w] = nulls_[rr];
      any_null = any_null || nulls_[w] != 0;
    }
    ++w;
  }
  if (type_ == DataType::kDouble) {
    doubles_.resize(w);
  } else {
    ints_.resize(w);
  }
  if (!nulls_.empty()) {
    nulls_.resize(w);
    // Return to the lazy representation when no NULLs survive, so a
    // compacted table is indistinguishable from one built without NULLs.
    if (!any_null) nulls_.clear();
  }
}

Value Column::GetValue(int64_t row, const StringPool& pool) const {
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case DataType::kInt64: return Value::Int(GetInt(row));
    case DataType::kDouble: return Value::Double(GetDouble(row));
    case DataType::kString: return Value::String(pool.Get(GetStringId(row)));
  }
  return Value::Null();
}

}  // namespace skinner
