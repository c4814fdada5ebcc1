#ifndef SKINNER_STORAGE_COLUMN_H_
#define SKINNER_STORAGE_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/string_pool.h"
#include "storage/value.h"

namespace skinner {

/// A single in-memory column. Integers and dictionary codes share one
/// int64 array; doubles use their own array. NULLs are tracked by a lazy
/// byte-per-row validity array (allocated on first NULL).
///
/// The column-store layout is a prerequisite for Skinner-C: tuples are
/// represented as index vectors and only the columns a predicate touches
/// are ever read (paper Section 4.5).
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  int64_t size() const { return static_cast<int64_t>(
      type_ == DataType::kDouble ? doubles_.size() : ints_.size()); }

  void AppendInt(int64_t v) {
    ints_.push_back(v);
    if (!nulls_.empty()) nulls_.push_back(0);
  }
  void AppendDouble(double v) {
    doubles_.push_back(v);
    if (!nulls_.empty()) nulls_.push_back(0);
  }
  /// Appends a string (interned into `pool`).
  void AppendString(std::string_view s, StringPool* pool) {
    ints_.push_back(pool->Intern(s));
    if (!nulls_.empty()) nulls_.push_back(0);
  }
  /// Appends a NULL of this column's type.
  void AppendNull();

  /// OK if a column of `type` can store `v` (NULL, or the same
  /// string-vs-numeric class); the TypeError AppendValue/SetValue return.
  static Status CheckStorable(DataType type, const Value& v);

  /// Appends `v`, coercing numeric types; returns TypeError on mismatch.
  Status AppendValue(const Value& v, StringPool* pool);

  /// Overwrites the cell at `row` with `v`, applying the same coercion
  /// rules as AppendValue (UPDATE executor path). Setting NULL lazily
  /// materializes the validity array; setting a non-NULL clears the flag.
  Status SetValue(int64_t row, const Value& v, StringPool* pool);

  /// Keeps exactly the rows with valid[r] != 0 (checkpoint compaction).
  /// `valid` must have `n` == size() entries.
  void Retain(const uint8_t* valid, int64_t n);

  bool IsNull(int64_t row) const {
    return !nulls_.empty() && nulls_[static_cast<size_t>(row)] != 0;
  }
  int64_t GetInt(int64_t row) const { return ints_[static_cast<size_t>(row)]; }
  double GetDouble(int64_t row) const {
    return type_ == DataType::kDouble ? doubles_[static_cast<size_t>(row)]
                                      : static_cast<double>(ints_[static_cast<size_t>(row)]);
  }
  /// Dictionary code of a string cell (only valid for kString columns).
  int32_t GetStringId(int64_t row) const {
    return static_cast<int32_t>(ints_[static_cast<size_t>(row)]);
  }

  // Join-key normalization lives in JoinKeyOf (src/exec/prepared_query.h),
  // the single definition of the key contract used by every engine.

  /// Materializes a cell as a Value (strings looked up in `pool`).
  Value GetValue(int64_t row, const StringPool& pool) const;

  // Raw storage access for the snapshot writer/loader (src/txn/snapshot.cc).
  // The loader restores arrays verbatim: string ids stay valid because the
  // snapshot dumps the pool in id order and re-interning reproduces them.
  const std::vector<int64_t>& raw_ints() const { return ints_; }
  const std::vector<double>& raw_doubles() const { return doubles_; }
  const std::vector<uint8_t>& raw_nulls() const { return nulls_; }
  void RestoreRaw(std::vector<int64_t> ints, std::vector<double> doubles,
                  std::vector<uint8_t> nulls) {
    ints_ = std::move(ints);
    doubles_ = std::move(doubles);
    nulls_ = std::move(nulls);
  }

 private:
  DataType type_;
  std::vector<int64_t> ints_;     // int64 payloads or string dictionary codes
  std::vector<double> doubles_;   // double payloads
  std::vector<uint8_t> nulls_;    // lazily allocated; 1 = NULL
};

}  // namespace skinner

#endif  // SKINNER_STORAGE_COLUMN_H_
