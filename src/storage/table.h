#ifndef SKINNER_STORAGE_TABLE_H_
#define SKINNER_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column.h"
#include "storage/schema.h"
#include "storage/string_pool.h"

namespace skinner {

/// An in-memory, column-store table. Rows are identified by their 0-based
/// position; execution engines pass row ids around instead of tuples.
///
/// A table published in a catalog version is immutable while anything may
/// read it (storage/catalog.h). Writers change a private Clone() instead:
/// the clone shares every column with its source, and the first write to a
/// column (UpdateCell, AppendRow, Compact) copies that column only.
class Table {
 public:
  Table(std::string name, Schema schema, StringPool* pool);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// A private copy for a writer: same id and data_version, columns shared
  /// with this table until written, the delete mask copied.
  std::unique_ptr<Table> Clone() const;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }
  const Column& column(int i) const { return *cols_[static_cast<size_t>(i)]; }
  /// In-place access for loaders (generators, CSV, the snapshot loader).
  /// Legal only while nothing is served from the database: it writes the
  /// published version, and its columns may be shared with older versions
  /// a reader still holds. Served writes go through Clone().
  Column* mutable_column(int i) { return cols_[static_cast<size_t>(i)].get(); }

  /// Identity stamp assigned by the catalog at creation, unique across the
  /// database's lifetime: a table re-created under the same name gets a new
  /// id, so cached per-table state (PreparedCache entries foremost) can
  /// never be confused between the two.
  uint64_t id() const { return id_; }
  void set_id(uint64_t id) { id_ = id; }

  /// Monotonic data-version counter, bumped once per appended, updated or
  /// deleted row. Cached derived state (filtered positions, hash indexes)
  /// keyed on (id, data_version) is invalidated by any DML on the table.
  uint64_t data_version() const { return data_version_; }

  /// One logged row change: the data version it produced, the row, and the
  /// updated column or kRowDeleted / kRowAppended.
  struct RowChange {
    uint64_t version = 0;
    int64_t row = 0;
    int col = 0;
  };
  static constexpr int kRowDeleted = -1;
  static constexpr int kRowAppended = -2;
  /// Changes the log holds at most; a full log drops its older half.
  static constexpr size_t kChangeLogCapacity = 1024;

  /// The changes since data version `since` (oldest first) in
  /// [*begin, *end), when the log holds every one of them. False when it
  /// cannot: the log dropped some, or a bulk load (CommitRow), Compact or
  /// RestoreRowCount happened since `since` — their row changes are not
  /// logged, so the log's floor moves up to the version they produced.
  bool ChangesSince(uint64_t since, const RowChange** begin,
                    const RowChange** end) const;

  /// Appends one row; values.size() must equal the column count.
  Status AppendRow(const std::vector<Value>& values);

  /// Fast typed appends for generators (one call per column, then
  /// CommitRow). The caller must append to every column exactly once.
  /// Loading only, like mutable_column().
  void CommitRow() {
    if (!valid_.empty()) valid_.push_back(1);
    ++num_rows_;
    ResetChangeLog();
  }

  /// Deleted-row tracking: a lazy byte-per-row validity mask, allocated on
  /// the first DELETE (mirrors Column's lazy nulls_). A table with no mask
  /// takes exactly the pre-mutation scan path — scans only consult the
  /// mask when has_deletes() is true. Checkpoint compaction (Compact())
  /// rewrites the columns and drops the mask.
  bool has_deletes() const { return !valid_.empty(); }
  bool IsRowValid(int64_t row) const {
    return valid_.empty() || valid_[static_cast<size_t>(row)] != 0;
  }
  /// Marks `row` deleted (idempotent); bumps data_version on first delete.
  void DeleteRow(int64_t row);
  /// Rows minus deleted rows.
  int64_t num_valid_rows() const { return num_rows_ - num_deleted_; }
  int64_t num_deleted() const { return num_deleted_; }

  /// Overwrites one cell (UPDATE executor path); bumps data_version.
  Status UpdateCell(int64_t row, int col, const Value& v);

  /// Physically removes deleted rows and drops the validity mask. Bumps
  /// data_version when anything moved.
  void Compact();

  /// Materializes one row (for result output / debugging).
  std::vector<Value> GetRow(int64_t row) const;

  // Snapshot-loader access (src/txn/snapshot.cc): restores row count after
  // columns were filled via RestoreRaw. Snapshots are written post-compaction
  // so no validity mask is ever restored.
  void RestoreRowCount(int64_t rows) {
    num_rows_ = rows;
    ResetChangeLog();
  }

 private:
  /// Column `i`, copied first if it is still shared with the table this
  /// one was cloned from.
  Column* WritableColumn(int i);
  /// Bumps data_version and logs the change it made.
  void LogChange(int64_t row, int col);
  /// Bumps data_version for a change the log does not record: empties the
  /// log and moves its floor up to the new version.
  void ResetChangeLog() {
    change_log_.clear();
    change_floor_ = ++data_version_;
  }

  std::string name_;
  Schema schema_;
  StringPool* pool_;
  std::vector<std::shared_ptr<Column>> cols_;
  /// Per column: 1 while shared with the Clone() source (copy before the
  /// first write). All 0 for a table built by the constructor.
  std::vector<uint8_t> shared_;
  std::vector<uint8_t> valid_;  // lazily allocated; 0 = deleted
  int64_t num_rows_ = 0;
  int64_t num_deleted_ = 0;
  uint64_t id_ = 0;
  uint64_t data_version_ = 0;
  /// Every change after version change_floor_ is in change_log_, and
  /// nothing else is.
  std::vector<RowChange> change_log_;
  uint64_t change_floor_ = 0;
};

}  // namespace skinner

#endif  // SKINNER_STORAGE_TABLE_H_
