#ifndef SKINNER_STATS_STATS_H_
#define SKINNER_STATS_STATS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/table.h"

namespace skinner {

/// Summary statistics for one column, as a traditional optimizer would
/// maintain them: distinct count, numeric min/max, null count. These are
/// exact at our scale; the estimation *errors* the paper exploits come from
/// the independence and uniformity assumptions, not from stale counts.
struct ColumnStats {
  int64_t num_distinct = 0;
  int64_t null_count = 0;
  bool numeric = false;
  double min_val = 0;
  double max_val = 0;
};

struct TableStats {
  int64_t row_count = 0;
  std::vector<ColumnStats> columns;
};

/// Scans a table and computes statistics. Delete-masked rows are invisible:
/// row_count is num_valid_rows() and masked rows contribute to no column
/// statistic.
TableStats ComputeTableStats(const Table& table);

/// Cache of per-table statistics, keyed on the table's id and validated by
/// its data_version like every other piece of cached derived state — any
/// DML (append, UPDATE, DELETE) bumps the version and invalidates on next
/// lookup (a row-count comparison would miss in-place updates and
/// mask-only deletes).
///
/// Thread-safe, and safe while catalog versions coexist: a reader pinned
/// to an old version and one on the newest may ask for the same table id
/// at different data versions at once. Each gets its own stats, returned
/// by shared_ptr so they outlive any cache replacement. The cache keeps one
/// entry per id, the newest data version it was asked for: an old reader
/// never evicts newer stats, it computes its own. A table built outside a
/// catalog (id 0) is computed on every call.
class StatsManager {
 public:
  std::shared_ptr<const TableStats> Get(const Table* table);

 private:
  struct Entry {
    uint64_t data_version;
    std::shared_ptr<const TableStats> stats;
  };
  std::mutex mu_;
  std::unordered_map<uint64_t, Entry> cache_;  // by Table::id()
};

}  // namespace skinner

#endif  // SKINNER_STATS_STATS_H_
