#include "stats/stats.h"

#include <unordered_set>

namespace skinner {

TableStats ComputeTableStats(const Table& table) {
  TableStats stats;
  stats.row_count = table.num_valid_rows();
  stats.columns.resize(static_cast<size_t>(table.schema().num_columns()));
  const bool masked = table.has_deletes();
  for (int c = 0; c < table.schema().num_columns(); ++c) {
    const Column& col = table.column(c);
    ColumnStats& cs = stats.columns[static_cast<size_t>(c)];
    cs.numeric = col.type() != DataType::kString;
    std::unordered_set<uint64_t> distinct;
    bool first = true;
    for (int64_t r = 0; r < table.num_rows(); ++r) {
      if (masked && !table.IsRowValid(r)) continue;  // deleted rows invisible
      if (col.IsNull(r)) {
        ++cs.null_count;
        continue;
      }
      uint64_t key = 0;
      switch (col.type()) {
        case DataType::kString:
          key = static_cast<uint64_t>(col.GetStringId(r));
          break;
        case DataType::kInt64:
          key = static_cast<uint64_t>(col.GetInt(r));
          break;
        case DataType::kDouble: {
          double d = col.GetDouble(r);
          __builtin_memcpy(&key, &d, sizeof(d));
          break;
        }
      }
      distinct.insert(key);
      if (cs.numeric) {
        double v = col.GetDouble(r);
        if (first || v < cs.min_val) cs.min_val = v;
        if (first || v > cs.max_val) cs.max_val = v;
        first = false;
      }
    }
    cs.num_distinct = static_cast<int64_t>(distinct.size());
  }
  return stats;
}

std::shared_ptr<const TableStats> StatsManager::Get(const Table* table) {
  const uint64_t version = table->data_version();
  if (table->id() == 0) {  // not from a catalog: no identity to key on
    return std::make_shared<const TableStats>(ComputeTableStats(*table));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(table->id());
    if (it != cache_.end() && it->second.data_version == version) {
      return it->second.stats;
    }
  }
  // Computed outside the lock: a scan of one table must not stall
  // estimators planning over other tables.
  auto stats = std::make_shared<const TableStats>(ComputeTableStats(*table));
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = cache_[table->id()];
  if (entry.stats == nullptr || entry.data_version < version) {
    entry = Entry{version, stats};
  }
  return stats;
}

}  // namespace skinner
