#ifndef SKINNER_EXEC_MUTATION_H_
#define SKINNER_EXEC_MUTATION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sql/binder.h"
#include "storage/value.h"

namespace skinner {

/// Outcome of planning a bound UPDATE/DELETE against the current table
/// contents. Mutations are two-phase: ComputeMutation scans the valid rows
/// and records every change without touching the table (so SET expressions
/// and the WHERE predicate all see the pre-update state), then
/// ApplyMutation writes the changes. The split also gives the WAL a
/// ready-made physical redo record: the deltas are exactly what gets
/// logged and exactly what recovery replays.
struct MutationPlan {
  /// Rows the WHERE predicate matched (valid rows only).
  int64_t rows_matched = 0;
  /// Virtual cost of the scan: 1/row visited + expression-eval ticks
  /// (same accounting as the pre-processing filter scan).
  uint64_t cost = 0;

  struct CellChange {
    int64_t row;
    int32_t col;
    Value value;
  };
  std::vector<CellChange> cell_changes;  // UPDATE
  std::vector<int64_t> deleted_rows;     // DELETE (ascending row ids)
};

/// Scans `m.table` and computes the plan. Returns TypeError if a SET
/// expression produces a value the column cannot store (detected before
/// anything is written, so a failed UPDATE changes nothing).
Result<MutationPlan> ComputeMutation(const BoundMutation& m,
                                     const StringPool* pool);

/// Applies a plan to the table (bumps data_version via UpdateCell /
/// DeleteRow). A served database applies it to a writer's private
/// Table::Clone() of the planned table, never to a published table.
Status ApplyMutation(Table* table, const MutationPlan& plan);

}  // namespace skinner

#endif  // SKINNER_EXEC_MUTATION_H_
