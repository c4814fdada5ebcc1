#include "api/database.h"

#include <sys/stat.h>

#include <iterator>
#include <cerrno>
#include <cstring>
#include <string>

#include "api/query_pipeline.h"
#include "api/session.h"
#include "common/clock.h"
#include "common/scheduler.h"
#include "common/str_util.h"
#include "optimizer/dp_optimizer.h"
#include "txn/snapshot.h"

namespace skinner {

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSkinnerC: return "Skinner-C";
    case EngineKind::kSkinnerG: return "Skinner-G";
    case EngineKind::kSkinnerH: return "Skinner-H";
    case EngineKind::kVolcano: return "Volcano";
    case EngineKind::kBlock: return "Block";
    case EngineKind::kRandomOrder: return "Random";
    case EngineKind::kEddy: return "Eddy";
    case EngineKind::kReopt: return "Reopt";
  }
  return "?";
}

Database::Database() : Database(SchedulerOptions{}) {}

Database::Database(const SchedulerOptions& scheduler_opts)
    : scheduler_(new Scheduler(scheduler_opts)),
      default_session_(new Session(this, /*id=*/0, ExecOptions{})) {}

Database::~Database() = default;

std::unique_ptr<Session> Database::CreateSession(const ExecOptions& defaults) {
  return std::unique_ptr<Session>(
      new Session(this, next_session_id_.fetch_add(1), defaults));
}

Status Database::Execute(const std::string& sql) {
  SKINNER_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  if (stmt.kind == Statement::Kind::kSelect) {
    return Status::InvalidArgument("use Query() for SELECT statements");
  }
  // Writers serialize among themselves; queries keep running on the
  // versions they pinned and see this statement once it is published.
  std::lock_guard<std::mutex> writer(writer_mu_);
  std::shared_ptr<const CatalogVersion> base = catalog_.Current();
  switch (stmt.kind) {
    case Statement::Kind::kCreateTable: {
      WalRecord rec;
      rec.type = WalRecordType::kCreateTable;
      rec.table = stmt.create->name;
      rec.columns = stmt.create->columns;
      SKINNER_ASSIGN_OR_RETURN(
          std::shared_ptr<Table> table,
          catalog_.NewTable(*base, stmt.create->name,
                            Schema(std::move(stmt.create->columns))));
      return Commit(&rec, base->With(std::move(table)));
    }
    case Statement::Kind::kDropTable: {
      if (base->FindTable(stmt.drop->name) == nullptr) {
        return Status::NotFound("no such table: " + stmt.drop->name);
      }
      WalRecord rec;
      rec.type = WalRecordType::kDropTable;
      rec.table = stmt.drop->name;
      return Commit(&rec, base->Without(stmt.drop->name));
    }
    case Statement::Kind::kInsert: {
      const Table* table = base->FindTable(stmt.insert->table);
      if (table == nullptr) {
        return Status::NotFound("no such table: " + stmt.insert->table);
      }
      EvalContext ctx;  // literal expressions only: no tables needed
      std::vector<std::vector<Value>> rows;
      rows.reserve(stmt.insert->rows.size());
      for (auto& row_exprs : stmt.insert->rows) {
        std::vector<Value> row;
        row.reserve(row_exprs.size());
        for (auto& e : row_exprs) {
          std::set<int> tables;
          e->CollectTables(&tables);
          if (e->kind == ExprKind::kColumnRef || !tables.empty()) {
            return Status::InvalidArgument("INSERT values must be literals");
          }
          std::set<int> params;
          e->CollectParams(&params);
          if (!params.empty()) {
            return Status::InvalidArgument(
                "INSERT values cannot contain ? parameters");
          }
          row.push_back(EvalExpr(*e, ctx));
        }
        rows.push_back(std::move(row));
      }
      // Apply to a private clone, then commit exactly the appended prefix:
      // a mid-statement type error keeps the earlier rows, so they must
      // also be in the log.
      std::unique_ptr<Table> next = table->Clone();
      Status st;
      size_t applied = 0;
      for (; applied < rows.size(); ++applied) {
        st = next->AppendRow(rows[applied]);
        if (!st.ok()) break;
      }
      if (applied > 0) {
        WalRecord rec;
        rec.type = WalRecordType::kInsertRows;
        rec.table = table->name();
        rec.rows.assign(std::make_move_iterator(rows.begin()),
                        std::make_move_iterator(rows.begin() +
                                                static_cast<long>(applied)));
        SKINNER_RETURN_IF_ERROR(Commit(&rec, base->With(std::move(next))));
      }
      return st;
    }
    case Statement::Kind::kUpdate: {
      SKINNER_ASSIGN_OR_RETURN(
          BoundMutation m, BindUpdate(stmt.update.get(), &catalog_, &udfs_));
      if (m.num_params > 0) {
        return Status::InvalidArgument(
            "UPDATE with ? parameters requires Session::Prepare");
      }
      auto out = ExecuteMutationLocked(m);
      if (!out.ok()) return out.status();
      return Status::OK();
    }
    case Statement::Kind::kDelete: {
      SKINNER_ASSIGN_OR_RETURN(
          BoundMutation m, BindDelete(stmt.del.get(), &catalog_, &udfs_));
      if (m.num_params > 0) {
        return Status::InvalidArgument(
            "DELETE with ? parameters requires Session::Prepare");
      }
      auto out = ExecuteMutationLocked(m);
      if (!out.ok()) return out.status();
      return Status::OK();
    }
    case Statement::Kind::kSelect:
      break;
  }
  return Status::Internal("unreachable");
}

Result<QueryOutput> Database::ExecuteMutationLocked(const BoundMutation& m) {
  Stopwatch watch;
  const uint64_t appends_before = wal_ != nullptr ? wal_->appends() : 0;
  const uint64_t bytes_before = wal_ != nullptr ? wal_->bytes() : 0;
  // Two-phase: the scan sees only the pinned version, and a SET type error
  // surfaces before anything is written.
  SKINNER_ASSIGN_OR_RETURN(MutationPlan plan,
                           ComputeMutation(m, catalog_.string_pool()));
  if (!plan.cell_changes.empty() || !plan.deleted_rows.empty()) {
    std::unique_ptr<Table> next = m.table->Clone();
    SKINNER_RETURN_IF_ERROR(ApplyMutation(next.get(), plan));
    WalRecord rec;
    rec.table = m.table->name();
    if (m.kind == Statement::Kind::kUpdate) {
      rec.type = WalRecordType::kUpdateCells;
      rec.cells.reserve(plan.cell_changes.size());
      for (const auto& cc : plan.cell_changes) {
        rec.cells.push_back(WalRecord::Cell{cc.row, cc.col, cc.value});
      }
    } else {
      rec.type = WalRecordType::kDeleteRows;
      rec.deleted_rows = plan.deleted_rows;
    }
    SKINNER_RETURN_IF_ERROR(
        Commit(&rec, m.catalog_version->With(std::move(next))));
  }
  QueryOutput out;
  out.result.column_names = {"rows_affected"};
  out.result.rows.push_back({Value::Int(plan.rows_matched)});
  out.stats.total_cost = plan.cost;
  out.stats.wall_ms = watch.ElapsedMillis();
  out.stats.wal_appends =
      (wal_ != nullptr ? wal_->appends() : 0) - appends_before;
  out.stats.wal_bytes = (wal_ != nullptr ? wal_->bytes() : 0) - bytes_before;
  out.stats.recovery_replayed_records =
      recovery_replayed_.load(std::memory_order_relaxed);
  out.stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  return out;
}

Status Database::Commit(WalRecord* record,
                        std::shared_ptr<const CatalogVersion> next) {
  if (wal_ != nullptr) {
    SKINNER_RETURN_IF_ERROR(wal_->Append(record));
    wal_appends_.store(wal_->appends(), std::memory_order_relaxed);
    wal_bytes_.store(wal_->bytes(), std::memory_order_relaxed);
  }
  catalog_.Publish(std::move(next));
  return Status::OK();
}

Status Database::ApplyWalRecord(const WalRecord& record) {
  switch (record.type) {
    case WalRecordType::kCreateTable: {
      auto res = catalog_.CreateTable(record.table, Schema(record.columns));
      if (!res.ok()) return res.status();
      return Status::OK();
    }
    case WalRecordType::kDropTable:
      return catalog_.DropTable(record.table);
    case WalRecordType::kInsertRows:
    case WalRecordType::kUpdateCells:
    case WalRecordType::kDeleteRows: {
      Table* table = catalog_.FindTable(record.table);
      if (table == nullptr) {
        return Status::IoError("wal record references unknown table: " +
                               record.table);
      }
      if (record.type == WalRecordType::kInsertRows) {
        for (const auto& row : record.rows) {
          SKINNER_RETURN_IF_ERROR(table->AppendRow(row));
        }
      } else if (record.type == WalRecordType::kUpdateCells) {
        for (const auto& c : record.cells) {
          if (c.row < 0 || c.row >= table->num_rows() || c.col < 0 ||
              c.col >= table->schema().num_columns()) {
            return Status::IoError("wal update cell out of range in " +
                                   record.table);
          }
          SKINNER_RETURN_IF_ERROR(table->UpdateCell(c.row, c.col, c.value));
        }
      } else {
        for (int64_t r : record.deleted_rows) {
          if (r < 0 || r >= table->num_rows()) {
            return Status::IoError("wal delete row out of range in " +
                                   record.table);
          }
          table->DeleteRow(r);
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Result<std::unique_ptr<Database>> Database::Open(
    const std::string& dir, FsyncPolicy fsync,
    const SchedulerOptions& scheduler_opts) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError(
        StrFormat("mkdir %s: %s", dir.c_str(), std::strerror(errno)));
  }
  auto db = std::unique_ptr<Database>(new Database(scheduler_opts));
  db->storage_dir_ = dir;
  uint64_t snapshot_lsn = 0;
  SKINNER_RETURN_IF_ERROR(
      LoadSnapshot(dir + "/checkpoint.skdb", &db->catalog_, &snapshot_lsn));
  SKINNER_ASSIGN_OR_RETURN(WalReplay replay, ReplayWal(dir + "/wal.log"));
  // LSN fence: a crash between the snapshot rename and the WAL reset
  // leaves the compacted snapshot plus the whole pre-checkpoint log.
  // Records at or below the snapshot's fence are already inside it —
  // re-applying them would double-insert, and their row ids address the
  // pre-compaction numbering, so they must be skipped, not replayed.
  uint64_t applied = 0;
  for (const WalRecord& rec : replay.records) {
    if (rec.lsn <= snapshot_lsn) continue;
    SKINNER_RETURN_IF_ERROR(db->ApplyWalRecord(rec));
    ++applied;
  }
  db->recovery_replayed_.store(applied, std::memory_order_relaxed);
  // LSNs continue past both the fence and the log so they never repeat
  // across checkpoints.
  uint64_t next_lsn = snapshot_lsn + 1;
  if (!replay.records.empty() && replay.records.back().lsn >= next_lsn) {
    next_lsn = replay.records.back().lsn + 1;
  }
  SKINNER_ASSIGN_OR_RETURN(db->wal_,
                           WalWriter::Open(dir + "/wal.log", fsync, next_lsn));
  return db;
}

Status Database::Checkpoint() {
  // Blocks writers only: queries keep running on their pinned versions
  // while the snapshot is written.
  std::lock_guard<std::mutex> writer(writer_mu_);
  // Compaction rewrites masked tables into clones (bumping data_version,
  // so cached artifacts over the old row numbering die with them).
  std::shared_ptr<const CatalogVersion> next = catalog_.Current();
  for (const std::string& name : next->TableNames()) {
    const Table* table = next->FindTable(name);
    if (!table->has_deletes()) continue;
    std::unique_ptr<Table> compacted = table->Clone();
    compacted->Compact();
    next = next->With(std::move(compacted));
  }
  if (wal_ != nullptr) {
    // The snapshot commits with the current LSN fence before the log is
    // reset; a crash between the two replays nothing (every logged record
    // is <= the fence), so the window is idempotent. A failed snapshot
    // publishes nothing: the log still addresses the uncompacted rows.
    SKINNER_RETURN_IF_ERROR(WriteSnapshot(storage_dir_ + "/checkpoint.skdb",
                                          *next, *catalog_.string_pool(),
                                          wal_->last_lsn()));
  }
  // Once the snapshot is in place, later log records address the
  // compacted rows: publish before the reset, whatever the reset returns.
  catalog_.Publish(std::move(next));
  if (wal_ != nullptr) SKINNER_RETURN_IF_ERROR(wal_->Reset());
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<std::unique_ptr<BoundQuery>> Database::Bind(const std::string& sql) {
  QueryPipeline pipeline(&catalog_, &udfs_, &stats_, &cache_,
                         scheduler_.get());
  SKINNER_ASSIGN_OR_RETURN(Statement stmt, pipeline.Parse(sql));
  SKINNER_ASSIGN_OR_RETURN(BoundStage bound, pipeline.Bind(std::move(stmt)));
  return std::move(bound.query);
}

Result<QueryOutput> Database::Query(const std::string& sql,
                                    const ExecOptions& opts) {
  return default_session_->Query(sql, opts);
}

Result<PlanResult> Database::OptimizerOrder(const BoundQuery& query) {
  SKINNER_ASSIGN_OR_RETURN(QueryInfo info, QueryInfo::Analyze(query));
  Estimator estimator(&stats_);
  return OptimizeWithEstimates(info, query, &estimator);
}

Result<QueryOutput> Database::RunSelect(const BoundQuery& query,
                                        const ExecOptions& opts) {
  // The caller keeps its query; a private copy (pinning the same catalog
  // version) runs uncached.
  QueryPipeline pipeline(&catalog_, &udfs_, &stats_, /*cache=*/nullptr,
                         scheduler_.get());
  SKINNER_ASSIGN_OR_RETURN(PreparedStage prep,
                           pipeline.PrepareCore(query.Clone(), {}, opts));
  SKINNER_ASSIGN_OR_RETURN(ExecutedStage exec, pipeline.Execute(prep, opts));
  return pipeline.PostProcess(prep, std::move(exec));
}

std::vector<Result<QueryOutput>> Database::QueryBatch(
    const std::vector<BatchItem>& items, const BatchOptions& opts) {
  return default_session_->QueryBatch(items, opts);
}

std::vector<Result<QueryOutput>> Database::QueryBatchInternal(
    const std::vector<BatchItem>& items, const BatchOptions& bopts) {
  // Sharing scope: the database's cross-query cache, or a cache that lives
  // exactly as long as this batch.
  PreparedCache local_cache;
  PreparedCache* cache = bopts.use_prepared_cache ? &cache_ : &local_cache;
  QueryPipeline pipeline(&catalog_, &udfs_, &stats_, cache, scheduler_.get());

  // Parse + bind every item in order: binding is orders of magnitude
  // cheaper than the prepare/execute work the batch core runs next.
  std::vector<PipelineItem> bound(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    PipelineItem& item = bound[i];
    item.opts = items[i].opts;
    item.opts.use_prepared_cache = true;  // within-batch sharing is the point
    item.opts.seed = bopts.ItemSeed(i);
    auto stmt = pipeline.Parse(items[i].sql);
    if (!stmt.ok()) {
      item.status = stmt.status();
      continue;
    }
    auto b = pipeline.Bind(stmt.MoveValue());
    if (!b.ok()) {
      item.status = b.status();
      continue;
    }
    item.query = b.MoveValue().query;
  }
  return pipeline.ExecuteMany(std::move(bound), bopts.num_workers);
}

}  // namespace skinner
