#include "api/session.h"

#include <shared_mutex>
#include <utility>

#include "api/prepared_statement.h"
#include "api/query_pipeline.h"
#include "common/hash_util.h"
#include "common/scheduler.h"

namespace skinner {

Session::Session(Database* db, uint64_t id, ExecOptions defaults)
    : db_(db), id_(id), defaults_(std::move(defaults)) {}

Session::~Session() = default;

uint64_t Session::DeriveSeed(uint64_t seed) const {
  if (id_ == 0) return seed;  // the built-in default session is transparent
  return HashMix64(seed ^ (id_ * 0x9e3779b97f4a7c15ULL));
}

void Session::Roll(const Result<QueryOutput>& result) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (!result.ok()) {
    ++stats_.errors;
    return;
  }
  const ExecutionStats& s = result.value().stats;
  ++stats_.queries;
  stats_.total_cost += s.total_cost;
  stats_.preprocess_cost += s.preprocess_cost;
  if (s.prepared_from_cache) ++stats_.prepared_from_cache;
  if (s.template_signature_hit) ++stats_.template_hits;
  stats_.tables_prepared_from_cache +=
      static_cast<uint64_t>(s.tables_prepared_from_cache);
  stats_.tables_reprepared += static_cast<uint64_t>(s.tables_reprepared);
}

void Session::RollPrepared() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.statements_prepared;
}

SessionStats Session::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

Result<QueryOutput> Session::Query(const std::string& sql) {
  return Query(sql, defaults_);
}

Result<QueryOutput> Session::Query(const std::string& sql,
                                   const ExecOptions& opts) {
  ExecOptions eopts = opts;
  eopts.seed = DeriveSeed(opts.seed);
  // Shared: any number of sessions query concurrently; DDL (exclusive)
  // waits for them and blocks new ones (see Database::ddl_mu_).
  std::shared_lock<std::shared_mutex> ddl_lock(db_->ddl_mu_);
  QueryPipeline pipeline(db_->catalog(), db_->udfs(), db_->stats_manager(),
                         db_->prepared_cache(), db_->scheduler());
  Result<QueryOutput> out = pipeline.Run(sql, eopts);
  ddl_lock.unlock();
  Roll(out);
  return out;
}

std::vector<Result<QueryOutput>> Session::QueryBatch(
    const std::vector<BatchItem>& items, const BatchOptions& opts) {
  BatchOptions bopts = opts;
  bopts.seed = DeriveSeed(opts.seed);
  std::shared_lock<std::shared_mutex> ddl_lock(db_->ddl_mu_);
  std::vector<Result<QueryOutput>> results =
      db_->QueryBatchInternal(items, bopts);
  ddl_lock.unlock();
  for (const auto& r : results) Roll(r);
  return results;
}

Result<std::unique_ptr<PreparedStatement>> Session::Prepare(
    const std::string& sql) {
  std::shared_lock<std::shared_mutex> ddl_lock(db_->ddl_mu_);
  SKINNER_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  if (stmt.kind == Statement::Kind::kUpdate ||
      stmt.kind == Statement::Kind::kDelete) {
    Result<BoundMutation> bound =
        stmt.kind == Statement::Kind::kUpdate
            ? BindUpdate(stmt.update.get(), db_->catalog(), db_->udfs())
            : BindDelete(stmt.del.get(), db_->catalog(), db_->udfs());
    if (!bound.ok()) return bound.status();
    std::unique_ptr<PreparedStatement> handle(new PreparedStatement(
        this, sql, std::make_unique<BoundMutation>(bound.MoveValue())));
    SKINNER_RETURN_IF_ERROR(handle->Init());
    RollPrepared();
    return handle;
  }
  QueryPipeline pipeline(db_->catalog(), db_->udfs(), db_->stats_manager(),
                         db_->prepared_cache(), db_->scheduler());
  SKINNER_ASSIGN_OR_RETURN(BoundStage bound, pipeline.Bind(std::move(stmt)));
  std::unique_ptr<PreparedStatement> handle(
      new PreparedStatement(this, sql, std::move(bound.query)));
  SKINNER_RETURN_IF_ERROR(handle->Init());
  RollPrepared();
  return handle;
}

std::vector<Result<QueryOutput>> Session::ExecuteBatch(
    PreparedStatement* stmt, const std::vector<std::vector<Value>>& param_sets,
    const BatchOptions& opts) {
  BatchOptions bopts = opts;
  bopts.seed = DeriveSeed(opts.seed);
  std::shared_lock<std::shared_mutex> ddl_lock(db_->ddl_mu_);
  std::vector<Result<QueryOutput>> results =
      stmt->ExecuteMany(param_sets, bopts, defaults_);
  ddl_lock.unlock();
  for (const auto& r : results) Roll(r);
  return results;
}

}  // namespace skinner
