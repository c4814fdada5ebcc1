#ifndef SKINNER_API_SESSION_H_
#define SKINNER_API_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/database.h"

namespace skinner {

class PreparedStatement;

/// Cumulative per-session execution counters (see Session). All roll-ups
/// are over queries issued through this session, including prepared
/// statement executions and batch items.
struct SessionStats {
  uint64_t queries = 0;  // successful executions
  uint64_t errors = 0;   // executions that returned a non-OK Status
  uint64_t statements_prepared = 0;
  uint64_t total_cost = 0;       // virtual units across all executions
  uint64_t preprocess_cost = 0;  // virtual units spent pre-processing
  /// Executions whose pre-processing was served entirely from cache.
  uint64_t prepared_from_cache = 0;
  /// Executions that found a warm-start order for their template.
  uint64_t template_hits = 0;
  /// Per-table artifact provenance totals (prepared statement path).
  uint64_t tables_prepared_from_cache = 0;
  uint64_t tables_reprepared = 0;
};

/// A lightweight per-client handle onto a shared Database — the unit a
/// driver or connection pool hands to each user. A session owns
///
///  - default ExecOptions applied by the no-options Query() overload (and
///    as the base options of prepared statement executions),
///  - a session id folded into every execution's seed derivation, so two
///    sessions running identical workloads explore independently while
///    each session alone stays deterministic (id 0 — the database's
///    built-in default session — leaves seeds untouched for backward
///    compatibility), and
///  - a SessionStats roll-up across everything it executed.
///
/// Prepare() turns a `?`-parameterized SELECT into a PreparedStatement
/// whose executions share pre-processing artifacts per table and
/// warm-start UCT from the template's previously learned join order (see
/// api/prepared_statement.h).
///
/// Thread-safety: a session may be used from one thread at a time (like a
/// driver connection); distinct sessions over one Database run queries,
/// prepares, and statement executions fully concurrently — the string
/// pool is internally locked, and every query pins the catalog version it
/// binds against, so concurrent writers (Database::Execute, prepared DML,
/// Checkpoint) neither wait for it nor change what it reads; a later
/// query sees their effects, and a statement whose table was dropped or
/// re-created fails cleanly as stale. Stats roll-ups are internally locked
/// (batch workers update them concurrently).
class Session {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  uint64_t id() const { return id_; }
  Database* database() const { return db_; }

  const ExecOptions& defaults() const { return defaults_; }
  ExecOptions* mutable_defaults() { return &defaults_; }

  /// Executes a SELECT under the session's default options, on the
  /// catalog version current when it binds. Takes no lock.
  Result<QueryOutput> Query(const std::string& sql);
  /// Executes a SELECT under explicit options (the session id is still
  /// folded into the seed).
  Result<QueryOutput> Query(const std::string& sql, const ExecOptions& opts);

  /// Executes many SELECTs concurrently (see Database::QueryBatch); the
  /// session id is folded into the batch seed.
  std::vector<Result<QueryOutput>> QueryBatch(const std::vector<BatchItem>& items,
                                              const BatchOptions& opts = {});

  /// Parses and binds a `?`-parameterized SELECT, UPDATE or DELETE into a
  /// reusable statement handle (the only way to run parameterized DML).
  /// The statement must not outlive this session.
  Result<std::unique_ptr<PreparedStatement>> Prepare(const std::string& sql);

  /// Executes `stmt` once per parameter set, `opts.num_workers` at a
  /// time. Artifact building is deduplicated across param sets through
  /// the per-table cache; per-item seeds derive from (session, batch
  /// seed, index), so per-item results are bit-identical for any worker
  /// count. Results are per param set, in order.
  std::vector<Result<QueryOutput>> ExecuteBatch(
      PreparedStatement* stmt, const std::vector<std::vector<Value>>& param_sets,
      const BatchOptions& opts = {});

  SessionStats stats() const;

  /// Folds the session id into a seed: id 0 passes the seed through
  /// unchanged; any other id derives an independent deterministic stream.
  uint64_t DeriveSeed(uint64_t seed) const;

 private:
  friend class Database;
  friend class PreparedStatement;

  Session(Database* db, uint64_t id, ExecOptions defaults);

  /// Accumulates one execution's outcome into the roll-up (thread-safe).
  void Roll(const Result<QueryOutput>& result);
  void RollPrepared();

  Database* const db_;
  const uint64_t id_;
  ExecOptions defaults_;
  mutable std::mutex stats_mu_;
  SessionStats stats_;
};

}  // namespace skinner

#endif  // SKINNER_API_SESSION_H_
