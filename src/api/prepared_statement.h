#ifndef SKINNER_API_PREPARED_STATEMENT_H_
#define SKINNER_API_PREPARED_STATEMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/session.h"

namespace skinner {

/// A `?`-parameterized SELECT template, parsed and bound once by
/// Session::Prepare and executed many times with concrete values — the
/// driver-style surface that makes SkinnerDB's template-level learning an
/// API guarantee instead of an exact-SQL-string accident:
///
///  - Warm-started UCT: the template's signature abstracts parameters
///    into typed slots, so execution #2 with *different* constants still
///    seeds its UCT priors from execution #1's final join order (paper
///    4.2/4.5: learned order quality transfers across the template).
///  - Per-table artifact sharing: each execution splices its values in
///    and prepares through the one prepare core (QueryPipeline::
///    PrepareCore), which keys every FROM table's artifact by that table's
///    own filters. Tables whose filters mention no `?` share one
///    filtered+indexed artifact across all parameter sets (and with any
///    other query filtering them the same way); param-filtered tables
///    re-prepare just themselves. The per-table provenance is reported in
///    ExecutionStats (tables_prepared_from_cache / tables_reprepared).
///
/// Execution semantics are value-substitution: Execute({v0, v1, ...})
/// returns rows bit-identical to Query() on the SQL text with the values
/// spliced in as literals. NULL binds anywhere; a value whose type class
/// (string vs numeric) contradicts the slot's inferred type — or the
/// substituted expression tree's re-typecheck — yields an error Status.
///
/// A statement may also wrap a `?`-parameterized UPDATE or DELETE (the
/// only way to run parameterized DML — Database::Execute rejects `?`).
/// Mutation executions are writers like Database::Execute: they serialize
/// on the database's writer mutex, plan on the current catalog version,
/// commit a changed copy of the table after WAL-logging it, and return one
/// `rows_affected` row; none of the SELECT-side caching machinery above
/// applies.
///
/// The statement keeps its tables' names and ids, not the tables: every
/// execution re-resolves them in the catalog version it pins, so DML on
/// them since Prepare() is seen and a DROP or re-CREATE makes the
/// statement stale.
///
/// Thread-safety: like a driver statement handle, one execution at a
/// time per statement (it belongs to one session); use
/// Session::ExecuteBatch for concurrency — it serializes binding and
/// parallelizes execution.
class PreparedStatement {
 public:
  PreparedStatement(const PreparedStatement&) = delete;
  PreparedStatement& operator=(const PreparedStatement&) = delete;
  ~PreparedStatement();

  const std::string& sql() const { return sql_; }
  /// The parameter-abstracted template signature (warm-start cache key).
  const std::string& template_signature() const { return template_sig_; }

  int num_params() const;
  /// The inferred type of parameter `i` (kInt64 when no context inferred
  /// one; see param_type_known).
  DataType param_type(int i) const;
  bool param_type_known(int i) const;

  /// Executes the template with `params` bound, under the session's
  /// default options.
  Result<QueryOutput> Execute(const std::vector<Value>& params = {});
  /// Executes under explicit options (the session id is still folded into
  /// the seed; prepared-artifact caching is always on for statements).
  Result<QueryOutput> Execute(const std::vector<Value>& params,
                              const ExecOptions& opts);

 private:
  friend class Session;

  PreparedStatement(Session* session, std::string sql,
                    std::unique_ptr<BoundQuery> template_query);
  PreparedStatement(Session* session, std::string sql,
                    std::unique_ptr<BoundMutation> mutation);

  /// Post-bind analysis: template signature and table identities for
  /// staleness checks; releases the template's pinned catalog version.
  Status Init();

  /// Arity + inferred-type-class validation of one parameter set.
  Status CheckParams(const std::vector<Value>& params) const;

  /// Resolves the template's tables in `version` by name, in template
  /// order; each must still carry the id it had at Prepare (a DROP or
  /// re-CREATE since then makes the statement stale).
  Status ResolveTables(const CatalogVersion& version,
                       std::vector<const Table*>* tables) const;

  /// The executable query for one parameter set: validates the values,
  /// pins the current catalog version and resolves the tables in it,
  /// substitutes the values into a clone of the template as literals and
  /// re-typechecks it. Looks string values up in the pool.
  Result<std::unique_ptr<BoundQuery>> Instantiate(
      const std::vector<Value>& params) const;

  /// Used by Session::ExecuteBatch: instantiates every parameter set in
  /// order, then runs QueryPipeline::ExecuteMany (sequential prepare,
  /// concurrent execute/post-process).
  std::vector<Result<QueryOutput>> ExecuteMany(
      const std::vector<std::vector<Value>>& param_sets,
      const BatchOptions& bopts, const ExecOptions& base_opts);

  /// The DML execution core (caller-agnostic parts shared by Execute and
  /// ExecuteMany's rejection path).
  Result<QueryOutput> ExecuteMutation(const std::vector<Value>& params);

  Session* const session_;
  Database* const db_;
  const std::string sql_;
  /// Exactly one of template_ (SELECT) / mutation_ (UPDATE/DELETE) is set.
  std::unique_ptr<BoundQuery> template_;
  std::unique_ptr<BoundMutation> mutation_;
  std::string template_sig_;
  /// Table identities at prepare time, for re-resolution and staleness
  /// detection.
  std::vector<std::string> table_names_;
  std::vector<uint64_t> table_ids_;
};

}  // namespace skinner

#endif  // SKINNER_API_PREPARED_STATEMENT_H_
