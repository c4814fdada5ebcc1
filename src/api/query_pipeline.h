#ifndef SKINNER_API_QUERY_PIPELINE_H_
#define SKINNER_API_QUERY_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/clock.h"
#include "exec/prepared_cache.h"

namespace skinner {

/// Output of the bind stage: the fully resolved query.
struct BoundStage {
  std::unique_ptr<BoundQuery> query;
};

/// Output of the prepare stage: the executed query and its analysis, the
/// per-table pre-processing artifacts (inside `pq`), and everything
/// per-execution — the virtual clock this execution ticks, the wall-clock
/// stopwatch, and the warm-start hint. Movable; `pq` points into `query`,
/// `info` and `clock`, which live on the heap exactly so moves keep them
/// stable.
struct PreparedStage {
  std::unique_ptr<BoundQuery> query;  // every `?` already substituted
  std::unique_ptr<QueryInfo> info;
  std::unique_ptr<PreparedQuery> pq;  // per-execution view
  std::unique_ptr<VirtualClock> clock;
  Stopwatch watch;
  /// Warm-start key: the (parameter-abstracted) template signature; empty
  /// when the execution does not use the PreparedCache.
  std::string signature;
  /// UCT warm-start hint: the last final join order recorded under
  /// `signature` (empty if none).
  std::vector<int> warm_order;
};

/// Output of the execute stage: the join result in position space plus the
/// engine's counters. Post-processing turns it into the final rows.
struct ExecutedStage {
  std::unique_ptr<ResultSet> join_result;
  ExecutionStats stats;
};

/// One item of QueryPipeline::ExecuteMany: the arguments of PrepareCore,
/// or the error that stopped the item before prepare.
struct PipelineItem {
  Status status;
  std::unique_ptr<BoundQuery> query;
  std::string signature;
  ExecOptions opts;
};

/// The staged SELECT pipeline (paper Figure 2, plus parse/bind):
///
///   parse -> bind -> prepare -> execute -> post-process
///
/// Each stage consumes the previous stage's context object, so callers can
/// run the stages back to back (Run(), which is what Database::Query does)
/// or interleave the stages of many queries (ExecuteMany, which is what
/// QueryBatch and PreparedStatement::ExecuteMany do).
///
/// There is one prepare core, PrepareCore(), for every entry point: a
/// literal SELECT is a template with zero parameters, and a prepared
/// statement splices its values in before calling it.
///
/// The pipeline object itself is stateless apart from the injected
/// components and is cheap to construct; Execute/PostProcess only touch
/// thread-safe or per-stage state, so any number of pipelines over the
/// same database may run prepare/execute/post-process stages in parallel.
class QueryPipeline {
 public:
  /// `scheduler` hosts the pipeline's parallel work (parallel
  /// pre-processing, the Skinner-C slice workers, batch execution). Null
  /// runs all of it inline on the calling thread, with the same results;
  /// Database always passes its own scheduler.
  QueryPipeline(Catalog* catalog, const UdfRegistry* udfs,
                StatsManager* stats, PreparedCache* cache,
                Scheduler* scheduler = nullptr);

  /// Stage 1: SQL text -> parsed statement (must be a SELECT).
  Result<Statement> Parse(const std::string& sql) const;

  /// Stage 2: parsed SELECT -> bound query. Interns string literals into
  /// the catalog's pool (not thread-safe; serialize bind stages).
  Result<BoundStage> Bind(Statement stmt) const;

  /// Stage 3: bound literal SELECT -> prepared stage (PrepareCore with
  /// the query's own signature).
  Result<PreparedStage> Prepare(BoundStage bound, const ExecOptions& opts) const;

  /// The one prepare core. Analyzes `query` and runs PreparedQuery::Prepare
  /// over it. With opts.use_prepared_cache (and a cache), every table's
  /// artifact comes from the PreparedCache when one with the same table,
  /// filters and index columns is fresh there, and fresh builds are
  /// published for reuse; concurrent prepares coordinate through the
  /// cache's claim-all protocol, so each artifact is built once. The
  /// warm-start hint is read under `signature` (empty: the query's own
  /// signature). Without the cache no key or signature is computed and no
  /// cache lock taken. A query with `?` parameters left is rejected — only
  /// PreparedStatement may run those, after substituting its values.
  /// Thread-safe.
  Result<PreparedStage> PrepareCore(std::unique_ptr<BoundQuery> query,
                                    std::string signature,
                                    const ExecOptions& opts) const;

  /// Stage 4: runs the chosen engine over the prepared artifact; fills the
  /// engine counters. Records Skinner-C's final order as the signature's
  /// warm-start hint. Thread-safe across distinct PreparedStages.
  Result<ExecutedStage> Execute(const PreparedStage& prep,
                                const ExecOptions& opts) const;

  /// Stage 5: post-processes the join result into final rows and closes
  /// the books (total cost, wall time, cache provenance).
  Result<QueryOutput> PostProcess(const PreparedStage& prep,
                                  ExecutedStage exec) const;

  /// All five stages back to back.
  Result<QueryOutput> Run(const std::string& sql,
                          const ExecOptions& opts) const;

  /// The batch core: prepares every item in item order through
  /// PrepareCore, then executes and post-processes the items concurrently
  /// on up to `num_workers` participation slots of the scheduler.
  /// Preparing sequentially is what makes a batch deterministic: the first
  /// item that needs a table's artifact builds it and later items are
  /// served by the cache, and every warm-start hint is read before any
  /// item executes. Results are in item order and bit-identical for any
  /// worker count.
  std::vector<Result<QueryOutput>> ExecuteMany(std::vector<PipelineItem> items,
                                               int num_workers) const;

 private:
  Catalog* catalog_;
  const UdfRegistry* udfs_;
  StatsManager* stats_;
  PreparedCache* cache_;   // may be null: caching disabled
  Scheduler* scheduler_;   // may be null: inline parallel work
};

}  // namespace skinner

#endif  // SKINNER_API_QUERY_PIPELINE_H_
