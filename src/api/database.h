#ifndef SKINNER_API_DATABASE_H_
#define SKINNER_API_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/eddy.h"
#include "baselines/reopt.h"
#include "common/hash_util.h"
#include "exec/prepared_cache.h"
#include "post/post_processor.h"
#include "exec/mutation.h"
#include "skinner/skinner_c.h"
#include "skinner/skinner_g.h"
#include "skinner/skinner_h.h"
#include "sql/parser.h"
#include "stats/estimator.h"
#include "txn/wal.h"

namespace skinner {

class Scheduler;
struct SchedulerOptions;

/// Query evaluation strategies available through the public API.
enum class EngineKind {
  kSkinnerC,      // paper Section 4.5: custom engine, in-query learning
  kSkinnerG,      // paper Section 4.3: learning over a generic engine
  kSkinnerH,      // paper Section 4.4: hybrid optimizer/learning
  kVolcano,       // traditional engine + traditional DP optimizer
  kBlock,         // materializing engine + traditional DP optimizer
  kRandomOrder,   // Skinner-C machinery, random order selection (Table 5)
  kEddy,          // adaptive per-tuple routing baseline
  kReopt,         // mid-query re-optimization baseline
};

const char* EngineKindName(EngineKind kind);

/// Per-query execution options. Defaults match the paper's configuration.
struct ExecOptions {
  EngineKind engine = EngineKind::kSkinnerC;

  // Skinner-C.
  int64_t slice_budget = 500;        // b: loop iterations per time slice
  double uct_weight_c = 1e-6;        // w for Skinner-C
  RewardKind reward = RewardKind::kWeightedProgress;
  bool collect_trace = false;
  /// Search-parallel Skinner-C workers (paper Section 4.4): disjoint
  /// pieces of the leftmost table's range executed under one shared UCT
  /// tree, as ParallelFor indices on the database's scheduler. 1 =
  /// sequential.
  int skinner_threads = 1;

  // Skinner-G / Skinner-H.
  int batches_per_table = 10;
  uint64_t timeout_unit = 2000;      // cost units of the smallest timeout
  double uct_weight_g = 1.4142135623730951;  // w = sqrt(2)
  GenericEngineKind generic_engine = GenericEngineKind::kVolcano;

  // Pre-processing.
  bool build_hash_indexes = true;
  /// Pre-processing width: num_threads when parallel_preprocess, else 1.
  /// The build runs on the database's scheduler, and its virtual cost is
  /// charged at this configured width (PrepareOptions::width).
  bool parallel_preprocess = false;
  int num_threads = 4;

  /// Serve each table's pre-processing artifact (filtered rows + hash
  /// indexes) from the database's cross-query PreparedCache when an
  /// earlier query filtered and indexed the same table the same way and
  /// the table is unchanged since; fresh artifacts are published for
  /// reuse. A query whose tables all hit reports preprocess_cost 0 (plus
  /// any constant-predicate evaluation) and returns bit-identical results.
  /// Also seeds Skinner-C's UCT priors from the query signature's last
  /// final join order (see SkinnerCOptions). Off by default: the
  /// paper-reproduction benchmarks charge pre-processing per query.
  /// QueryBatch() and PreparedStatement executions always use the cache.
  bool use_prepared_cache = false;

  // Traditional engines: force this join order instead of optimizing
  // (used to replay Skinner/optimal orders, paper Tables 3/4).
  std::vector<int> forced_order;

  uint64_t seed = 42;
  /// Global virtual-clock deadline (units); censors runaway executions.
  uint64_t deadline = UINT64_MAX;

  /// Serve reads from the PreparedCache but never publish new artifacts
  /// into it (warm-start orders are still recorded — they are a few
  /// ints). The server flips this once a session exhausts its cache
  /// byte-share quota, so one greedy session cannot evict everyone else's
  /// artifacts; results are unchanged, repeated work just stays unshared.
  bool cache_read_only = false;
};

/// Everything measured about one query execution.
struct ExecutionStats {
  double wall_ms = 0;
  uint64_t total_cost = 0;       // virtual units: preprocessing + join
  uint64_t preprocess_cost = 0;  // 0 when served from the PreparedCache
  /// True when every FROM table's artifact was served from the
  /// PreparedCache.
  bool prepared_from_cache = false;
  /// True when a warm-start join order keyed by this query's (parameter-
  /// abstracted) template signature was found in the cache — i.e. this is
  /// execution >= 2 of the template and UCT was (or could be) seeded.
  bool template_signature_hit = false;
  /// Per-table artifact provenance when the PreparedCache is in use (both
  /// 0 otherwise): how many FROM tables reused a cached artifact vs were
  /// built for this execution on a miss.
  int tables_prepared_from_cache = 0;
  int tables_reprepared = 0;
  /// Bytes of freshly built artifacts this execution published into the
  /// PreparedCache (0 on hits and under ExecOptions::cache_read_only);
  /// what the server charges against a session's cache byte share.
  uint64_t cache_bytes_published = 0;
  uint64_t join_result_tuples = 0;
  /// Accumulated intermediate result cardinality actually produced (the
  /// engine-independent optimizer-quality metric of paper Tables 1/2).
  uint64_t intermediate_tuples = 0;
  bool timed_out = false;
  std::vector<int> join_order;   // final (Skinner) or executed (others)

  // Skinner-C specifics.
  uint64_t slices = 0;
  /// Join tuples emitted before the export dedup, duplicates included
  /// (>= join_result_tuples; SkinnerCStats::emitted_tuples).
  uint64_t emitted_tuples = 0;
  size_t uct_nodes = 0;
  size_t progress_nodes = 0;
  size_t auxiliary_bytes = 0;
  /// Adaptive chunk splits on the parallel progress board (chunk-stealing
  /// mode only; 0 otherwise).
  uint64_t chunk_splits = 0;
  std::vector<std::pair<uint64_t, size_t>> tree_growth;
  std::map<std::vector<int>, uint64_t> order_selections;

  // Baseline specifics.
  int replans = 0;           // kReopt
  uint64_t iterations = 0;   // kSkinnerG batch iterations
  double estimated_cost = 0; // optimizer's estimate for its chosen plan

  // Durability (mutation executions; 0 on SELECTs). Appends/bytes are the
  // WAL frames this statement wrote; replayed/checkpoints are database
  // lifetime totals at execution time.
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t recovery_replayed_records = 0;
  uint64_t checkpoints = 0;
};

struct QueryOutput {
  QueryResult result;
  ExecutionStats stats;
};

/// One SELECT of a concurrent batch (see Database::QueryBatch).
struct BatchItem {
  std::string sql;
  /// Engine + knobs for this item. The seed is overridden by the batch's
  /// per-item seed; the prepared-artifact cache is always on within a
  /// batch (BatchOptions::use_prepared_cache picks which cache).
  ExecOptions opts;
};

/// Options of one Database::QueryBatch / Session::ExecuteBatch call.
struct BatchOptions {
  /// Items executing concurrently (1 = sequential). Workers are
  /// participation slots on the database's scheduler, not dedicated
  /// threads: no per-call pool is ever spun up.
  int num_workers = 4;
  /// Share per-table artifacts through the database's cross-query
  /// PreparedCache. When false, items share them through a cache that
  /// lives exactly as long as the batch, so nothing persists afterwards.
  /// Either way sharing within a batch goes through a cache: an artifact
  /// larger than the cache's byte budget is rebuilt by every item.
  bool use_prepared_cache = true;
  /// Each item's execution seed is derived from (seed, item index) — see
  /// ItemSeed — so per-item results and statistics are a pure function of
  /// the batch: bit-identical for any num_workers or thread schedule.
  uint64_t seed = 42;

  /// The derived seed of item `i`.
  uint64_t ItemSeed(size_t i) const {
    return HashMix64(seed + 0x9e3779b97f4a7c15ULL * (i + 1));
  }
};

class Session;

/// The SkinnerDB database facade: owns catalog, string pool, UDF registry,
/// statistics and the cross-query PreparedCache; parses SQL; routes
/// SELECTs through the staged query pipeline (api/query_pipeline.h):
/// parse -> bind -> prepare -> execute -> post-process.
///
/// Client-facing work goes through Session handles (api/session.h):
/// CreateSession() returns a per-client handle with its own default
/// ExecOptions, seed derivation and stats roll-up, plus
/// Session::Prepare() for `?`-parameterized statements. Query()/
/// QueryBatch() below remain as thin wrappers over a built-in default
/// session (id 0, which leaves seeds untouched), so existing callers are
/// unchanged.
class Database {
 public:
  Database();
  /// Constructs the database with explicit worker-pool options (admission
  /// bounds, worker count) — what skinner_serve uses to size its one
  /// global scheduler. The default constructor uses SchedulerOptions{}
  /// (see common/scheduler.h for the defaults).
  explicit Database(const SchedulerOptions& scheduler_opts);
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Opens (or creates) a durable database rooted at directory `dir`:
  /// loads the last checkpoint snapshot (`checkpoint.skdb`), replays the
  /// write-ahead log (`wal.log`, truncating any torn tail), and attaches a
  /// WAL writer so every subsequent DDL/DML is logged. A database built
  /// with the plain constructors is in-memory only (no WAL, Checkpoint()
  /// compacts but persists nothing).
  static Result<std::unique_ptr<Database>> Open(
      const std::string& dir, FsyncPolicy fsync = FsyncPolicy::kNever,
      const SchedulerOptions& scheduler_opts = {});

  /// Compacts every table's validity mask and — for a durable database —
  /// atomically writes a fresh snapshot and resets the WAL. Runs as a
  /// writer: it waits for and blocks other writers only, and queries keep
  /// running on the versions they pinned while the snapshot is written.
  Status Checkpoint();

  /// Durability counters (this process's appends; lifetime replay count).
  struct WalStats {
    uint64_t wal_appends = 0;
    uint64_t wal_bytes = 0;
    uint64_t recovery_replayed_records = 0;
    uint64_t checkpoints = 0;
  };
  WalStats wal_stats() const {
    return WalStats{wal_appends_.load(std::memory_order_relaxed),
                    wal_bytes_.load(std::memory_order_relaxed),
                    recovery_replayed_.load(std::memory_order_relaxed),
                    checkpoints_.load(std::memory_order_relaxed)};
  }
  bool durable() const { return wal_ != nullptr; }

  Catalog* catalog() { return &catalog_; }
  UdfRegistry* udfs() { return &udfs_; }
  StatsManager* stats_manager() { return &stats_; }
  /// The cross-query cache of per-table pre-processing artifacts
  /// (hit/miss stats, manual Clear()); populated by Query() when
  /// ExecOptions::use_prepared_cache asks for it, by QueryBatch() when
  /// BatchOptions::use_prepared_cache does, and always by
  /// PreparedStatement executions.
  PreparedCache* prepared_cache() { return &cache_; }

  /// The database's global worker pool (common/scheduler.h): every piece
  /// of parallel work under this database — batch execution, parallel
  /// pre-processing, the Skinner-C slice workers — runs on it, and a server
  /// submits whole queries through it for fairness and admission control.
  Scheduler* scheduler() const { return scheduler_.get(); }

  /// Creates a per-client session handle (unique id >= 1; folded into
  /// seed derivation so concurrent clients with identical options explore
  /// independently). The handle must not outlive the database.
  std::unique_ptr<Session> CreateSession(const ExecOptions& defaults = {});

  /// The built-in session (id 0: seeds pass through unchanged) that
  /// Query()/QueryBatch() run on.
  Session* default_session() { return default_session_.get(); }

  /// Executes a DDL/DML statement (CREATE TABLE / INSERT / DROP TABLE /
  /// UPDATE / DELETE). Statements with `?` parameters are rejected — use
  /// Session::Prepare for parameterized DML. The change is made on private
  /// copies of what it touches and becomes visible to queries binding
  /// after it in one step, once it is WAL-logged (durable database); a
  /// failed log append publishes nothing. Queries already running never
  /// see it, and never wait for it.
  Status Execute(const std::string& sql);

  /// Executes a SELECT and returns rows plus execution statistics.
  Result<QueryOutput> Query(const std::string& sql,
                            const ExecOptions& opts = {});

  /// Executes many SELECTs, `opts.num_workers` at a time: binds every item
  /// in order, then runs the batch core (QueryPipeline::ExecuteMany) that
  /// PreparedStatement batches use too. Per-table artifacts are shared
  /// through the PreparedCache — built by the first item that needs one
  /// and reused by every later item that filters the table the same way
  /// (and, with use_prepared_cache, by later queries too), as long as the
  /// artifact fits the cache's byte budget. Results are per item, in item
  /// order, and bit-identical for any worker count. Items must be SELECTs;
  /// each pins the catalog version current when it binds.
  std::vector<Result<QueryOutput>> QueryBatch(
      const std::vector<BatchItem>& items, const BatchOptions& opts = {});

  /// Parses and binds a SELECT without running it (for benchmarks that
  /// re-execute one query under many engines). The query pins the current
  /// catalog version, so it runs on the same data however often it runs.
  Result<std::unique_ptr<BoundQuery>> Bind(const std::string& sql);

  /// Runs an already-bound SELECT (on a private copy). Never touches the
  /// PreparedCache.
  Result<QueryOutput> RunSelect(const BoundQuery& query,
                                const ExecOptions& opts = {});

  /// The join order the traditional DP optimizer would pick (with its
  /// estimated C_out cost); exposed for benchmarks and Skinner-H.
  Result<PlanResult> OptimizerOrder(const BoundQuery& query);

 private:
  friend class Session;
  friend class PreparedStatement;

  /// The batch engine Session::QueryBatch runs on (seed already derived).
  std::vector<Result<QueryOutput>> QueryBatchInternal(
      const std::vector<BatchItem>& items, const BatchOptions& opts);

  /// Plans one bound UPDATE/DELETE on its pinned table, applies the plan
  /// to a clone and commits it, returning the rows_affected result row +
  /// stats. Caller must hold writer_mu_, and `m` must be bound in the
  /// current version under it (Execute() binds there; PreparedStatement
  /// re-resolves its table there).
  Result<QueryOutput> ExecuteMutationLocked(const BoundMutation& m);
  /// Applies one replayed WAL record during Open().
  Status ApplyWalRecord(const WalRecord& record);
  /// The commit point of every writer (caller holds writer_mu_): appends
  /// `record` to the log (durable database; the append fsyncs under
  /// FsyncPolicy::kAlways), then publishes `next` with one pointer swap.
  /// A failed append publishes nothing.
  Status Commit(WalRecord* record, std::shared_ptr<const CatalogVersion> next);

  Catalog catalog_;
  UdfRegistry udfs_;
  StatsManager stats_;
  PreparedCache cache_;
  std::unique_ptr<Scheduler> scheduler_;  // constructed in database.cc
  /// Serializes writers — Execute(), prepared UPDATE/DELETE executions and
  /// Checkpoint() — among themselves, which is also the WAL append order.
  /// Queries never take it: each pins a catalog version when it binds
  /// (BoundQuery::catalog_version), so a writer neither waits for a
  /// running query nor changes anything it reads, and a DROP leaves the
  /// dropped table alive for the queries that still pin it.
  std::mutex writer_mu_;
  std::atomic<uint64_t> next_session_id_{1};
  std::unique_ptr<Session> default_session_;  // constructed in database.cc

  /// Durability (null for in-memory databases). All appends happen under
  /// writer_mu_; the atomics republish the writer's counters so STATS
  /// readers never race a DML in flight.
  std::unique_ptr<WalWriter> wal_;
  std::string storage_dir_;
  std::atomic<uint64_t> wal_appends_{0};
  std::atomic<uint64_t> wal_bytes_{0};
  std::atomic<uint64_t> recovery_replayed_{0};
  std::atomic<uint64_t> checkpoints_{0};
};

}  // namespace skinner

#endif  // SKINNER_API_DATABASE_H_
