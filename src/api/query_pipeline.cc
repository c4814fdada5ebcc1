#include "api/query_pipeline.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/scheduler.h"
#include "optimizer/dp_optimizer.h"

namespace skinner {

QueryPipeline::QueryPipeline(Catalog* catalog, const UdfRegistry* udfs,
                             StatsManager* stats, PreparedCache* cache,
                             Scheduler* scheduler)
    : catalog_(catalog),
      udfs_(udfs),
      stats_(stats),
      cache_(cache),
      scheduler_(scheduler) {}

Result<Statement> QueryPipeline::Parse(const std::string& sql) const {
  SKINNER_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  return stmt;
}

Result<BoundStage> QueryPipeline::Bind(Statement stmt) const {
  if (stmt.kind != Statement::Kind::kSelect || stmt.select == nullptr) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  BoundStage stage;
  stage.query = std::make_unique<BoundQuery>();
  SKINNER_ASSIGN_OR_RETURN(*stage.query,
                           BindSelect(stmt.select.get(), catalog_, udfs_));
  return stage;
}

Result<PreparedStage> QueryPipeline::Prepare(BoundStage bound,
                                             const ExecOptions& opts) const {
  return PrepareCore(std::move(bound.query), /*signature=*/{}, opts);
}

Result<PreparedStage> QueryPipeline::PrepareCore(
    std::unique_ptr<BoundQuery> query, std::string signature,
    const ExecOptions& opts) const {
  if (query->num_params > 0) {
    return Status::InvalidArgument(
        "query contains ? parameters; prepare it with Session::Prepare and "
        "execute it with bound values");
  }
  PreparedStage stage;
  stage.query = std::move(query);
  stage.clock = std::make_unique<VirtualClock>();
  SKINNER_ASSIGN_OR_RETURN(QueryInfo info, QueryInfo::Analyze(*stage.query));
  stage.info = std::make_unique<QueryInfo>(std::move(info));

  const bool caching = opts.use_prepared_cache && cache_ != nullptr;
  PrepareOptions popts;
  popts.build_hash_indexes = opts.build_hash_indexes;
  popts.width = opts.parallel_preprocess ? opts.num_threads : 1;
  popts.scheduler = scheduler_;
  popts.cache = caching ? cache_ : nullptr;
  SKINNER_ASSIGN_OR_RETURN(
      stage.pq,
      PreparedQuery::Prepare(stage.query.get(), stage.info.get(),
                             catalog_->string_pool(), stage.clock.get(),
                             popts));
  if (caching) {
    stage.signature = signature.empty() ? ComputeQuerySignature(*stage.query)
                                        : std::move(signature);
    // A previous execution of the template (even one since invalidated)
    // may have left a useful join order behind.
    stage.warm_order = cache_->WarmOrder(stage.signature);
  }
  return stage;
}

Result<ExecutedStage> QueryPipeline::Execute(const PreparedStage& prep,
                                             const ExecOptions& opts) const {
  const PreparedQuery* pq = prep.pq.get();
  ExecutedStage out;
  std::vector<int64_t> cardinalities(static_cast<size_t>(pq->num_tables()));
  for (int t = 0; t < pq->num_tables(); ++t) {
    cardinalities[static_cast<size_t>(t)] = pq->cardinality(t);
  }
  out.join_result = std::make_unique<ResultSet>(cardinalities);
  ResultSet& join_result = *out.join_result;
  if (pq->trivially_empty()) return out;

  switch (opts.engine) {
    case EngineKind::kSkinnerC:
    case EngineKind::kRandomOrder: {
      SkinnerCOptions so;
      so.slice_budget = opts.slice_budget;
      so.uct_weight = opts.uct_weight_c;
      so.policy = opts.engine == EngineKind::kRandomOrder
                      ? SelectionPolicy::kRandom
                      : SelectionPolicy::kUct;
      so.reward = opts.reward;
      so.seed = opts.seed;
      so.deadline = opts.deadline;
      so.collect_trace = opts.collect_trace;
      so.num_threads = opts.skinner_threads;
      so.scheduler = scheduler_;
      so.warm_start_order = prep.warm_order;
      SkinnerCEngine engine(pq, so);
      SKINNER_RETURN_IF_ERROR(engine.Run(&join_result));
      const SkinnerCStats& s = engine.stats();
      out.stats.slices = s.slices;
      out.stats.emitted_tuples = s.emitted_tuples;
      out.stats.intermediate_tuples = s.intermediate_tuples;
      out.stats.uct_nodes = s.uct_nodes;
      out.stats.progress_nodes = s.progress_nodes;
      out.stats.auxiliary_bytes = s.auxiliary_bytes;
      out.stats.chunk_splits = s.chunk_splits;
      out.stats.timed_out = s.timed_out;
      out.stats.join_order = s.final_order;
      out.stats.tree_growth = s.tree_growth;
      out.stats.order_selections = s.order_selections;
      if (cache_ != nullptr && opts.use_prepared_cache &&
          !prep.signature.empty() && opts.engine == EngineKind::kSkinnerC &&
          !s.timed_out) {
        cache_->RecordFinalOrder(prep.signature, s.final_order);
      }
      break;
    }
    case EngineKind::kSkinnerG: {
      SkinnerGOptions so;
      so.batches_per_table = opts.batches_per_table;
      so.timeout_unit = opts.timeout_unit;
      so.uct_weight = opts.uct_weight_g;
      so.engine = opts.generic_engine;
      so.seed = opts.seed;
      so.deadline = opts.deadline;
      SkinnerGEngine engine(pq, so);
      SKINNER_RETURN_IF_ERROR(engine.Run(&join_result));
      out.stats.timed_out = engine.stats().timed_out;
      out.stats.iterations = engine.stats().iterations;
      break;
    }
    case EngineKind::kSkinnerH: {
      Estimator estimator(stats_);
      PlanResult plan = OptimizeWithEstimates(pq->info(), pq->query(),
                                              &estimator);
      SkinnerHOptions so;
      so.g.batches_per_table = opts.batches_per_table;
      so.g.timeout_unit = opts.timeout_unit;
      so.g.uct_weight = opts.uct_weight_g;
      so.g.engine = opts.generic_engine;
      so.g.seed = opts.seed;
      so.g.deadline = opts.deadline;
      so.unit = opts.timeout_unit;
      so.deadline = opts.deadline;
      SkinnerHEngine engine(pq, plan.order, so);
      SKINNER_RETURN_IF_ERROR(engine.Run(&join_result));
      out.stats.timed_out = engine.stats().timed_out;
      out.stats.iterations = engine.stats().g_stats.iterations;
      out.stats.join_order = plan.order;
      out.stats.estimated_cost = plan.cost;
      break;
    }
    case EngineKind::kVolcano:
    case EngineKind::kBlock: {
      std::vector<int> order = opts.forced_order;
      if (order.empty()) {
        Estimator estimator(stats_);
        PlanResult plan = OptimizeWithEstimates(pq->info(), pq->query(),
                                                &estimator);
        order = plan.order;
        out.stats.estimated_cost = plan.cost;
      }
      out.stats.join_order = order;
      ForcedExecOptions fo;
      fo.deadline = opts.deadline;
      ForcedExecResult r;
      if (opts.engine == EngineKind::kVolcano) {
        r = ExecuteForcedOrder(*pq, order, fo, &join_result);
      } else {
        BlockExecOptions bo;
        static_cast<ForcedExecOptions&>(bo) = fo;
        r = ExecuteBlock(*pq, order, bo, &join_result);
      }
      out.stats.timed_out = !r.completed;
      out.stats.intermediate_tuples = r.intermediate_tuples;
      break;
    }
    case EngineKind::kEddy: {
      EddyOptions eo;
      eo.seed = opts.seed;
      eo.deadline = opts.deadline;
      EddyEngine engine(pq, eo);
      SKINNER_RETURN_IF_ERROR(engine.Run(&join_result));
      out.stats.timed_out = engine.stats().timed_out;
      break;
    }
    case EngineKind::kReopt: {
      Estimator estimator(stats_);
      ReoptOptions ro;
      ro.deadline = opts.deadline;
      ReoptEngine engine(pq, &estimator, ro);
      SKINNER_RETURN_IF_ERROR(engine.Run(&join_result));
      out.stats.timed_out = engine.stats().timed_out;
      out.stats.replans = engine.stats().replans;
      out.stats.join_order = engine.stats().executed_order;
      break;
    }
  }
  return out;
}

Result<QueryOutput> QueryPipeline::PostProcess(const PreparedStage& prep,
                                               ExecutedStage exec) const {
  const PreparedQuery::Data& data = *prep.pq->shared_data();
  QueryOutput out;
  out.stats = std::move(exec.stats);
  out.stats.preprocess_cost = data.preprocess_cost;
  out.stats.prepared_from_cache =
      !data.tables.empty() &&
      data.tables_from_cache == static_cast<int>(data.tables.size());
  out.stats.template_signature_hit = !prep.warm_order.empty();
  out.stats.tables_prepared_from_cache = data.tables_from_cache;
  out.stats.tables_reprepared = data.tables_reprepared;
  out.stats.join_result_tuples = exec.join_result->size();
  SKINNER_ASSIGN_OR_RETURN(out.result,
                           skinner::PostProcess(*prep.pq, *exec.join_result));
  out.stats.total_cost = prep.clock->now();
  out.stats.wall_ms = prep.watch.ElapsedMillis();
  return out;
}

Result<QueryOutput> QueryPipeline::Run(const std::string& sql,
                                       const ExecOptions& opts) const {
  SKINNER_ASSIGN_OR_RETURN(Statement stmt, Parse(sql));
  SKINNER_ASSIGN_OR_RETURN(BoundStage bound, Bind(std::move(stmt)));
  SKINNER_ASSIGN_OR_RETURN(PreparedStage prep,
                           Prepare(std::move(bound), opts));
  SKINNER_ASSIGN_OR_RETURN(ExecutedStage exec, Execute(prep, opts));
  return PostProcess(prep, std::move(exec));
}

std::vector<Result<QueryOutput>> QueryPipeline::ExecuteMany(
    std::vector<PipelineItem> items, int num_workers) const {
  const size_t n = items.size();
  std::vector<std::optional<Result<QueryOutput>>> results(n);
  std::vector<std::optional<PreparedStage>> stages(n);

  // Stage A (sequential): prepare every item in order. Artifact builds
  // deduplicate through the cache (the first item touching a table key
  // pays; later ones hit), so stage B only ever sees immutable shared
  // state, and no item has executed yet when any warm-start hint is read.
  for (size_t i = 0; i < n; ++i) {
    if (!items[i].status.ok()) {
      results[i] = items[i].status;
      continue;
    }
    auto stage = PrepareCore(std::move(items[i].query),
                             std::move(items[i].signature), items[i].opts);
    if (!stage.ok()) {
      results[i] = stage.status();
      continue;
    }
    stages[i] = stage.MoveValue();
  }

  // Stage B (parallel): execute + post-process every item. Workers are
  // participation slots on the shared pool — nothing is spun up per call,
  // and concurrent batches share one set of threads.
  const int workers = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(std::max(num_workers, 1)), std::max<size_t>(n, 1)));
  SchedParallelFor(scheduler_, n, workers, [&](size_t i) {
    if (results[i].has_value()) return;  // failed before execution
    auto exec = Execute(*stages[i], items[i].opts);
    if (!exec.ok()) {
      results[i] = exec.status();
      return;
    }
    results[i] = PostProcess(*stages[i], exec.MoveValue());
    stages[i].reset();  // release artifact handles promptly
  });

  std::vector<Result<QueryOutput>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(results[i].has_value()
                      ? std::move(*results[i])
                      : Result<QueryOutput>(
                            Status::Internal("batch item not executed")));
  }
  return out;
}

}  // namespace skinner
