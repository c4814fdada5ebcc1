#include "api/query_pipeline.h"

#include <algorithm>
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

Result<PreparedStage> QueryPipeline::PrepareFresh(
    std::unique_ptr<BoundQuery> owned_query, const BoundQuery* query,
    const ExecOptions& opts) const {
  // The bundle is allocated first and filled in place so that every
  // pointer the PreparedQuery view captures (query, info) is already at
  // its final, stable address.
  auto bundle = std::make_shared<PreparedBundle>();
  bundle->bound = std::move(owned_query);
  if (bundle->bound != nullptr) query = bundle->bound.get();

  if (query->num_params > 0) {
    return Status::InvalidArgument(
        "query contains ? parameters; prepare it with Session::Prepare and "
        "execute it with bound values");
  }

  PreparedStage stage;
  stage.clock = std::make_unique<VirtualClock>();

  SKINNER_ASSIGN_OR_RETURN(QueryInfo info, QueryInfo::Analyze(*query));
  bundle->info = std::make_unique<QueryInfo>(std::move(info));

  PrepareOptions popts;
  popts.build_hash_indexes = opts.build_hash_indexes;
  popts.parallel = opts.parallel_preprocess;
  popts.num_threads = opts.num_threads;
  popts.scheduler = EffectiveScheduler(opts);
  SKINNER_ASSIGN_OR_RETURN(
      stage.pq,
      PreparedQuery::Prepare(query, bundle->info.get(),
                             catalog_->string_pool(), stage.clock.get(),
                             popts));
  bundle->data = stage.pq->shared_data();
  stage.shared = std::move(bundle);
  stage.preprocess_cost = stage.pq->preprocess_cost();
  return stage;
}

PreparedStage QueryPipeline::RebindStage(PreparedHandle handle,
                                         std::string signature) const {
  PreparedStage stage;
  stage.clock = std::make_unique<VirtualClock>();
  stage.signature = std::move(signature);
  stage.cache_hit = true;
  stage.preprocess_cost = 0;  // the artifact is already built
  stage.tables_from_cache =
      static_cast<int>(handle->data != nullptr ? handle->data->tables.size() : 0);
  stage.pq = PreparedQuery::Rebind(handle->bound.get(), handle->info.get(),
                                   catalog_->string_pool(),
                                   stage.clock.get(), handle->data);
  stage.shared = std::move(handle);
  return stage;
}

Result<PreparedStage> QueryPipeline::Prepare(BoundStage bound,
                                             const ExecOptions& opts) const {
  const bool caching = opts.use_prepared_cache && cache_ != nullptr;
  if (!caching) {
    return PrepareFresh(std::move(bound.query), /*query=*/nullptr, opts);
  }
  std::string signature = ComputeQuerySignature(*bound.query);
  std::string key = PreparedCacheKey(signature, opts.build_hash_indexes);
  std::vector<TableStamp> stamps = ComputeTableStamps(*bound.query);
  if (opts.cache_read_only) {
    // Quota-throttled sessions: serve hits, but a miss prepares privately
    // — no claim, no publish, no bytes charged to the shared budget.
    PreparedHandle hit = cache_->Lookup(key, stamps);
    if (hit != nullptr) {
      PreparedStage stage = RebindStage(std::move(hit), signature);
      std::vector<int> warm = cache_->WarmOrder(stage.signature);
      stage.template_hit = !warm.empty();
      if (opts.warm_start) stage.warm_order = std::move(warm);
      return stage;
    }
    auto prep = PrepareFresh(std::move(bound.query), /*query=*/nullptr, opts);
    if (!prep.ok()) return prep.status();
    PreparedStage stage = prep.MoveValue();
    stage.signature = std::move(signature);
    stage.tables_reprepared = stage.pq->num_tables();
    std::vector<int> warm = cache_->WarmOrder(stage.signature);
    stage.template_hit = !warm.empty();
    if (opts.warm_start) stage.warm_order = std::move(warm);
    return stage;
  }
  PreparedCache::BundleClaim claim = cache_->Acquire(key, stamps);
  if (claim.handle != nullptr) {
    PreparedStage stage = RebindStage(std::move(claim.handle), signature);
    std::vector<int> warm = cache_->WarmOrder(signature);
    stage.template_hit = !warm.empty();
    if (opts.warm_start) stage.warm_order = std::move(warm);
    return stage;
  }
  // This call owns the build: every concurrent Prepare of the same key is
  // now blocked in Acquire until we Publish (or Abandon on failure).
  auto prep = PrepareFresh(std::move(bound.query), /*query=*/nullptr, opts);
  if (!prep.ok()) {
    cache_->Abandon(key);
    return prep.status();
  }
  PreparedStage stage = prep.MoveValue();
  stage.signature = std::move(signature);
  stage.tables_reprepared = stage.pq->num_tables();
  if (stage.shared->data != nullptr) {
    stage.cache_bytes_published = stage.shared->data->bytes();
  }
  cache_->Publish(key, std::move(stamps), stage.shared);
  // A previous (since invalidated) execution of the template may still
  // have left a useful join order behind.
  std::vector<int> warm = cache_->WarmOrder(stage.signature);
  stage.template_hit = !warm.empty();
  if (opts.warm_start) stage.warm_order = std::move(warm);
  return stage;
}

Result<PreparedStage> QueryPipeline::PrepareExternal(
    const BoundQuery* query, const ExecOptions& opts) const {
  return PrepareFresh(nullptr, query, opts);
}

Result<ExecutedStage> QueryPipeline::Execute(const PreparedStage& prep,
                                             const ExecOptions& opts) const {
  const PreparedQuery* pq = prep.pq.get();
  ExecutedStage out;
  out.join_result = std::make_unique<ResultSet>(pq->num_tables());
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
      so.scheduler = EffectiveScheduler(opts);
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
  QueryOutput out;
  out.stats = std::move(exec.stats);
  out.stats.preprocess_cost = prep.preprocess_cost;
  out.stats.prepared_from_cache = prep.cache_hit;
  out.stats.template_signature_hit = prep.template_hit;
  out.stats.tables_prepared_from_cache = prep.tables_from_cache;
  out.stats.tables_reprepared = prep.tables_reprepared;
  out.stats.cache_bytes_published = prep.cache_bytes_published;
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

}  // namespace skinner
