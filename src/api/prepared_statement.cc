#include "api/prepared_statement.h"

#include <shared_mutex>
#include <utility>

#include "api/query_pipeline.h"
#include "common/str_util.h"

namespace skinner {

namespace {

/// Replaces every `?` below `e` with its bound value as a literal — the
/// exact tree the binder would have produced for the literal-substituted
/// SQL text (string values are interned like bound string literals).
void SubstituteParams(Expr* e, const std::vector<Value>& params,
                      StringPool* pool) {
  for (auto& c : e->children) SubstituteParams(c.get(), params, pool);
  if (e->kind != ExprKind::kParam) return;
  const Value& v = params[static_cast<size_t>(e->param_idx)];
  e->kind = ExprKind::kLiteral;
  e->literal = v;
  e->param_idx = -1;
  if (!v.is_null()) {
    e->out_type = v.type();
    if (v.type() == DataType::kString) {
      e->literal_pool_id = pool->Intern(v.AsString());
    }
  }
}

}  // namespace

PreparedStatement::PreparedStatement(Session* session, std::string sql,
                                     std::unique_ptr<BoundQuery> template_query)
    : session_(session),
      db_(session->database()),
      sql_(std::move(sql)),
      template_(std::move(template_query)) {}

PreparedStatement::PreparedStatement(Session* session, std::string sql,
                                     std::unique_ptr<BoundMutation> mutation)
    : session_(session),
      db_(session->database()),
      sql_(std::move(sql)),
      mutation_(std::move(mutation)) {}

PreparedStatement::~PreparedStatement() = default;

int PreparedStatement::num_params() const {
  return mutation_ != nullptr ? mutation_->num_params : template_->num_params;
}

DataType PreparedStatement::param_type(int i) const {
  const auto& types =
      mutation_ != nullptr ? mutation_->param_types : template_->param_types;
  return types[static_cast<size_t>(i)];
}

bool PreparedStatement::param_type_known(int i) const {
  const auto& known =
      mutation_ != nullptr ? mutation_->param_known : template_->param_known;
  return known[static_cast<size_t>(i)];
}

Status PreparedStatement::Init() {
  if (mutation_ != nullptr) {
    // DML statements have no template signature or artifact keys — just
    // the target table's identity for staleness detection.
    table_names_.push_back(mutation_->table->name());
    table_ptrs_.push_back(mutation_->table);
    table_ids_.push_back(mutation_->table->id());
    return Status::OK();
  }
  template_sig_ = ComputeQuerySignature(*template_);
  for (const BoundTable& bt : template_->tables) {
    table_names_.push_back(bt.table->name());
    table_ptrs_.push_back(bt.table);
    table_ids_.push_back(bt.table->id());
  }
  return Status::OK();
}

Status PreparedStatement::CheckParams(const std::vector<Value>& params) const {
  if (static_cast<int>(params.size()) != num_params()) {
    return Status::InvalidArgument(StrFormat(
        "statement expects %d parameters, got %zu", num_params(),
        params.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    const Value& v = params[i];
    const int idx = static_cast<int>(i);
    if (v.is_null() || !param_type_known(idx)) continue;  // NULL binds anywhere
    const bool want_str = param_type(idx) == DataType::kString;
    const bool got_str = v.type() == DataType::kString;
    if (want_str != got_str) {
      return Status::TypeError(StrFormat(
          "parameter %zu expects %s, got %s", i,
          DataTypeName(param_type(idx)), DataTypeName(v.type())));
    }
  }
  return Status::OK();
}

Status PreparedStatement::CheckFreshness() const {
  for (size_t i = 0; i < table_names_.size(); ++i) {
    const Table* now = db_->catalog()->FindTable(table_names_[i]);
    if (now != table_ptrs_[i] || now->id() != table_ids_[i]) {
      return Status::InvalidArgument(
          "prepared statement is stale: table " + table_names_[i] +
          " was dropped or re-created since Prepare(); prepare it again");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<BoundQuery>> PreparedStatement::Instantiate(
    const std::vector<Value>& params) const {
  SKINNER_RETURN_IF_ERROR(CheckParams(params));
  SKINNER_RETURN_IF_ERROR(CheckFreshness());

  // Clone the template, splice the values in as literals and re-run the
  // binder's type pass so a type-invalid combination errors exactly like
  // the literal SQL text would.
  std::unique_ptr<BoundQuery> query = template_->Clone();
  StringPool* pool = db_->catalog()->string_pool();
  if (query->where != nullptr) SubstituteParams(query->where.get(), params, pool);
  for (auto& s : query->select) SubstituteParams(s.expr.get(), params, pool);
  for (auto& g : query->group_by) SubstituteParams(g.get(), params, pool);
  for (auto& o : query->order_by) SubstituteParams(o.expr.get(), params, pool);
  query->num_params = 0;
  query->param_types.clear();
  query->param_known.clear();
  if (query->where != nullptr) {
    SKINNER_RETURN_IF_ERROR(RebindTypes(query->where.get()));
  }
  for (auto& s : query->select) SKINNER_RETURN_IF_ERROR(RebindTypes(s.expr.get()));
  for (auto& g : query->group_by) SKINNER_RETURN_IF_ERROR(RebindTypes(g.get()));
  for (auto& o : query->order_by) SKINNER_RETURN_IF_ERROR(RebindTypes(o.expr.get()));
  return query;
}

Result<QueryOutput> PreparedStatement::Execute(const std::vector<Value>& params) {
  return Execute(params, session_->defaults());
}

Result<QueryOutput> PreparedStatement::ExecuteMutation(
    const std::vector<Value>& params) {
  // DML mutates table data: exclusive, like Database::Execute — waits for
  // running queries, blocks new ones for the (tiny) apply+log window.
  std::unique_lock<std::shared_mutex> ddl_lock(db_->ddl_mu_);
  auto run = [&]() -> Result<QueryOutput> {
    SKINNER_RETURN_IF_ERROR(CheckParams(params));
    SKINNER_RETURN_IF_ERROR(CheckFreshness());
    std::unique_ptr<BoundMutation> m = mutation_->Clone();
    StringPool* pool = db_->catalog()->string_pool();
    for (auto& sc : m->sets) SubstituteParams(sc.expr.get(), params, pool);
    if (m->where != nullptr) SubstituteParams(m->where.get(), params, pool);
    m->num_params = 0;
    m->param_types.clear();
    m->param_known.clear();
    for (auto& sc : m->sets) SKINNER_RETURN_IF_ERROR(RebindTypes(sc.expr.get()));
    if (m->where != nullptr) {
      SKINNER_RETURN_IF_ERROR(RebindTypes(m->where.get()));
    }
    return db_->ExecuteMutationLocked(*m);
  };
  Result<QueryOutput> out = run();
  ddl_lock.unlock();
  session_->Roll(out);
  return out;
}

Result<QueryOutput> PreparedStatement::Execute(const std::vector<Value>& params,
                                               const ExecOptions& opts) {
  if (mutation_ != nullptr) return ExecuteMutation(params);
  ExecOptions eopts = opts;
  eopts.seed = session_->DeriveSeed(opts.seed);
  // Statements always share prepared state — that is their point — and
  // record their final join order under the template signature.
  eopts.use_prepared_cache = true;
  std::shared_lock<std::shared_mutex> ddl_lock(db_->ddl_mu_);
  QueryPipeline pipeline(db_->catalog(), db_->udfs(), db_->stats_manager(),
                         db_->prepared_cache(), db_->scheduler());
  auto run = [&]() -> Result<QueryOutput> {
    SKINNER_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> query,
                             Instantiate(params));
    SKINNER_ASSIGN_OR_RETURN(
        PreparedStage stage,
        pipeline.PrepareCore(std::move(query), template_sig_, eopts));
    SKINNER_ASSIGN_OR_RETURN(ExecutedStage exec, pipeline.Execute(stage, eopts));
    return pipeline.PostProcess(stage, std::move(exec));
  };
  Result<QueryOutput> out = run();
  ddl_lock.unlock();
  session_->Roll(out);
  return out;
}

std::vector<Result<QueryOutput>> PreparedStatement::ExecuteMany(
    const std::vector<std::vector<Value>>& param_sets,
    const BatchOptions& bopts, const ExecOptions& base_opts) {
  const size_t n = param_sets.size();
  if (mutation_ != nullptr) {
    // The batch path holds the DDL lock shared for its whole run; DML
    // needs it exclusive. Executing mutations one at a time via Execute()
    // is equivalent anyway (there is nothing to parallelize).
    std::vector<Result<QueryOutput>> rejected;
    rejected.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      rejected.push_back(Status::InvalidArgument(
          "ExecuteBatch supports SELECT statements only; execute "
          "UPDATE/DELETE statements one at a time"));
    }
    return rejected;
  }
  QueryPipeline pipeline(db_->catalog(), db_->udfs(), db_->stats_manager(),
                         db_->prepared_cache(), db_->scheduler());
  // Instantiate every parameter set in order (string parameters intern
  // into the shared pool, which is not thread-safe), then run the batch
  // core QueryBatch uses too.
  std::vector<PipelineItem> items(n);
  for (size_t i = 0; i < n; ++i) {
    PipelineItem& item = items[i];
    item.opts = base_opts;
    item.opts.use_prepared_cache = true;
    item.opts.seed = bopts.ItemSeed(i);
    auto query = Instantiate(param_sets[i]);
    if (!query.ok()) {
      item.status = query.status();
      continue;
    }
    item.query = query.MoveValue();
    item.signature = template_sig_;
  }
  return pipeline.ExecuteMany(std::move(items), bopts.num_workers);
}

}  // namespace skinner
