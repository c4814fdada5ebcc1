#include "api/prepared_statement.h"

#include <utility>

#include "api/query_pipeline.h"
#include "common/str_util.h"

namespace skinner {

namespace {

/// Replaces every `?` below `e` with its bound value as a literal — the
/// exact tree the binder would have produced for the literal-substituted
/// SQL text (string values are looked up, never interned, like bound
/// string literals). A SQL-text string literal that was absent from the
/// pool at Prepare is looked up again, so once the string is stored the
/// statement's filters compare pool codes like the literal SQL does.
void SubstituteParams(Expr* e, const std::vector<Value>& params,
                      const StringPool* pool) {
  for (auto& c : e->children) SubstituteParams(c.get(), params, pool);
  if (e->kind == ExprKind::kLiteral && e->literal_pool_id < 0 &&
      !e->literal.is_null() && e->literal.type() == DataType::kString) {
    e->literal_pool_id = pool->Lookup(e->literal.AsString());
  }
  if (e->kind != ExprKind::kParam) return;
  const Value& v = params[static_cast<size_t>(e->param_idx)];
  e->kind = ExprKind::kLiteral;
  e->literal = v;
  e->param_idx = -1;
  if (!v.is_null()) {
    e->out_type = v.type();
    if (v.type() == DataType::kString) {
      e->literal_pool_id = pool->Lookup(v.AsString());
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
  // Record each table's identity, then drop the template's own pin: every
  // execution re-resolves the tables in the version it pins, so a
  // long-lived statement keeps no old version alive.
  if (mutation_ != nullptr) {
    // DML statements have no template signature or artifact keys — just
    // the target table's identity for staleness detection.
    table_names_.push_back(mutation_->table->name());
    table_ids_.push_back(mutation_->table->id());
    mutation_->catalog_version.reset();
    mutation_->table = nullptr;
    return Status::OK();
  }
  template_sig_ = ComputeQuerySignature(*template_);
  for (BoundTable& bt : template_->tables) {
    table_names_.push_back(bt.table->name());
    table_ids_.push_back(bt.table->id());
    bt.table = nullptr;
  }
  template_->catalog_version.reset();
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

Status PreparedStatement::ResolveTables(
    const CatalogVersion& version, std::vector<const Table*>* tables) const {
  tables->clear();
  for (size_t i = 0; i < table_names_.size(); ++i) {
    const Table* now = version.FindTable(table_names_[i]);
    if (now == nullptr || now->id() != table_ids_[i]) {
      return Status::InvalidArgument(
          "prepared statement is stale: table " + table_names_[i] +
          " was dropped or re-created since Prepare(); prepare it again");
    }
    tables->push_back(now);
  }
  return Status::OK();
}

Result<std::unique_ptr<BoundQuery>> PreparedStatement::Instantiate(
    const std::vector<Value>& params) const {
  SKINNER_RETURN_IF_ERROR(CheckParams(params));
  std::shared_ptr<const CatalogVersion> version = db_->catalog()->Current();
  std::vector<const Table*> tables;
  SKINNER_RETURN_IF_ERROR(ResolveTables(*version, &tables));

  // Clone the template onto the pinned version, splice the values in as
  // literals and re-run the binder's type pass so a type-invalid
  // combination errors exactly like the literal SQL text would.
  std::unique_ptr<BoundQuery> query = template_->Clone();
  query->catalog_version = std::move(version);
  for (size_t i = 0; i < tables.size(); ++i) query->tables[i].table = tables[i];
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
  auto run = [&]() -> Result<QueryOutput> {
    SKINNER_RETURN_IF_ERROR(CheckParams(params));
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
    // A writer like Database::Execute: serialized with the other writers,
    // planned on the current version, never waiting for a query.
    std::lock_guard<std::mutex> writer(db_->writer_mu_);
    std::shared_ptr<const CatalogVersion> version = db_->catalog()->Current();
    std::vector<const Table*> tables;
    SKINNER_RETURN_IF_ERROR(ResolveTables(*version, &tables));
    m->catalog_version = std::move(version);
    m->table = tables[0];
    return db_->ExecuteMutationLocked(*m);
  };
  Result<QueryOutput> out = run();
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
  session_->Roll(out);
  return out;
}

std::vector<Result<QueryOutput>> PreparedStatement::ExecuteMany(
    const std::vector<std::vector<Value>>& param_sets,
    const BatchOptions& bopts, const ExecOptions& base_opts) {
  const size_t n = param_sets.size();
  if (mutation_ != nullptr) {
    // Writers serialize on the database's writer mutex, so a batch of DML
    // has nothing to run concurrently: execute mutations one at a time
    // via Execute().
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
  // Instantiate every parameter set in order, then run the batch core
  // QueryBatch uses too.
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
