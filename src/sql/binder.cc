#include "sql/binder.h"

#include "common/str_util.h"

namespace skinner {

namespace {

class Binder {
 public:
  Binder(Catalog* catalog, const UdfRegistry* udfs)
      : catalog_(catalog), version_(catalog->Current()), udfs_(udfs) {}

  Result<BoundQuery> Bind(SelectStmt* stmt);
  Result<BoundMutation> BindUpdateStmt(UpdateStmt* stmt);
  Result<BoundMutation> BindDeleteStmt(DeleteStmt* stmt);

 private:
  /// Resolves the single target table of a mutation into out_.tables so
  /// the SELECT column-resolution machinery applies unchanged.
  Result<const Table*> BindMutationTarget(const std::string& name);
  /// Moves the shared parameter-inference state into `m`.
  void FinishMutation(BoundMutation* m);
  Status BindExpr(Expr* e);
  Status BindColumnRef(Expr* e);

  /// Grows the parameter tables to cover ordinal `idx`.
  void NoteParam(int idx);
  /// True for a `?` whose type has not been inferred yet.
  bool IsOpenParam(const Expr& e) const;
  /// Records the inferred type of parameter node `e` (first inference
  /// wins; a string-vs-numeric conflict is a bind error).
  Status SetParamType(Expr* e, DataType t);

  Catalog* catalog_;
  std::shared_ptr<const CatalogVersion> version_;  // pinned at construction
  const UdfRegistry* udfs_;
  BoundQuery out_;
};

void Binder::NoteParam(int idx) {
  if (idx >= out_.num_params) {
    out_.num_params = idx + 1;
    out_.param_types.resize(static_cast<size_t>(out_.num_params),
                            DataType::kInt64);
    out_.param_known.resize(static_cast<size_t>(out_.num_params), false);
  }
}

bool Binder::IsOpenParam(const Expr& e) const {
  return e.kind == ExprKind::kParam &&
         !out_.param_known[static_cast<size_t>(e.param_idx)];
}

Status Binder::SetParamType(Expr* e, DataType t) {
  NoteParam(e->param_idx);
  const size_t i = static_cast<size_t>(e->param_idx);
  auto is_str = [](DataType d) { return d == DataType::kString; };
  if (out_.param_known[i]) {
    if (is_str(out_.param_types[i]) != is_str(t)) {
      return Status::BindError("parameter ? used with conflicting types");
    }
    return Status::OK();
  }
  out_.param_types[i] = t;
  out_.param_known[i] = true;
  e->out_type = t;
  return Status::OK();
}

Status Binder::BindColumnRef(Expr* e) {
  if (!e->table_name.empty()) {
    std::string want = ToLower(e->table_name);
    for (size_t i = 0; i < out_.tables.size(); ++i) {
      if (ToLower(out_.tables[i].alias) == want) {
        int col = out_.tables[i].table->schema().FindColumn(e->column_name);
        if (col < 0) {
          return Status::BindError("no column " + e->column_name + " in " +
                                   e->table_name);
        }
        e->table_idx = static_cast<int>(i);
        e->column_idx = col;
        e->out_type = out_.tables[i].table->schema().column(col).type;
        return Status::OK();
      }
    }
    return Status::BindError("unknown table alias: " + e->table_name);
  }
  // Unqualified: must be unique across FROM tables.
  int found_table = -1;
  int found_col = -1;
  for (size_t i = 0; i < out_.tables.size(); ++i) {
    int col = out_.tables[i].table->schema().FindColumn(e->column_name);
    if (col >= 0) {
      if (found_table >= 0) {
        return Status::BindError("ambiguous column: " + e->column_name);
      }
      found_table = static_cast<int>(i);
      found_col = col;
    }
  }
  if (found_table < 0) {
    return Status::BindError("unknown column: " + e->column_name);
  }
  e->table_idx = found_table;
  e->column_idx = found_col;
  e->out_type =
      out_.tables[static_cast<size_t>(found_table)].table->schema().column(found_col).type;
  return Status::OK();
}

// NOTE: the operator typing rules below are mirrored by RebindTypes() (end
// of this file), which re-applies them to parameter-substituted trees so
// that PreparedStatement::Execute types — and errors — exactly like the
// literal-substituted SQL text. Any new operator or type rule added here
// must be added there too (prepared_statement_test pins the bit-identity).
Status Binder::BindExpr(Expr* e) {
  for (auto& c : e->children) {
    SKINNER_RETURN_IF_ERROR(BindExpr(c.get()));
  }
  switch (e->kind) {
    case ExprKind::kColumnRef:
      return BindColumnRef(e);
    case ExprKind::kLiteral:
      if (!e->literal.is_null()) {
        e->out_type = e->literal.type();
        if (e->literal.type() == DataType::kString) {
          // Lookup, not Intern: reads must not grow the database-wide pool.
          // An absent literal (-1) equals no stored code; filters compare
          // it by content instead.
          e->literal_pool_id =
              catalog_->string_pool()->Lookup(e->literal.AsString());
        }
      }
      return Status::OK();
    case ExprKind::kParam:
      if (e->param_idx < 0) {
        return Status::Internal("parameter placeholder without an ordinal");
      }
      NoteParam(e->param_idx);
      // Default slot type until a parent context refines it; stays "open"
      // (param_known false) if no context ever does.
      e->out_type = out_.param_types[static_cast<size_t>(e->param_idx)];
      return Status::OK();
    case ExprKind::kBinaryOp: {
      Expr& l = *e->children[0];
      Expr& r = *e->children[1];
      auto is_num = [](DataType t) { return t != DataType::kString; };
      switch (e->bin_op) {
        case BinOp::kAnd:
        case BinOp::kOr:
          e->out_type = DataType::kInt64;
          return Status::OK();
        case BinOp::kLike:
          // A `?` on either side of LIKE can only be a string (a prior
          // numeric inference for the same ordinal is a conflict).
          if (l.kind == ExprKind::kParam) {
            SKINNER_RETURN_IF_ERROR(SetParamType(&l, DataType::kString));
          }
          if (r.kind == ExprKind::kParam) {
            SKINNER_RETURN_IF_ERROR(SetParamType(&r, DataType::kString));
          }
          if (l.out_type != DataType::kString || r.out_type != DataType::kString) {
            return Status::TypeError("LIKE requires string operands");
          }
          e->out_type = DataType::kInt64;
          return Status::OK();
        case BinOp::kEq:
        case BinOp::kNe:
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe: {
          // Bind-time inference: a `?` takes the type of the non-parameter
          // side it is compared against (a NULL literal carries no type and
          // infers nothing — `? = NULL` accepts any value, exactly like the
          // literal-substituted text). `? = ?` stays open (checked against
          // the concrete values at Execute time instead); a `?` already
          // inferred with the other type class is a conflict.
          {
            auto null_lit = [](const Expr& x) {
              return x.kind == ExprKind::kLiteral && x.literal.is_null();
            };
            if (l.kind == ExprKind::kParam && r.kind != ExprKind::kParam &&
                !null_lit(r)) {
              SKINNER_RETURN_IF_ERROR(SetParamType(&l, r.out_type));
            }
            if (r.kind == ExprKind::kParam && l.kind != ExprKind::kParam &&
                !null_lit(l)) {
              SKINNER_RETURN_IF_ERROR(SetParamType(&r, l.out_type));
            }
          }
          bool l_str = l.out_type == DataType::kString;
          bool r_str = r.out_type == DataType::kString;
          // NULL literals compare with anything; open params defer the
          // check to substitution time.
          bool l_null = l.kind == ExprKind::kLiteral && l.literal.is_null();
          bool r_null = r.kind == ExprKind::kLiteral && r.literal.is_null();
          bool open = IsOpenParam(l) || IsOpenParam(r);
          if (!l_null && !r_null && !open && l_str != r_str) {
            return Status::TypeError("cannot compare string with numeric: " +
                                     e->ToString());
          }
          e->out_type = DataType::kInt64;
          return Status::OK();
        }
        default:
          // Arithmetic: a `?` operand is numeric; it takes the sibling's
          // numeric type when available (INT otherwise). A `?` already
          // inferred as string is a conflict.
          if (l.kind == ExprKind::kParam) {
            SKINNER_RETURN_IF_ERROR(SetParamType(
                &l, is_num(r.out_type) && r.kind != ExprKind::kParam
                        ? r.out_type
                        : DataType::kInt64));
          }
          if (r.kind == ExprKind::kParam) {
            SKINNER_RETURN_IF_ERROR(SetParamType(
                &r, is_num(l.out_type) ? l.out_type : DataType::kInt64));
          }
          if (!is_num(l.out_type) || !is_num(r.out_type)) {
            return Status::TypeError("arithmetic requires numeric operands: " +
                                     e->ToString());
          }
          e->out_type = (l.out_type == DataType::kDouble ||
                         r.out_type == DataType::kDouble)
                            ? DataType::kDouble
                            : DataType::kInt64;
          return Status::OK();
      }
    }
    case ExprKind::kUnaryOp:
      switch (e->un_op) {
        case UnOp::kNeg:
          if (e->children[0]->kind == ExprKind::kParam) {
            SKINNER_RETURN_IF_ERROR(
                SetParamType(e->children[0].get(), DataType::kInt64));
          }
          if (e->children[0]->out_type == DataType::kString) {
            return Status::TypeError("cannot negate a string");
          }
          e->out_type = e->children[0]->out_type;
          return Status::OK();
        default:
          e->out_type = DataType::kInt64;
          return Status::OK();
      }
    case ExprKind::kFunctionCall: {
      const Udf* udf = udfs_->Find(e->func_name);
      if (udf == nullptr) {
        return Status::BindError("unknown function: " + e->func_name);
      }
      if (udf->arity() >= 0 &&
          udf->arity() != static_cast<int>(e->children.size())) {
        return Status::BindError(
            StrFormat("function %s expects %d args, got %zu",
                      e->func_name.c_str(), udf->arity(), e->children.size()));
      }
      e->udf = udf;
      e->out_type = udf->return_type();
      return Status::OK();
    }
    case ExprKind::kAggregate:
      switch (e->agg) {
        case AggKind::kCountStar:
        case AggKind::kCount:
          e->out_type = DataType::kInt64;
          break;
        case AggKind::kAvg:
          e->out_type = DataType::kDouble;
          break;
        case AggKind::kSum:
        case AggKind::kMin:
        case AggKind::kMax:
          e->out_type = e->children[0]->out_type;
          break;
      }
      if (e->agg != AggKind::kCountStar &&
          e->children[0]->ContainsAggregate()) {
        return Status::BindError("nested aggregates are not allowed");
      }
      return Status::OK();
  }
  return Status::Internal("unreachable");
}

Result<BoundQuery> Binder::Bind(SelectStmt* stmt) {
  out_.catalog_version = version_;
  // FROM.
  for (const auto& ref : stmt->from) {
    const Table* t = version_->FindTable(ref.table_name);
    if (t == nullptr) {
      return Status::BindError("unknown table: " + ref.table_name);
    }
    std::string alias = ref.EffectiveName();
    for (const auto& bt : out_.tables) {
      if (ToLower(bt.alias) == ToLower(alias)) {
        return Status::BindError("duplicate table alias: " + alias);
      }
    }
    out_.tables.push_back(BoundTable{t, alias});
  }
  if (out_.tables.empty()) return Status::BindError("empty FROM list");

  // WHERE.
  if (stmt->where != nullptr) {
    SKINNER_RETURN_IF_ERROR(BindExpr(stmt->where.get()));
    if (stmt->where->ContainsAggregate()) {
      return Status::BindError("aggregates are not allowed in WHERE");
    }
    out_.where = std::move(stmt->where);
  }

  // SELECT list ('*' expands to every column of every table).
  for (auto& item : stmt->select) {
    if (item.is_star) {
      for (size_t t = 0; t < out_.tables.size(); ++t) {
        const Table* tab = out_.tables[t].table;
        for (int c = 0; c < tab->schema().num_columns(); ++c) {
          BoundSelectItem out_item;
          out_item.expr = Expr::MakeColumn(out_.tables[t].alias,
                                           tab->schema().column(c).name);
          SKINNER_RETURN_IF_ERROR(BindExpr(out_item.expr.get()));
          out_item.name = out_.tables.size() > 1
                              ? out_.tables[t].alias + "." + tab->schema().column(c).name
                              : tab->schema().column(c).name;
          out_.select.push_back(std::move(out_item));
        }
      }
      continue;
    }
    SKINNER_RETURN_IF_ERROR(BindExpr(item.expr.get()));
    BoundSelectItem out_item;
    out_item.expr = std::move(item.expr);
    out_item.name = item.alias;
    out_.has_aggregates |= out_item.expr->ContainsAggregate();
    out_.select.push_back(std::move(out_item));
  }

  // GROUP BY (ordinals refer to select items).
  for (auto& g : stmt->group_by) {
    if (g->kind == ExprKind::kLiteral && !g->literal.is_null() &&
        g->literal.type() == DataType::kInt64) {
      int64_t ord = g->literal.AsInt();
      if (ord < 1 || ord > static_cast<int64_t>(out_.select.size())) {
        return Status::BindError("GROUP BY ordinal out of range");
      }
      out_.group_by.push_back(out_.select[static_cast<size_t>(ord - 1)].expr->Clone());
      continue;
    }
    SKINNER_RETURN_IF_ERROR(BindExpr(g.get()));
    out_.group_by.push_back(std::move(g));
  }

  // ORDER BY (ordinals refer to select items).
  for (auto& o : stmt->order_by) {
    BoundOrderItem item;
    item.desc = o.desc;
    if (o.expr->kind == ExprKind::kLiteral && !o.expr->literal.is_null() &&
        o.expr->literal.type() == DataType::kInt64) {
      int64_t ord = o.expr->literal.AsInt();
      if (ord < 1 || ord > static_cast<int64_t>(out_.select.size())) {
        return Status::BindError("ORDER BY ordinal out of range");
      }
      item.expr = out_.select[static_cast<size_t>(ord - 1)].expr->Clone();
    } else {
      SKINNER_RETURN_IF_ERROR(BindExpr(o.expr.get()));
      item.expr = std::move(o.expr);
    }
    out_.order_by.push_back(std::move(item));
  }

  out_.distinct = stmt->distinct;
  out_.limit = stmt->limit;

  // Validate grouping: with aggregates/GROUP BY, plain select items must be
  // grouping expressions.
  if (out_.has_aggregates || !out_.group_by.empty()) {
    for (const auto& item : out_.select) {
      if (item.expr->ContainsAggregate()) continue;
      bool found = false;
      for (const auto& g : out_.group_by) {
        if (g->ToString() == item.expr->ToString()) {
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::BindError("select item must be grouped or aggregated: " +
                                 item.expr->ToString());
      }
    }
  }
  return std::move(out_);
}

Result<const Table*> Binder::BindMutationTarget(const std::string& name) {
  const Table* t = version_->FindTable(name);
  if (t == nullptr) {
    return Status::BindError("unknown table: " + name);
  }
  out_.tables.push_back(BoundTable{t, name});
  return t;
}

void Binder::FinishMutation(BoundMutation* m) {
  m->num_params = out_.num_params;
  m->param_types = std::move(out_.param_types);
  m->param_known = std::move(out_.param_known);
}

Result<BoundMutation> Binder::BindUpdateStmt(UpdateStmt* stmt) {
  BoundMutation m;
  m.kind = Statement::Kind::kUpdate;
  m.catalog_version = version_;
  m.table_name = stmt->table;
  SKINNER_ASSIGN_OR_RETURN(m.table, BindMutationTarget(stmt->table));
  for (auto& [col_name, expr] : stmt->sets) {
    BoundMutation::SetClause sc;
    sc.column_idx = m.table->schema().FindColumn(col_name);
    if (sc.column_idx < 0) {
      return Status::BindError("no column " + col_name + " in " + stmt->table);
    }
    const DataType col_type = m.table->schema().column(sc.column_idx).type;
    // A bare `SET col = ?` has no expression context to infer from — the
    // column's own type is the context.
    if (expr->kind == ExprKind::kParam) {
      SKINNER_RETURN_IF_ERROR(SetParamType(expr.get(), col_type));
    }
    SKINNER_RETURN_IF_ERROR(BindExpr(expr.get()));
    if (expr->ContainsAggregate()) {
      return Status::BindError("aggregates are not allowed in SET");
    }
    // Storage coercion handles numeric<->numeric; string vs numeric is the
    // same class error AppendValue would raise, caught at bind time. NULL
    // literals and open params defer to the executor.
    auto is_str = [](DataType t) { return t == DataType::kString; };
    bool null_lit =
        expr->kind == ExprKind::kLiteral && expr->literal.is_null();
    if (!null_lit && !IsOpenParam(*expr) &&
        is_str(expr->out_type) != is_str(col_type)) {
      return Status::TypeError("cannot assign " + expr->ToString() +
                               " to column " + col_name);
    }
    sc.expr = std::move(expr);
    m.sets.push_back(std::move(sc));
  }
  if (stmt->where != nullptr) {
    SKINNER_RETURN_IF_ERROR(BindExpr(stmt->where.get()));
    if (stmt->where->ContainsAggregate()) {
      return Status::BindError("aggregates are not allowed in WHERE");
    }
    m.where = std::move(stmt->where);
  }
  FinishMutation(&m);
  return m;
}

Result<BoundMutation> Binder::BindDeleteStmt(DeleteStmt* stmt) {
  BoundMutation m;
  m.kind = Statement::Kind::kDelete;
  m.catalog_version = version_;
  m.table_name = stmt->table;
  SKINNER_ASSIGN_OR_RETURN(m.table, BindMutationTarget(stmt->table));
  if (stmt->where != nullptr) {
    SKINNER_RETURN_IF_ERROR(BindExpr(stmt->where.get()));
    if (stmt->where->ContainsAggregate()) {
      return Status::BindError("aggregates are not allowed in WHERE");
    }
    m.where = std::move(stmt->where);
  }
  FinishMutation(&m);
  return m;
}

}  // namespace

Result<BoundQuery> BindSelect(SelectStmt* stmt, Catalog* catalog,
                              const UdfRegistry* udfs) {
  Binder binder(catalog, udfs);
  return binder.Bind(stmt);
}

Result<BoundMutation> BindUpdate(UpdateStmt* stmt, Catalog* catalog,
                                 const UdfRegistry* udfs) {
  Binder binder(catalog, udfs);
  return binder.BindUpdateStmt(stmt);
}

Result<BoundMutation> BindDelete(DeleteStmt* stmt, Catalog* catalog,
                                 const UdfRegistry* udfs) {
  Binder binder(catalog, udfs);
  return binder.BindDeleteStmt(stmt);
}

std::unique_ptr<BoundMutation> BoundMutation::Clone() const {
  auto m = std::make_unique<BoundMutation>();
  m->kind = kind;
  m->catalog_version = catalog_version;
  m->table = table;
  m->table_name = table_name;
  m->sets.reserve(sets.size());
  for (const auto& s : sets) {
    m->sets.push_back(SetClause{s.column_idx, s.expr->Clone()});
  }
  if (where != nullptr) m->where = where->Clone();
  m->num_params = num_params;
  m->param_types = param_types;
  m->param_known = param_known;
  return m;
}

std::unique_ptr<BoundQuery> BoundQuery::Clone() const {
  auto q = std::make_unique<BoundQuery>();
  q->catalog_version = catalog_version;
  q->tables = tables;
  if (where != nullptr) q->where = where->Clone();
  q->select.reserve(select.size());
  for (const auto& s : select) {
    q->select.push_back(BoundSelectItem{s.expr->Clone(), s.name});
  }
  q->distinct = distinct;
  q->group_by.reserve(group_by.size());
  for (const auto& g : group_by) q->group_by.push_back(g->Clone());
  q->order_by.reserve(order_by.size());
  for (const auto& o : order_by) {
    q->order_by.push_back(BoundOrderItem{o.expr->Clone(), o.desc});
  }
  q->limit = limit;
  q->has_aggregates = has_aggregates;
  q->num_params = num_params;
  q->param_types = param_types;
  q->param_known = param_known;
  return q;
}

Status RebindTypes(Expr* e) {
  for (auto& c : e->children) {
    SKINNER_RETURN_IF_ERROR(RebindTypes(c.get()));
  }
  auto is_num = [](DataType t) { return t != DataType::kString; };
  switch (e->kind) {
    case ExprKind::kColumnRef:
      return Status::OK();  // bound type is authoritative
    case ExprKind::kLiteral:
      if (!e->literal.is_null()) e->out_type = e->literal.type();
      return Status::OK();
    case ExprKind::kParam:
      return Status::Internal("unsubstituted ? parameter in executable tree");
    case ExprKind::kBinaryOp: {
      const Expr& l = *e->children[0];
      const Expr& r = *e->children[1];
      switch (e->bin_op) {
        case BinOp::kAnd:
        case BinOp::kOr:
          e->out_type = DataType::kInt64;
          return Status::OK();
        case BinOp::kLike:
          if (l.out_type != DataType::kString ||
              r.out_type != DataType::kString) {
            return Status::TypeError("LIKE requires string operands");
          }
          e->out_type = DataType::kInt64;
          return Status::OK();
        case BinOp::kEq:
        case BinOp::kNe:
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe: {
          bool l_str = l.out_type == DataType::kString;
          bool r_str = r.out_type == DataType::kString;
          bool l_null = l.kind == ExprKind::kLiteral && l.literal.is_null();
          bool r_null = r.kind == ExprKind::kLiteral && r.literal.is_null();
          if (!l_null && !r_null && l_str != r_str) {
            return Status::TypeError("cannot compare string with numeric: " +
                                     e->ToString());
          }
          e->out_type = DataType::kInt64;
          return Status::OK();
        }
        default:
          if (!is_num(l.out_type) || !is_num(r.out_type)) {
            return Status::TypeError("arithmetic requires numeric operands: " +
                                     e->ToString());
          }
          e->out_type = (l.out_type == DataType::kDouble ||
                         r.out_type == DataType::kDouble)
                            ? DataType::kDouble
                            : DataType::kInt64;
          return Status::OK();
      }
    }
    case ExprKind::kUnaryOp:
      switch (e->un_op) {
        case UnOp::kNeg:
          if (e->children[0]->out_type == DataType::kString) {
            return Status::TypeError("cannot negate a string");
          }
          e->out_type = e->children[0]->out_type;
          return Status::OK();
        default:
          e->out_type = DataType::kInt64;
          return Status::OK();
      }
    case ExprKind::kFunctionCall:
      if (e->udf == nullptr) {
        return Status::Internal("unbound function in executable tree");
      }
      e->out_type = e->udf->return_type();
      return Status::OK();
    case ExprKind::kAggregate:
      switch (e->agg) {
        case AggKind::kCountStar:
        case AggKind::kCount:
          e->out_type = DataType::kInt64;
          break;
        case AggKind::kAvg:
          e->out_type = DataType::kDouble;
          break;
        case AggKind::kSum:
        case AggKind::kMin:
        case AggKind::kMax:
          e->out_type = e->children[0]->out_type;
          break;
      }
      return Status::OK();
  }
  return Status::Internal("unreachable");
}

}  // namespace skinner
