#ifndef SKINNER_SQL_BINDER_H_
#define SKINNER_SQL_BINDER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/udf.h"
#include "sql/ast.h"
#include "storage/catalog.h"

namespace skinner {

struct BoundTable {
  const Table* table;
  std::string alias;
};

struct BoundSelectItem {
  std::unique_ptr<Expr> expr;
  std::string name;  // output column label
};

struct BoundOrderItem {
  std::unique_ptr<Expr> expr;
  bool desc = false;
};

/// A fully resolved SELECT: every column reference carries table/column
/// indices, every function points at its UDF, every node has a type.
/// This is the input to query-info analysis and all execution engines.
struct BoundQuery {
  /// The catalog version the tables were resolved in, pinned for as long
  /// as the query (or any Clone of it) lives: every `tables[i].table`
  /// stays valid and unchanged while writers publish newer versions.
  std::shared_ptr<const CatalogVersion> catalog_version;
  std::vector<BoundTable> tables;
  std::unique_ptr<Expr> where;  // may be null
  std::vector<BoundSelectItem> select;
  bool distinct = false;
  std::vector<std::unique_ptr<Expr>> group_by;
  std::vector<BoundOrderItem> order_by;
  int64_t limit = -1;
  bool has_aggregates = false;

  /// `?` placeholders of a parameterized template (Session::Prepare). The
  /// binder infers each parameter's type from its context (the sibling of
  /// a comparison, LIKE's pattern side, arithmetic operands); a parameter
  /// whose context is ambiguous stays param_known=false and accepts any
  /// value type. Only PreparedStatement may execute a query with
  /// num_params > 0 — every other path rejects it with an error Status.
  int num_params = 0;
  std::vector<DataType> param_types;  // inferred; indexed by ordinal
  std::vector<bool> param_known;      // false: type could not be inferred

  int num_tables() const { return static_cast<int>(tables.size()); }

  /// Deep copy (expression trees cloned; Table pointers and the pinned
  /// version shared). Used by PreparedStatement to instantiate a template
  /// per execution.
  std::unique_ptr<BoundQuery> Clone() const;
  std::vector<const Table*> TablePtrs() const {
    std::vector<const Table*> out;
    out.reserve(tables.size());
    for (const auto& t : tables) out.push_back(t.table);
    return out;
  }
};

/// A fully resolved UPDATE or DELETE: the target table, SET expressions
/// with resolved column ordinals (empty for DELETE) and the optional WHERE
/// predicate, all bound against the single target table. Shares the
/// BoundQuery parameter-inference machinery so `?`-parameterized DML works
/// through PreparedStatement.
struct BoundMutation {
  Statement::Kind kind = Statement::Kind::kUpdate;
  /// The version `table` was resolved in (see BoundQuery). A writer plans
  /// on this table and publishes a changed clone of it.
  std::shared_ptr<const CatalogVersion> catalog_version;
  const Table* table = nullptr;
  std::string table_name;  // as written (for freshness re-lookup)

  struct SetClause {
    int column_idx = -1;
    std::unique_ptr<Expr> expr;
  };
  std::vector<SetClause> sets;  // empty for DELETE
  std::unique_ptr<Expr> where;  // may be null (affects every row)

  int num_params = 0;
  std::vector<DataType> param_types;
  std::vector<bool> param_known;

  /// Deep copy (expression trees cloned; the Table pointer and the pinned
  /// version shared). Used by PreparedStatement to instantiate the
  /// template per execution.
  std::unique_ptr<BoundMutation> Clone() const;
};

/// Binds a parsed SELECT against the catalog's current version, which the
/// result pins. `stmt` is consumed. String literals are looked up in the
/// catalog's pool so engines can compare dictionary codes instead of
/// strings.
Result<BoundQuery> BindSelect(SelectStmt* stmt, Catalog* catalog,
                              const UdfRegistry* udfs);

/// Binds UPDATE / DELETE against the catalog's current version, which the
/// result pins (`stmt` consumed). SET
/// expressions and WHERE may reference the target table's columns; a bare
/// `?` in `SET col = ?` takes the column's type.
Result<BoundMutation> BindUpdate(UpdateStmt* stmt, Catalog* catalog,
                                 const UdfRegistry* udfs);
Result<BoundMutation> BindDelete(DeleteStmt* stmt, Catalog* catalog,
                                 const UdfRegistry* udfs);

/// Recomputes out_type bottom-up and re-applies the binder's operator type
/// checks over an already-bound expression tree. Column references, UDF
/// bindings and literal pool ids are left untouched. Used after parameter
/// substitution so that a template instantiated with concrete values types
/// (and errors) exactly like the literal-substituted SQL text would.
Status RebindTypes(Expr* e);

}  // namespace skinner

#endif  // SKINNER_SQL_BINDER_H_
