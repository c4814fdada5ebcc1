#include "post/post_processor.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

namespace skinner {

namespace {

/// Collects pointers to all aggregate nodes below `e`, in traversal order.
void CollectAggregates(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == ExprKind::kAggregate) {
    out->push_back(e);
    return;  // no nested aggregates (binder enforced)
  }
  for (const auto& c : e->children) CollectAggregates(c.get(), out);
}

/// Evaluates `e` with every aggregate node replaced by its computed value.
Value EvalWithAggregates(
    const Expr& e, const EvalContext& ctx,
    const std::unordered_map<const Expr*, Value>& agg_values) {
  auto it = agg_values.find(&e);
  if (it != agg_values.end()) return it->second;
  if (e.kind == ExprKind::kAggregate) return Value::Null();
  if (e.children.empty()) return EvalExpr(e, ctx);
  // Rebuild with evaluated children: clone shallowly and substitute.
  std::unique_ptr<Expr> copy = e.Clone();
  std::vector<Value> child_vals;
  child_vals.reserve(e.children.size());
  for (const auto& c : e.children) {
    child_vals.push_back(EvalWithAggregates(*c, ctx, agg_values));
  }
  for (size_t i = 0; i < copy->children.size(); ++i) {
    auto lit = Expr::MakeLiteral(child_vals[i]);
    lit->out_type = copy->children[i]->out_type;
    lit->udf = nullptr;
    copy->children[i] = std::move(lit);
  }
  return EvalExpr(*copy, ctx);
}

/// Comparator for ORDER BY keys: NULLs sort last ascending.
int CompareForSort(const Value& a, const Value& b) {
  if (a.is_null() && b.is_null()) return 0;
  if (a.is_null()) return 1;
  if (b.is_null()) return -1;
  return a.Compare(b);
}

struct SortKeyLess {
  const std::vector<std::vector<Value>>* keys;
  const std::vector<bool>* desc;
  bool operator()(size_t a, size_t b) const {
    const auto& ka = (*keys)[a];
    const auto& kb = (*keys)[b];
    for (size_t i = 0; i < ka.size(); ++i) {
      int c = CompareForSort(ka[i], kb[i]);
      if ((*desc)[i]) c = -c;
      if (c != 0) return c < 0;
    }
    return a < b;  // stable
  }
};

}  // namespace

Result<QueryResult> PostProcess(const PreparedQuery& pq,
                                const ResultSet& join_result) {
  const BoundQuery& q = pq.query();
  const int m = pq.num_tables();
  QueryResult out;
  for (const auto& item : q.select) out.column_names.push_back(item.name);

  // Row binding helper: positions -> base rows.
  std::vector<int64_t> binding(static_cast<size_t>(m), 0);
  EvalContext ctx = pq.MakeEvalContext(binding.data());
  auto bind_tuple = [&](const int32_t* tuple) {
    for (int t = 0; t < m; ++t) {
      binding[static_cast<size_t>(t)] =
          pq.base_row(t, tuple[static_cast<size_t>(t)]);
    }
  };

  const bool grouped = q.has_aggregates || !q.group_by.empty();
  // Sort keys computed alongside rows.
  std::vector<std::vector<Value>> sort_keys;
  std::vector<bool> sort_desc;
  for (const auto& o : q.order_by) sort_desc.push_back(o.desc);

  if (grouped) {
    // Aggregate nodes per select/order item.
    std::vector<const Expr*> agg_nodes;
    for (const auto& item : q.select) CollectAggregates(item.expr.get(), &agg_nodes);
    for (const auto& o : q.order_by) CollectAggregates(o.expr.get(), &agg_nodes);

    struct Group {
      std::vector<AggAccumulator> accs;     // parallel to agg_nodes
      PosTuple representative;              // the group's first tuple
    };
    auto new_group = [&] {
      Group grp;
      grp.accs.reserve(agg_nodes.size());
      for (const Expr* a : agg_nodes) grp.accs.emplace_back(a->agg);
      return grp;
    };
    std::map<std::string, Group> groups;  // ordered => deterministic output

    if (q.group_by.empty()) {
      // A global aggregate is one group, with one output row even over
      // zero input rows. COUNT(*) takes the row count at once; the other
      // aggregates bind only the tables their arguments reference, and a
      // COUNT(*)-only select unpacks no tuple.
      Group grp = new_group();
      std::set<int> arg_tables;
      std::vector<size_t> per_row;  // agg_nodes fed one row at a time
      for (size_t i = 0; i < agg_nodes.size(); ++i) {
        const Expr* a = agg_nodes[i];
        if (a->agg == AggKind::kCountStar) {
          grp.accs[i].AddRows(static_cast<int64_t>(join_result.size()));
        } else {
          a->children[0]->CollectTables(&arg_tables);
          per_row.push_back(i);
        }
      }
      if (!per_row.empty()) {
        join_result.ForEach([&](const int32_t* tuple) {
          for (int t : arg_tables) {
            binding[static_cast<size_t>(t)] =
                pq.base_row(t, tuple[static_cast<size_t>(t)]);
          }
          for (size_t i : per_row) {
            grp.accs[i].Add(EvalExpr(*agg_nodes[i]->children[0], ctx));
          }
        });
      }
      grp.representative.assign(static_cast<size_t>(m), 0);
      if (join_result.size() != 0) {
        join_result.Get(0, grp.representative.data());
      }
      groups.emplace(std::string(), std::move(grp));
    } else {
      join_result.ForEach([&](const int32_t* tuple) {
        bind_tuple(tuple);
        std::string key;
        for (const auto& g : q.group_by) {
          SerializeValueKey(EvalExpr(*g, ctx), &key);
        }
        auto it = groups.find(key);
        if (it == groups.end()) {
          Group grp = new_group();
          grp.representative.assign(tuple, tuple + m);
          it = groups.emplace(std::move(key), std::move(grp)).first;
        }
        Group& grp = it->second;
        for (size_t i = 0; i < agg_nodes.size(); ++i) {
          const Expr* a = agg_nodes[i];
          if (a->agg == AggKind::kCountStar) {
            grp.accs[i].Add(Value::Null());
          } else {
            grp.accs[i].Add(EvalExpr(*a->children[0], ctx));
          }
        }
      });
    }

    for (auto& [key, grp] : groups) {
      // Bind a representative tuple for the group's non-aggregate parts.
      bool have_rows = join_result.size() != 0 || !q.group_by.empty();
      if (have_rows) bind_tuple(grp.representative.data());
      std::unordered_map<const Expr*, Value> agg_values;
      for (size_t i = 0; i < agg_nodes.size(); ++i) {
        Result<Value> v = grp.accs[i].Finish();
        if (!v.ok()) {
          return Status::InvalidArgument(agg_nodes[i]->ToString() + ": " +
                                         v.status().message());
        }
        agg_values[agg_nodes[i]] = std::move(v.value());
      }
      std::vector<Value> row;
      row.reserve(q.select.size());
      for (const auto& item : q.select) {
        row.push_back(EvalWithAggregates(*item.expr, ctx, agg_values));
      }
      std::vector<Value> keys;
      keys.reserve(q.order_by.size());
      for (const auto& o : q.order_by) {
        keys.push_back(EvalWithAggregates(*o.expr, ctx, agg_values));
      }
      out.rows.push_back(std::move(row));
      sort_keys.push_back(std::move(keys));
    }
  } else {
    join_result.ForEach([&](const int32_t* tuple) {
      bind_tuple(tuple);
      std::vector<Value> row;
      row.reserve(q.select.size());
      for (const auto& item : q.select) row.push_back(EvalExpr(*item.expr, ctx));
      std::vector<Value> keys;
      keys.reserve(q.order_by.size());
      for (const auto& o : q.order_by) keys.push_back(EvalExpr(*o.expr, ctx));
      out.rows.push_back(std::move(row));
      sort_keys.push_back(std::move(keys));
    });
  }

  // DISTINCT: hashed value keys route each row to a bucket of candidate
  // duplicates, and exact value comparison decides — no string
  // serialization materialized per row, and no hash-collision risk.
  if (q.distinct) {
    std::unordered_map<uint64_t, std::vector<size_t>> buckets;
    std::vector<std::vector<Value>> rows;
    std::vector<std::vector<Value>> keys;
    for (size_t i = 0; i < out.rows.size(); ++i) {
      std::vector<size_t>& bucket = buckets[HashRowKey(out.rows[i])];
      bool dup = false;
      for (size_t kept : bucket) {
        if (RowsEqualForDistinct(rows[kept], out.rows[i])) {
          dup = true;
          break;
        }
      }
      if (dup) continue;
      bucket.push_back(rows.size());
      rows.push_back(std::move(out.rows[i]));
      keys.push_back(std::move(sort_keys[i]));
    }
    out.rows = std::move(rows);
    sort_keys = std::move(keys);
  }

  // ORDER BY.
  if (!q.order_by.empty()) {
    std::vector<size_t> perm(out.rows.size());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    SortKeyLess less{&sort_keys, &sort_desc};
    std::sort(perm.begin(), perm.end(), less);
    std::vector<std::vector<Value>> rows;
    rows.reserve(out.rows.size());
    for (size_t i : perm) rows.push_back(std::move(out.rows[i]));
    out.rows = std::move(rows);
  }

  // LIMIT.
  if (q.limit >= 0 && static_cast<int64_t>(out.rows.size()) > q.limit) {
    out.rows.resize(static_cast<size_t>(q.limit));
  }
  return out;
}

}  // namespace skinner
