#include "test_util.h"

#include <algorithm>
#include <cassert>

#include "common/str_util.h"
#include "expr/eval.h"

namespace skinner {
namespace testing {

Status BuildRandomDb(Database* db, const RandomDbSpec& spec,
                     std::vector<std::string>* table_names) {
  Rng rng(spec.seed);
  StringPool* pool = db->catalog()->string_pool();
  static const char* kStrings[4] = {"red", "green", "blue", "gold"};
  for (int i = 0; i < spec.num_tables; ++i) {
    std::string name = StrFormat("r%d", i);
    db->catalog()->DropTable(name);
    auto res = db->catalog()->CreateTable(
        name, Schema({{"pk", DataType::kInt64},
                      {"fk", DataType::kInt64},
                      {"val", DataType::kInt64},
                      {"s", DataType::kString},
                      {"d", DataType::kDouble}}));
    if (!res.ok()) return res.status();
    Table* t = res.value();
    int64_t rows = rng.Range(spec.min_rows, spec.max_rows);
    for (int64_t r = 0; r < rows; ++r) {
      t->mutable_column(0)->AppendInt(r);
      if (rng.Bernoulli(spec.null_prob)) {
        t->mutable_column(1)->AppendNull();
      } else {
        t->mutable_column(1)->AppendInt(
            static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(spec.key_domain))));
      }
      if (rng.Bernoulli(spec.null_prob)) {
        t->mutable_column(2)->AppendNull();
      } else {
        t->mutable_column(2)->AppendInt(static_cast<int64_t>(rng.Uniform(10)));
      }
      t->mutable_column(3)->AppendString(kStrings[rng.Uniform(4)], pool);
      if (spec.double_join_keys) {
        int64_t k = static_cast<int64_t>(
            rng.Uniform(static_cast<uint64_t>(spec.key_domain)));
        double d = static_cast<double>(k) * 0.5;
        if (k == 0 && rng.Bernoulli(0.5)) d = -0.0;
        t->mutable_column(4)->AppendDouble(d);
      } else {
        t->mutable_column(4)->AppendDouble(
            static_cast<double>(rng.Uniform(100)) / 10.0);
      }
      t->CommitRow();
    }
    table_names->push_back(name);
  }
  return Status::OK();
}

std::string RandomCountQuery(Rng* rng, const std::vector<std::string>& tables) {
  int m = 2 + static_cast<int>(rng->Uniform(
                  std::min<uint64_t>(tables.size() - 1, 4)));
  // Random subset of m tables.
  std::vector<std::string> chosen(tables);
  for (size_t i = 0; i < chosen.size(); ++i) {
    std::swap(chosen[i], chosen[i + rng->Uniform(chosen.size() - i)]);
  }
  chosen.resize(static_cast<size_t>(m));

  std::vector<std::string> conjuncts;
  // Spanning tree of equality joins over {pk, fk} columns.
  for (int i = 1; i < m; ++i) {
    int parent = static_cast<int>(rng->Uniform(static_cast<uint64_t>(i)));
    const char* ca = rng->Bernoulli(0.5) ? "fk" : "pk";
    const char* cb = rng->Bernoulli(0.5) ? "fk" : "pk";
    conjuncts.push_back(StrFormat("t%d.%s = t%d.%s", parent, ca, i, cb));
  }
  // Optional unary predicates.
  for (int i = 0; i < m; ++i) {
    if (rng->Bernoulli(0.4)) {
      switch (rng->Uniform(4)) {
        case 0:
          conjuncts.push_back(StrFormat("t%d.val < %d", i,
                                        static_cast<int>(rng->Uniform(10))));
          break;
        case 1:
          conjuncts.push_back(StrFormat("t%d.s = 'red'", i));
          break;
        case 2:
          conjuncts.push_back(
              StrFormat("t%d.val IS NOT NULL", i));
          break;
        default:
          conjuncts.push_back(StrFormat("t%d.d >= %d.5", i,
                                        static_cast<int>(rng->Uniform(8))));
          break;
      }
    }
  }
  // Occasional non-equality join predicate.
  if (m >= 2 && rng->Bernoulli(0.3)) {
    int a = static_cast<int>(rng->Uniform(static_cast<uint64_t>(m)));
    int b = (a + 1) % m;
    conjuncts.push_back(StrFormat("t%d.val <= t%d.val", a, b));
  }

  std::string sql = "SELECT COUNT(*) FROM ";
  for (int i = 0; i < m; ++i) {
    if (i) sql += ", ";
    sql += chosen[static_cast<size_t>(i)] + StrFormat(" t%d", i);
  }
  if (!conjuncts.empty()) sql += " WHERE " + Join(conjuncts, " AND ");
  return sql;
}

std::string RandomDoubleKeyCountQuery(Rng* rng,
                                      const std::vector<std::string>& tables) {
  // The query always emits at least one join, so two tables are required
  // (and Uniform's bound must stay positive).
  assert(tables.size() >= 2);
  int m = 2 + static_cast<int>(rng->Uniform(
                  std::min<uint64_t>(tables.size() - 1, 3)));
  std::vector<std::string> chosen(tables);
  for (size_t i = 0; i < chosen.size(); ++i) {
    std::swap(chosen[i], chosen[i + rng->Uniform(chosen.size() - i)]);
  }
  chosen.resize(static_cast<size_t>(m));

  std::vector<std::string> conjuncts;
  // Spanning tree of equality joins over the DOUBLE `d` columns.
  for (int i = 1; i < m; ++i) {
    int parent = static_cast<int>(rng->Uniform(static_cast<uint64_t>(i)));
    conjuncts.push_back(StrFormat("t%d.d = t%d.d", parent, i));
  }
  // Optional unary predicates (kept off `d` so every join key survives
  // filtering, including the signed zeros).
  for (int i = 0; i < m; ++i) {
    if (rng->Bernoulli(0.3)) {
      conjuncts.push_back(StrFormat("t%d.val < %d", i,
                                    static_cast<int>(rng->Uniform(10))));
    }
  }

  std::string sql = "SELECT COUNT(*) FROM ";
  for (int i = 0; i < m; ++i) {
    if (i) sql += ", ";
    sql += chosen[static_cast<size_t>(i)] + StrFormat(" t%d", i);
  }
  sql += " WHERE " + Join(conjuncts, " AND ");
  return sql;
}

namespace {
int64_t BruteForceRec(const BoundQuery& query, const EvalContext& ctx,
                      std::vector<int64_t>* binding, size_t t) {
  if (t == query.tables.size()) {
    if (query.where == nullptr) return 1;
    return EvalPredicate(*query.where, ctx) ? 1 : 0;
  }
  int64_t count = 0;
  int64_t rows = query.tables[t].table->num_rows();
  for (int64_t r = 0; r < rows; ++r) {
    (*binding)[t] = r;
    count += BruteForceRec(query, ctx, binding, t + 1);
  }
  return count;
}
}  // namespace

int64_t BruteForceCount(Database* db, const BoundQuery& query) {
  std::vector<const Table*> tables = query.TablePtrs();
  std::vector<int64_t> binding(tables.size(), 0);
  EvalContext ctx;
  ctx.tables = &tables;
  ctx.pool = db->catalog()->string_pool();
  ctx.rows = binding.data();
  return BruteForceRec(query, ctx, &binding, 0);
}

int64_t RunCount(Database* db, const std::string& sql,
                 const ExecOptions& opts) {
  auto out = db->Query(sql, opts);
  if (!out.ok()) return -1;
  if (out.value().result.rows.size() != 1) return -2;
  return out.value().result.rows[0][0].AsInt();
}

std::string CanonicalRows(const QueryResult& result) {
  std::vector<std::string> lines;
  lines.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::string line;
    for (const auto& v : row) {
      line += v.ToString();
      line += "|";
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += "\n";
  }
  return out;
}

HashIndex IndexOfColumn(const Column& col) {
  std::vector<int32_t> rows(static_cast<size_t>(col.size()));
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = static_cast<int32_t>(r);
  return HashIndex(JoinKeyView(col), rows);
}

}  // namespace testing
}  // namespace skinner
