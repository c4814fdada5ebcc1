#include "api/prepared_statement.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/database.h"
#include "api/session.h"
#include "common/str_util.h"
#include "test_util.h"

namespace skinner {
namespace {

class PreparedStatementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE dept (id INT, dname STRING)").ok());
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE emp (id INT, name STRING, dept_id INT, "
                    "salary DOUBLE)")
            .ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO dept VALUES (1, 'eng'), (2, 'ops'), "
                            "(3, 'hr')")
                    .ok());
    ASSERT_TRUE(
        db_.Execute(
              "INSERT INTO emp VALUES "
              "(1, 'ada', 1, 120.0), (2, 'bob', 1, 95.5), (3, 'cyd', 2, 80.0), "
              "(4, 'dan', 2, 70.0), (5, 'eve', 3, 60.0), (6, 'fay', 9, 50.0), "
              "(7, NULL, 1, 42.0)")
            .ok());
  }

  Database db_;
};

TEST_F(PreparedStatementTest, ParamBindingMatchesLiteralQueryBitIdentically) {
  // The contract: Execute({v}) returns rows bit-identical to Query() on
  // the literal-substituted SQL text. Run on the default session so the
  // two paths share one seed derivation.
  Session* s = db_.default_session();
  auto stmt = s->Prepare(
      "SELECT e.name, d.dname, e.salary FROM emp e, dept d "
      "WHERE e.dept_id = d.id AND e.salary > ? ORDER BY e.name");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt.value()->num_params(), 1);
  EXPECT_EQ(stmt.value()->param_type(0), DataType::kDouble);

  for (double cut : {0.0, 65.0, 90.0, 1000.0}) {
    auto prepared = stmt.value()->Execute({Value::Double(cut)});
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    auto literal = db_.Query(StrFormat(
        "SELECT e.name, d.dname, e.salary FROM emp e, dept d "
        "WHERE e.dept_id = d.id AND e.salary > %f ORDER BY e.name",
        cut));
    ASSERT_TRUE(literal.ok()) << literal.status().ToString();
    EXPECT_EQ(testing::CanonicalRows(prepared.value().result),
              testing::CanonicalRows(literal.value().result))
        << "cut=" << cut;
  }
}

TEST_F(PreparedStatementTest, PerTableArtifactSharingAcrossParamValues) {
  Session* s = db_.default_session();
  // The ? filters emp only; dept's artifact must be built once and shared
  // by every subsequent execution regardless of the bound value.
  auto stmt = s->Prepare(
      "SELECT COUNT(*) FROM emp e, dept d "
      "WHERE e.dept_id = d.id AND e.salary > ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  auto first = stmt.value()->Execute({Value::Double(60.0)});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().stats.tables_reprepared, 2);
  EXPECT_EQ(first.value().stats.tables_prepared_from_cache, 0);
  EXPECT_FALSE(first.value().stats.prepared_from_cache);
  EXPECT_GT(first.value().stats.preprocess_cost, 0u);

  // Different constant: only the param-filtered table re-prepares.
  auto second = stmt.value()->Execute({Value::Double(90.0)});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().stats.tables_reprepared, 1);
  EXPECT_EQ(second.value().stats.tables_prepared_from_cache, 1);

  // Same constant as before: everything is cached now.
  auto third = stmt.value()->Execute({Value::Double(90.0)});
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().stats.tables_reprepared, 0);
  EXPECT_EQ(third.value().stats.tables_prepared_from_cache, 2);
  EXPECT_TRUE(third.value().stats.prepared_from_cache);
  EXPECT_EQ(third.value().stats.preprocess_cost, 0u);
  EXPECT_EQ(third.value().result.rows[0][0].AsInt(),
            second.value().result.rows[0][0].AsInt());
}

TEST_F(PreparedStatementTest, WarmStartsUctFromTheTemplatesPriorOrder) {
  Session* s = db_.default_session();
  auto stmt = s->Prepare(
      "SELECT COUNT(*) FROM emp e1, emp e2, dept d WHERE "
      "e1.dept_id = d.id AND e2.dept_id = d.id AND e1.salary > ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  auto first = stmt.value()->Execute({Value::Double(55.0)});
  ASSERT_TRUE(first.ok());
  // Execution #1 of the template: nothing to warm-start from.
  EXPECT_FALSE(first.value().stats.template_signature_hit);

  // Execution #2 binds a DIFFERENT constant and still warm-starts from
  // the template's recorded final order (the whole point of keying warm
  // orders by the parameter-abstracted signature).
  auto second = stmt.value()->Execute({Value::Double(75.0)});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().stats.template_signature_hit);
  EXPECT_EQ(db_.prepared_cache()
                ->WarmOrder(stmt.value()->template_signature())
                .size(),
            3u);
}

TEST_F(PreparedStatementTest, InsertInvalidatesOnlyTheInsertedTablesArtifact) {
  Session* s = db_.default_session();
  auto stmt = s->Prepare(
      "SELECT COUNT(*) FROM emp e, dept d "
      "WHERE e.dept_id = d.id AND e.salary > ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt.value()->Execute({Value::Double(60.0)}).ok());

  // DML on dept bumps its data version: dept re-prepares, emp's artifact
  // for this value is still fresh.
  ASSERT_TRUE(db_.Execute("INSERT INTO dept VALUES (9, 'new')").ok());
  auto after = stmt.value()->Execute({Value::Double(60.0)});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().stats.tables_reprepared, 1);
  EXPECT_EQ(after.value().stats.tables_prepared_from_cache, 1);
}

TEST_F(PreparedStatementTest, NullParams) {
  Session* s = db_.default_session();
  auto stmt = s->Prepare("SELECT COUNT(*) FROM emp e WHERE e.name = ?");
  ASSERT_TRUE(stmt.ok());
  // NULL never compares equal: zero rows, no error — exactly like the
  // literal query.
  auto out = stmt.value()->Execute({Value::Null()});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().result.rows[0][0].AsInt(), 0);
  auto literal = db_.Query("SELECT COUNT(*) FROM emp e WHERE e.name = NULL");
  ASSERT_TRUE(literal.ok());
  EXPECT_EQ(testing::CanonicalRows(out.value().result),
            testing::CanonicalRows(literal.value().result));
}

TEST_F(PreparedStatementTest, TypeMismatchedParamsAreAnErrorStatus) {
  Session* s = db_.default_session();
  auto stmt = s->Prepare("SELECT COUNT(*) FROM emp e WHERE e.salary > ?");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt.value()->param_type_known(0));
  auto out = stmt.value()->Execute({Value::String("expensive")});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kTypeError);

  // String slot rejects numbers symmetrically.
  auto stmt2 = s->Prepare("SELECT COUNT(*) FROM emp e WHERE e.name LIKE ?");
  ASSERT_TRUE(stmt2.ok());
  EXPECT_EQ(stmt2.value()->param_type(0), DataType::kString);
  auto out2 = stmt2.value()->Execute({Value::Int(7)});
  ASSERT_FALSE(out2.ok());
  EXPECT_EQ(out2.status().code(), StatusCode::kTypeError);

  // An int param in a double slot is NOT an error: numeric classes mix,
  // exactly as the literal `> 70` would against a DOUBLE column.
  auto ok = stmt.value()->Execute({Value::Int(70)});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  auto literal = db_.Query("SELECT COUNT(*) FROM emp e WHERE e.salary > 70");
  ASSERT_TRUE(literal.ok());
  EXPECT_EQ(testing::CanonicalRows(ok.value().result),
            testing::CanonicalRows(literal.value().result));

  // `? = ?` stays open at bind time; a string-vs-numeric pair is caught
  // at Execute by the substituted tree's re-typecheck, not UB.
  auto stmt3 = s->Prepare("SELECT COUNT(*) FROM emp e WHERE ? = ?");
  ASSERT_TRUE(stmt3.ok());
  EXPECT_FALSE(stmt3.value()->param_type_known(0));
  auto out3 = stmt3.value()->Execute({Value::String("x"), Value::Int(1)});
  ASSERT_FALSE(out3.ok());
  EXPECT_EQ(out3.status().code(), StatusCode::kTypeError);
  auto ok3 = stmt3.value()->Execute({Value::Int(1), Value::Int(1)});
  ASSERT_TRUE(ok3.ok());
  EXPECT_EQ(ok3.value().result.rows[0][0].AsInt(), 7);
}

TEST_F(PreparedStatementTest, NullLiteralSiblingInfersNothing) {
  // `? = NULL` must accept any value type, exactly like the literal text
  // (a NULL literal carries no type to infer from).
  Session* s = db_.default_session();
  auto stmt = s->Prepare("SELECT COUNT(*) FROM emp e WHERE ? = NULL");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_FALSE(stmt.value()->param_type_known(0));
  auto out = stmt.value()->Execute({Value::String("x")});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().result.rows[0][0].AsInt(), 0);  // NULL never matches
}

TEST_F(PreparedStatementTest, ConflictingParamContextsAreABindError) {
  // IN expands to OR-of-equalities over clones of the left side: one `?`
  // ordinal compared against both a number and a string can never bind.
  auto stmt = db_.default_session()->Prepare(
      "SELECT COUNT(*) FROM emp e WHERE ? IN (1, 'x')");
  ASSERT_FALSE(stmt.ok());
  EXPECT_EQ(stmt.status().code(), StatusCode::kBindError);
}

TEST_F(PreparedStatementTest, FalseConstantPredicateSkipsArtifactBuilds) {
  Session* s = db_.default_session();
  auto stmt = s->Prepare(
      "SELECT COUNT(*) FROM emp e, dept d WHERE e.dept_id = d.id AND ? = 1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  // Constant predicate false: trivially empty, and — like Query() on the
  // literal text — no table is ever scanned or indexed for it.
  auto empty = stmt.value()->Execute({Value::Int(0)});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().result.rows[0][0].AsInt(), 0);
  EXPECT_EQ(empty.value().stats.tables_reprepared, 0);
  EXPECT_EQ(empty.value().stats.tables_prepared_from_cache, 0);

  // Constant predicate true: normal per-table preparation.
  auto full = stmt.value()->Execute({Value::Int(1)});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().stats.tables_reprepared, 2);
  EXPECT_EQ(full.value().result.rows[0][0].AsInt(), 6);

  // The literal text takes the same prepare core: the constant predicate
  // is evaluated per execution and no table is built or fetched for it,
  // on the first run or any repeat.
  ExecOptions cached;
  cached.use_prepared_cache = true;
  for (int rep = 0; rep < 2; ++rep) {
    auto literal = db_.Query(
        "SELECT COUNT(*) FROM emp e, dept d WHERE e.dept_id = d.id AND 0 = 1",
        cached);
    ASSERT_TRUE(literal.ok()) << literal.status().ToString();
    EXPECT_EQ(literal.value().result.rows[0][0].AsInt(), 0);
    EXPECT_EQ(literal.value().stats.tables_reprepared, 0) << "rep " << rep;
    EXPECT_EQ(literal.value().stats.tables_prepared_from_cache, 0)
        << "rep " << rep;
  }
}

TEST_F(PreparedStatementTest, WrongArityIsAnErrorStatus) {
  Session* s = db_.default_session();
  auto stmt = s->Prepare(
      "SELECT COUNT(*) FROM emp e WHERE e.salary > ? AND e.dept_id = ?");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt.value()->num_params(), 2);
  for (const std::vector<Value>& bad :
       {std::vector<Value>{}, std::vector<Value>{Value::Int(1)},
        std::vector<Value>{Value::Int(1), Value::Int(2), Value::Int(3)}}) {
    auto out = stmt.value()->Execute(bad);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(
      stmt.value()->Execute({Value::Double(60.0), Value::Int(1)}).ok());
}

TEST_F(PreparedStatementTest, ParamsInSelectAndGroupByExpressions) {
  Session* s = db_.default_session();
  // A ? inside a GROUP BY expression (and the matching select item). Note
  // a bare ? in GROUP BY is a constant expression, not an ordinal.
  auto stmt = s->Prepare(
      "SELECT e.salary * ? AS bucket, COUNT(*) AS n FROM emp e "
      "GROUP BY e.salary * ? ORDER BY 1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto out =
      stmt.value()->Execute({Value::Double(2.0), Value::Double(2.0)});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto literal = db_.Query(
      "SELECT e.salary * 2.0 AS bucket, COUNT(*) AS n FROM emp e "
      "GROUP BY e.salary * 2.0 ORDER BY 1");
  ASSERT_TRUE(literal.ok());
  EXPECT_EQ(testing::CanonicalRows(out.value().result),
            testing::CanonicalRows(literal.value().result));
}

TEST_F(PreparedStatementTest, HavingIsRejectedWithAnErrorStatus) {
  // The grammar has no HAVING; a parameterized HAVING must surface as a
  // parse error Status, never UB.
  Session* s = db_.default_session();
  auto stmt = s->Prepare(
      "SELECT e.dept_id, COUNT(*) FROM emp e GROUP BY e.dept_id "
      "HAVING COUNT(*) > ?");
  ASSERT_FALSE(stmt.ok());
  EXPECT_EQ(stmt.status().code(), StatusCode::kParseError);
}

TEST_F(PreparedStatementTest, QueryRejectsUnboundParameters) {
  // Parameterized SQL through the one-shot path must error, not execute
  // a dangling placeholder.
  auto out = db_.Query("SELECT COUNT(*) FROM emp e WHERE e.salary > ?");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  // And INSERT cannot take parameters either.
  Status ins = db_.Execute("INSERT INTO dept VALUES (?, 'x')");
  ASSERT_FALSE(ins.ok());
  EXPECT_EQ(ins.code(), StatusCode::kInvalidArgument);
}

TEST_F(PreparedStatementTest, StatementGoesStaleAcrossDropAndRecreate) {
  Session* s = db_.default_session();
  auto stmt = s->Prepare("SELECT COUNT(*) FROM dept d WHERE d.id = ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt.value()->Execute({Value::Int(1)}).ok());

  ASSERT_TRUE(db_.Execute("DROP TABLE dept").ok());
  auto dropped = stmt.value()->Execute({Value::Int(1)});
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(db_.Execute("CREATE TABLE dept (id INT, dname STRING)").ok());
  auto recreated = stmt.value()->Execute({Value::Int(1)});
  ASSERT_FALSE(recreated.ok());  // same name, different table identity

  // Re-preparing picks up the new table.
  auto fresh = s->Prepare("SELECT COUNT(*) FROM dept d WHERE d.id = ?");
  ASSERT_TRUE(fresh.ok());
  auto out = fresh.value()->Execute({Value::Int(1)});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().result.rows[0][0].AsInt(), 0);
}

TEST_F(PreparedStatementTest, ExecuteBatchIsBitIdenticalForAnyWorkerCount) {
  Session* s = db_.default_session();
  auto stmt = s->Prepare(
      "SELECT e.name, d.dname FROM emp e, dept d "
      "WHERE e.dept_id = d.id AND e.salary > ? ORDER BY e.name");
  ASSERT_TRUE(stmt.ok());

  std::vector<std::vector<Value>> param_sets;
  for (double cut : {0.0, 55.0, 65.0, 75.0, 85.0, 95.0, 55.0, 0.0}) {
    param_sets.push_back({Value::Double(cut)});
  }
  auto fingerprint = [&](int workers) {
    BatchOptions bo;
    bo.num_workers = workers;
    std::string fp;
    for (const auto& res : s->ExecuteBatch(stmt.value().get(), param_sets, bo)) {
      EXPECT_TRUE(res.ok()) << res.status().ToString();
      if (!res.ok()) continue;
      fp += testing::CanonicalRows(res.value().result);
      fp += '|';
    }
    return fp;
  };
  db_.prepared_cache()->Clear();
  const std::string fp1 = fingerprint(1);
  db_.prepared_cache()->Clear();
  const std::string fp4 = fingerprint(4);
  EXPECT_EQ(fp1, fp4);
  EXPECT_NE(fp1.find('|'), std::string::npos);
}

TEST_F(PreparedStatementTest, RandomizedTemplatesMatchLiteralQueries) {
  // Property check over the shared random workload: parameterize the
  // unary predicate constant of a random join query and compare against
  // the literal text for several values.
  Database db;
  std::vector<std::string> tables;
  testing::RandomDbSpec spec;
  spec.seed = 77;
  ASSERT_TRUE(testing::BuildRandomDb(&db, spec, &tables).ok());
  Session* s = db.default_session();

  auto stmt = s->Prepare(StrFormat(
      "SELECT COUNT(*) FROM %s a, %s b WHERE a.fk = b.pk AND a.val >= ?",
      tables[0].c_str(), tables[1].c_str()));
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  // Width 1, then width 4 with parallel pre-processing. At width 4 every
  // execution starts from an empty cache, so the statement builds both
  // tables like the uncached literal query does — through the same
  // builder, hence the same charged pre-processing cost.
  for (const int width : {1, 4}) {
    ExecOptions opts;
    opts.parallel_preprocess = width > 1;
    opts.num_threads = width;
    for (int v = -2; v <= 6; ++v) {
      if (width > 1) db.prepared_cache()->Clear();
      auto prepared = stmt.value()->Execute({Value::Int(v)}, opts);
      ASSERT_TRUE(prepared.ok());
      auto literal = db.Query(
          StrFormat("SELECT COUNT(*) FROM %s a, %s b WHERE a.fk = b.pk AND "
                    "a.val >= %d",
                    tables[0].c_str(), tables[1].c_str(), v),
          opts);
      ASSERT_TRUE(literal.ok());
      EXPECT_EQ(prepared.value().result.rows[0][0].AsInt(),
                literal.value().result.rows[0][0].AsInt())
          << "width=" << width << " v=" << v;
      if (width > 1) {
        EXPECT_EQ(prepared.value().stats.tables_reprepared, 2);
        EXPECT_EQ(prepared.value().stats.preprocess_cost,
                  literal.value().stats.preprocess_cost)
            << "v=" << v;
      }
    }
  }
}

}  // namespace
}  // namespace skinner
