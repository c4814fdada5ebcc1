#include "sql/binder.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace skinner {
namespace {

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .CreateTable("t", Schema({{"a", DataType::kInt64},
                                              {"b", DataType::kString},
                                              {"c", DataType::kDouble}}))
                    .ok());
    ASSERT_TRUE(catalog_
                    .CreateTable("u", Schema({{"a", DataType::kInt64},
                                              {"d", DataType::kInt64}}))
                    .ok());
    ASSERT_TRUE(udfs_
                    .Register("f", 1, DataType::kInt64,
                              [](const std::vector<Value>&) {
                                return Value::Int(1);
                              })
                    .ok());
  }

  Result<BoundQuery> Bind(const std::string& sql) {
    auto stmt = ParseSql(sql);
    if (!stmt.ok()) return stmt.status();
    return BindSelect(stmt.value().select.get(), &catalog_, &udfs_);
  }

  Catalog catalog_;
  UdfRegistry udfs_;
};

TEST_F(BinderTest, ResolvesQualifiedColumns) {
  auto q = Bind("SELECT t.a FROM t, u WHERE t.a = u.a");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const Expr& e = *q.value().select[0].expr;
  EXPECT_EQ(e.table_idx, 0);
  EXPECT_EQ(e.column_idx, 0);
  EXPECT_EQ(e.out_type, DataType::kInt64);
}

TEST_F(BinderTest, ResolvesUnqualifiedUniqueColumns) {
  auto q = Bind("SELECT b, d FROM t, u");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().select[0].expr->table_idx, 0);
  EXPECT_EQ(q.value().select[1].expr->table_idx, 1);
}

TEST_F(BinderTest, AmbiguousColumnIsError) {
  auto q = Bind("SELECT a FROM t, u");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kBindError);
}

TEST_F(BinderTest, UnknownTableAndColumn) {
  EXPECT_FALSE(Bind("SELECT x FROM nope").ok());
  EXPECT_FALSE(Bind("SELECT nope FROM t").ok());
  EXPECT_FALSE(Bind("SELECT z.a FROM t z2").ok());
}

TEST_F(BinderTest, DuplicateAliasIsError) {
  EXPECT_FALSE(Bind("SELECT * FROM t x, u x").ok());
}

TEST_F(BinderTest, SelfJoinWithAliases) {
  auto q = Bind("SELECT x.a, y.a FROM t x, t y WHERE x.a = y.a");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().select[0].expr->table_idx, 0);
  EXPECT_EQ(q.value().select[1].expr->table_idx, 1);
}

TEST_F(BinderTest, StarExpansion) {
  auto q = Bind("SELECT * FROM t, u");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().select.size(), 5u);  // 3 + 2 columns
  EXPECT_EQ(q.value().select[0].name, "t.a");
  EXPECT_EQ(q.value().select[4].name, "u.d");
}

TEST_F(BinderTest, TypePropagation) {
  auto q = Bind("SELECT a + 1, c * 2, a < 3 FROM t");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().select[0].expr->out_type, DataType::kInt64);
  EXPECT_EQ(q.value().select[1].expr->out_type, DataType::kDouble);
  EXPECT_EQ(q.value().select[2].expr->out_type, DataType::kInt64);
}

TEST_F(BinderTest, TypeErrors) {
  EXPECT_FALSE(Bind("SELECT a + b FROM t").ok());      // int + string
  EXPECT_FALSE(Bind("SELECT * FROM t WHERE a = b").ok());  // int vs string
  EXPECT_FALSE(Bind("SELECT * FROM t WHERE a LIKE 'x'").ok());  // int LIKE
  EXPECT_FALSE(Bind("SELECT -b FROM t").ok());          // negate string
}

// Binding looks string literals up in the pool and never interns them, so
// read traffic cannot grow it: a stored string binds to its code, an absent
// one to -1 (which equals no stored code).
TEST_F(BinderTest, StringLiteralsLookedUpNotInterned) {
  StringPool* pool = catalog_.string_pool();
  const int32_t hello = pool->Intern("hello");
  const size_t size = pool->size();
  auto literal_id = [&](const std::string& sql) {
    auto q = Bind(sql);
    EXPECT_TRUE(q.ok());
    std::vector<Expr*> conjuncts;
    SplitConjuncts(q.value().where.get(), &conjuncts);
    return conjuncts[0]->children[1]->literal_pool_id;
  };
  EXPECT_EQ(literal_id("SELECT * FROM t WHERE b = 'hello'"), hello);
  EXPECT_EQ(literal_id("SELECT * FROM t WHERE b = 'absent'"), -1);
  EXPECT_EQ(pool->size(), size);
}

TEST_F(BinderTest, UdfBinding) {
  auto q = Bind("SELECT f(a) FROM t");
  ASSERT_TRUE(q.ok());
  EXPECT_NE(q.value().select[0].expr->udf, nullptr);
  EXPECT_FALSE(Bind("SELECT g(a) FROM t").ok());       // unknown function
  EXPECT_FALSE(Bind("SELECT f(a, a) FROM t").ok());    // wrong arity
}

TEST_F(BinderTest, AggregateRules) {
  EXPECT_TRUE(Bind("SELECT COUNT(*) FROM t").ok());
  EXPECT_TRUE(Bind("SELECT b, COUNT(*) FROM t GROUP BY b").ok());
  // Non-grouped plain column with aggregates is rejected.
  EXPECT_FALSE(Bind("SELECT a, COUNT(*) FROM t").ok());
  // Aggregates in WHERE are rejected.
  EXPECT_FALSE(Bind("SELECT a FROM t WHERE COUNT(*) > 1").ok());
}

TEST_F(BinderTest, AggregateTypes) {
  auto q = Bind("SELECT COUNT(*), SUM(a), SUM(c), AVG(a), MIN(b) FROM t");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().select[0].expr->out_type, DataType::kInt64);
  EXPECT_EQ(q.value().select[1].expr->out_type, DataType::kInt64);
  EXPECT_EQ(q.value().select[2].expr->out_type, DataType::kDouble);
  EXPECT_EQ(q.value().select[3].expr->out_type, DataType::kDouble);
  EXPECT_EQ(q.value().select[4].expr->out_type, DataType::kString);
}

TEST_F(BinderTest, OrderByOrdinalOutOfRange) {
  EXPECT_FALSE(Bind("SELECT a FROM t ORDER BY 2").ok());
  EXPECT_FALSE(Bind("SELECT a FROM t ORDER BY 0").ok());
  EXPECT_TRUE(Bind("SELECT a FROM t ORDER BY 1").ok());
}

TEST_F(BinderTest, NullLiteralComparesWithAnything) {
  EXPECT_TRUE(Bind("SELECT * FROM t WHERE b = NULL").ok());
  EXPECT_TRUE(Bind("SELECT * FROM t WHERE a = NULL").ok());
}

}  // namespace
}  // namespace skinner
