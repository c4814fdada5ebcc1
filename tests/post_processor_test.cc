#include "post/post_processor.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "api/database.h"

namespace skinner {
namespace {

// Post-processing is exercised through the API for realistic plumbing.
class PostProcessorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE s (g STRING, x INT, y DOUBLE)").ok());
    ASSERT_TRUE(db_.Execute(
                      "INSERT INTO s VALUES "
                      "('a', 1, 1.5), ('a', 2, 2.5), ('b', 3, 0.5), "
                      "('b', 4, 4.0), ('c', 5, 2.0), ('a', NULL, 3.5)")
                    .ok());
  }
  Database db_;
};

TEST_F(PostProcessorTest, ScalarAggregates) {
  auto out = db_.Query(
      "SELECT COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x) FROM s");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const auto& row = out.value().result.rows[0];
  EXPECT_EQ(row[0].AsInt(), 6);   // COUNT(*) counts NULL rows
  EXPECT_EQ(row[1].AsInt(), 5);   // COUNT(x) skips NULL
  EXPECT_EQ(row[2].AsInt(), 15);
  EXPECT_DOUBLE_EQ(row[3].AsDouble(), 3.0);
  EXPECT_EQ(row[4].AsInt(), 1);
  EXPECT_EQ(row[5].AsInt(), 5);
}

TEST_F(PostProcessorTest, EmptyInputAggregates) {
  auto out = db_.Query(
      "SELECT COUNT(*), SUM(x), MIN(x), AVG(x) FROM s WHERE x > 100");
  ASSERT_TRUE(out.ok());
  const auto& row = out.value().result.rows[0];
  EXPECT_EQ(row[0].AsInt(), 0);
  EXPECT_TRUE(row[1].is_null());
  EXPECT_TRUE(row[2].is_null());
  EXPECT_TRUE(row[3].is_null());
}

TEST_F(PostProcessorTest, GroupByWithNullGroups) {
  auto out = db_.Query(
      "SELECT g, COUNT(x) FROM s GROUP BY g ORDER BY g");
  ASSERT_TRUE(out.ok());
  const auto& rows = out.value().result.rows;
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsString(), "a");
  EXPECT_EQ(rows[0][1].AsInt(), 2);  // NULL x not counted
  EXPECT_EQ(rows[1][0].AsString(), "b");
  EXPECT_EQ(rows[1][1].AsInt(), 2);
}

TEST_F(PostProcessorTest, ArithmeticOverAggregates) {
  auto out = db_.Query("SELECT SUM(x) + COUNT(*) * 10 FROM s");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().result.rows[0][0].AsInt(), 75);
}

TEST_F(PostProcessorTest, OrderByMultipleKeysAndDirections) {
  auto out = db_.Query("SELECT g, x FROM s WHERE x IS NOT NULL "
                       "ORDER BY g DESC, x ASC");
  ASSERT_TRUE(out.ok());
  const auto& rows = out.value().result.rows;
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0][0].AsString(), "c");
  EXPECT_EQ(rows[1][0].AsString(), "b");
  EXPECT_EQ(rows[1][1].AsInt(), 3);
  EXPECT_EQ(rows[2][1].AsInt(), 4);
  EXPECT_EQ(rows[4][0].AsString(), "a");
}

TEST_F(PostProcessorTest, NullsSortLastAscending) {
  auto out = db_.Query("SELECT x FROM s ORDER BY x");
  ASSERT_TRUE(out.ok());
  const auto& rows = out.value().result.rows;
  EXPECT_TRUE(rows.back()[0].is_null());
  EXPECT_EQ(rows.front()[0].AsInt(), 1);
}

TEST_F(PostProcessorTest, OrderByAggregate) {
  auto out = db_.Query(
      "SELECT g, SUM(y) FROM s GROUP BY g ORDER BY 2 DESC");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const auto& rows = out.value().result.rows;
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsString(), "a");  // 7.5
  EXPECT_EQ(rows[1][0].AsString(), "b");  // 4.5
  EXPECT_EQ(rows[2][0].AsString(), "c");  // 2.0
}

TEST_F(PostProcessorTest, LimitTruncates) {
  auto out = db_.Query("SELECT x FROM s WHERE x IS NOT NULL ORDER BY x LIMIT 2");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().result.rows.size(), 2u);
  EXPECT_EQ(out.value().result.rows[1][0].AsInt(), 2);
}

TEST_F(PostProcessorTest, DistinctNormalizesNumerics) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE n (v DOUBLE)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO n VALUES (1.0), (1.0), (2.0)").ok());
  auto out = db_.Query("SELECT DISTINCT v FROM n ORDER BY v");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().result.rows.size(), 2u);
}

// Regression: -0.0 and +0.0 compare equal, so DISTINCT must collapse them
// into one group. The old string-serialized keys used the raw double bit
// pattern and kept them apart; the hashed-value-key dedup canonicalizes
// signed zero (JoinKeyOf-style) and verifies with exact value comparison.
TEST_F(PostProcessorTest, DistinctCollapsesSignedZero) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE z (d DOUBLE)").ok());
  ASSERT_TRUE(
      db_.Execute("INSERT INTO z VALUES (-0.0), (0.0), (1.5), (-0.0)").ok());
  auto out = db_.Query("SELECT DISTINCT d FROM z ORDER BY d");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out.value().result.rows.size(), 2u);  // {0.0, 1.5}
  EXPECT_DOUBLE_EQ(out.value().result.rows[0][0].AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(out.value().result.rows[1][0].AsDouble(), 1.5);
}

// NULLs form a single DISTINCT group (SQL semantics; the hashed dedup must
// preserve what the serialized keys did).
TEST_F(PostProcessorTest, DistinctTreatsNullsAsOneGroup) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE nn (v INT)").ok());
  ASSERT_TRUE(
      db_.Execute("INSERT INTO nn VALUES (NULL), (NULL), (7)").ok());
  auto out = db_.Query("SELECT DISTINCT v FROM nn");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().result.rows.size(), 2u);
}

// Regression: int64 values beyond 2^53 are not exactly representable as
// doubles; the double-normalized keys used to merge 2^53 and 2^53+1 into
// one GROUP BY group (and, before the hashed dedup, one DISTINCT row).
// Both paths must keep them apart via exact int64 keys/comparison.
TEST_F(PostProcessorTest, BigInt64KeysStayDistinct) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE big (v INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO big VALUES (9007199254740992), "
                          "(9007199254740993), (9007199254740993)")
                  .ok());
  auto grouped = db_.Query("SELECT v, COUNT(*) FROM big GROUP BY v");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_EQ(grouped.value().result.rows.size(), 2u);
  auto distinct = db_.Query("SELECT DISTINCT v FROM big");
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(distinct.value().result.rows.size(), 2u);
}

// GROUP BY keys go through SerializeValueKey, which now canonicalizes
// signed zero too: one group, not two.
TEST_F(PostProcessorTest, GroupByCollapsesSignedZero) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE gz (d DOUBLE)").ok());
  ASSERT_TRUE(
      db_.Execute("INSERT INTO gz VALUES (-0.0), (0.0), (0.0)").ok());
  auto out = db_.Query("SELECT d, COUNT(*) FROM gz GROUP BY d");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().result.rows.size(), 1u);
  EXPECT_EQ(out.value().result.rows[0][1].AsInt(), 3);
}

TEST_F(PostProcessorTest, ColumnLabels) {
  auto out = db_.Query("SELECT g AS grp, SUM(x) total FROM s GROUP BY g");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().result.column_names[0], "grp");
  EXPECT_EQ(out.value().result.column_names[1], "total");
}

TEST(AggAccumulatorTest, MinMaxOnStrings) {
  AggAccumulator mn(AggKind::kMin);
  AggAccumulator mx(AggKind::kMax);
  for (const char* s : {"pear", "apple", "zebra"}) {
    mn.Add(Value::String(s));
    mx.Add(Value::String(s));
  }
  EXPECT_EQ(mn.Finish().value().AsString(), "apple");
  EXPECT_EQ(mx.Finish().value().AsString(), "zebra");
}

TEST(AggAccumulatorTest, SumStaysIntegerForInts) {
  AggAccumulator sum(AggKind::kSum);
  sum.Add(Value::Int(2));
  sum.Add(Value::Int(3));
  Value v = sum.Finish().value();
  EXPECT_EQ(v.type(), DataType::kInt64);
  EXPECT_EQ(v.AsInt(), 5);
  sum.Add(Value::Double(0.5));
  EXPECT_EQ(sum.Finish().value().type(), DataType::kDouble);
}

TEST(AggAccumulatorTest, IntegerSumOverflowFails) {
  AggAccumulator up(AggKind::kSum);
  up.Add(Value::Int(INT64_MAX));
  up.Add(Value::Int(1));
  Result<Value> v = up.Finish();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);

  AggAccumulator down(AggKind::kSum);
  down.Add(Value::Int(INT64_MIN));
  down.Add(Value::Int(-1));
  EXPECT_FALSE(down.Finish().ok());
}

TEST(AggAccumulatorTest, IntegerSumReachesInt64Bounds) {
  AggAccumulator max(AggKind::kSum);
  max.Add(Value::Int(INT64_MAX - 1));
  max.Add(Value::Int(1));
  ASSERT_TRUE(max.Finish().ok());
  EXPECT_EQ(max.Finish().value().AsInt(), INT64_MAX);

  AggAccumulator min(AggKind::kSum);
  min.Add(Value::Int(INT64_MIN + 5));
  min.Add(Value::Int(-5));
  ASSERT_TRUE(min.Finish().ok());
  EXPECT_EQ(min.Finish().value().AsInt(), INT64_MIN);
}

TEST(AggAccumulatorTest, AvgOfHugeIntsIsAnExactDouble) {
  // AVG sums in double, so inputs whose int64 sum would overflow still
  // average correctly.
  AggAccumulator avg(AggKind::kAvg);
  avg.Add(Value::Int(INT64_MAX));
  avg.Add(Value::Int(INT64_MAX));
  avg.Add(Value::Int(INT64_MAX));
  Result<Value> v = avg.Finish();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(v.value().AsDouble(), static_cast<double>(INT64_MAX));
}

TEST(PostProcessorOverflowTest, SumOverflowFailsTheQuery) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE a (x INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO a VALUES (9223372036854775807)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO a VALUES (1)").ok());
  auto sum = db.Query("SELECT SUM(x) FROM a");
  ASSERT_FALSE(sum.ok());
  EXPECT_EQ(sum.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sum.status().message().find("SUM(x)"), std::string::npos)
      << sum.status().ToString();
  // The grouped path fails the same way.
  EXPECT_FALSE(db.Query("SELECT SUM(x) FROM a GROUP BY x > 0").ok());

  // Exactly INT64_MAX is still an int.
  auto at_max = db.Query("SELECT SUM(x) FROM a WHERE x > 1");
  ASSERT_TRUE(at_max.ok()) << at_max.status().ToString();
  EXPECT_EQ(at_max.value().result.rows[0][0].AsInt(), INT64_MAX);

  // AVG over the same rows is a correct double.
  auto avg = db.Query("SELECT AVG(x) FROM a");
  ASSERT_TRUE(avg.ok()) << avg.status().ToString();
  EXPECT_DOUBLE_EQ(avg.value().result.rows[0][0].AsDouble(),
                   (static_cast<double>(INT64_MAX) + 1.0) / 2.0);
}

TEST_F(PostProcessorTest, GlobalAggregatesOverAJoin) {
  // Global aggregates whose arguments reference one side of a join, a
  // COUNT(*)-only select, and arithmetic over aggregates, with and
  // without input rows.
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (g STRING, z INT)").ok());
  ASSERT_TRUE(
      db_.Execute("INSERT INTO t VALUES ('a', 10), ('b', 20), ('a', 30)")
          .ok());
  auto out = db_.Query(
      "SELECT COUNT(*), SUM(t.z), MAX(s.y), COUNT(*) * 2 + SUM(s.x) "
      "FROM s, t WHERE s.g = t.g");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out.value().result.rows.size(), 1u);
  const auto& row = out.value().result.rows[0];
  EXPECT_EQ(row[0].AsInt(), 8);  // 3 'a' rows x 2 + 2 'b' rows x 1
  EXPECT_EQ(row[1].AsInt(), 3 * 10 + 3 * 30 + 2 * 20);
  EXPECT_DOUBLE_EQ(row[2].AsDouble(), 4.0);
  EXPECT_EQ(row[3].AsInt(), 8 * 2 + 2 * (1 + 2) + 3 + 4);

  auto count = db_.Query("SELECT COUNT(*) FROM s, t WHERE s.g = t.g");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().result.rows[0][0].AsInt(), 8);

  auto empty = db_.Query(
      "SELECT COUNT(*), SUM(t.z) FROM s, t WHERE s.g = t.g AND t.z > 99");
  ASSERT_TRUE(empty.ok());
  ASSERT_EQ(empty.value().result.rows.size(), 1u);
  EXPECT_EQ(empty.value().result.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(empty.value().result.rows[0][1].is_null());
}

TEST(SerializeValueKeyTest, DistinguishesTypesAndValues) {
  std::string a, b, c, d;
  SerializeValueKey(Value::Int(1), &a);
  SerializeValueKey(Value::Double(1.0), &b);
  SerializeValueKey(Value::String("1"), &c);
  SerializeValueKey(Value::Null(), &d);
  EXPECT_EQ(a, b);  // numerics normalize
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

}  // namespace
}  // namespace skinner
