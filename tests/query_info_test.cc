#include "query/query_info.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace skinner {
namespace {

class QueryInfoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"a", "b", "c", "d"}) {
      ASSERT_TRUE(catalog_
                      .CreateTable(name, Schema({{"x", DataType::kInt64},
                                                 {"y", DataType::kInt64}}))
                      .ok());
    }
    ASSERT_TRUE(udfs_
                    .Register("f", 2, DataType::kInt64,
                              [](const std::vector<Value>&) {
                                return Value::Int(1);
                              })
                    .ok());
  }

  BoundQuery Bind(const std::string& sql) {
    auto stmt = ParseSql(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto q = BindSelect(stmt.value().select.get(), &catalog_, &udfs_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.MoveValue();
  }

  Catalog catalog_;
  UdfRegistry udfs_;
};

TEST_F(QueryInfoTest, ClassifiesPredicates) {
  BoundQuery q = Bind(
      "SELECT COUNT(*) FROM a, b, c WHERE a.x = b.x AND b.y = c.y "
      "AND a.y < 5 AND 1 = 1 AND f(a.x, c.x)");
  auto info = QueryInfo::Analyze(q);
  ASSERT_TRUE(info.ok());
  const QueryInfo& qi = info.value();
  EXPECT_EQ(qi.num_tables(), 3);
  EXPECT_EQ(qi.constant_preds().size(), 1u);
  EXPECT_EQ(qi.unary_preds(0).size(), 1u);  // a.y < 5
  EXPECT_EQ(qi.unary_preds(1).size(), 0u);
  EXPECT_EQ(qi.join_preds().size(), 3u);    // 2 equi + 1 udf
  EXPECT_EQ(qi.equi_preds().size(), 2u);
}

TEST_F(QueryInfoTest, AdjacencyFollowsJoinGraph) {
  BoundQuery q =
      Bind("SELECT COUNT(*) FROM a, b, c WHERE a.x = b.x AND b.y = c.y");
  QueryInfo qi = QueryInfo::Analyze(q).MoveValue();
  EXPECT_EQ(qi.adjacency(0), TableBit(1));
  EXPECT_EQ(qi.adjacency(1), TableBit(0) | TableBit(2));
  EXPECT_EQ(qi.adjacency(2), TableBit(1));
  EXPECT_TRUE(qi.IsConnected());
}

TEST_F(QueryInfoTest, EligibleTablesAvoidCartesian) {
  BoundQuery q =
      Bind("SELECT COUNT(*) FROM a, b, c WHERE a.x = b.x AND b.y = c.y");
  QueryInfo qi = QueryInfo::Analyze(q).MoveValue();
  // Empty prefix: everything eligible.
  EXPECT_EQ(qi.EligibleTables(0), (std::vector<int>{0, 1, 2}));
  // From {a}: only b is connected.
  EXPECT_EQ(qi.EligibleTables(TableBit(0)), (std::vector<int>{1}));
  // From {a,b}: c.
  EXPECT_EQ(qi.EligibleTables(TableBit(0) | TableBit(1)),
            (std::vector<int>{2}));
}

TEST_F(QueryInfoTest, CartesianFallbackWhenDisconnected) {
  BoundQuery q = Bind("SELECT COUNT(*) FROM a, b, c WHERE a.x = b.x");
  QueryInfo qi = QueryInfo::Analyze(q).MoveValue();
  EXPECT_FALSE(qi.IsConnected());
  // From {c}: nothing is connected to c => all remaining become eligible.
  EXPECT_EQ(qi.EligibleTables(TableBit(2)), (std::vector<int>{0, 1}));
}

TEST_F(QueryInfoTest, NewlyApplicablePredicates) {
  BoundQuery q = Bind(
      "SELECT COUNT(*) FROM a, b, c WHERE a.x = b.x AND b.y = c.y AND "
      "a.y = c.x");
  QueryInfo qi = QueryInfo::Analyze(q).MoveValue();
  // Prefix {a}, adding b: only a.x = b.x.
  auto p1 = qi.NewlyApplicable(TableBit(0) | TableBit(1), 1);
  EXPECT_EQ(p1.size(), 1u);
  // Prefix {a,b}, adding c: both b.y = c.y and a.y = c.x become checkable.
  auto p2 = qi.NewlyApplicable(TableBit(0) | TableBit(1) | TableBit(2), 2);
  EXPECT_EQ(p2.size(), 2u);
}

TEST_F(QueryInfoTest, StarShapeEligibility) {
  BoundQuery q = Bind(
      "SELECT COUNT(*) FROM a, b, c, d WHERE a.x = b.x AND a.x = c.x AND "
      "a.y = d.y");
  QueryInfo qi = QueryInfo::Analyze(q).MoveValue();
  // From the hub every spoke is eligible.
  EXPECT_EQ(qi.EligibleTables(TableBit(0)), (std::vector<int>{1, 2, 3}));
  // From a spoke only the hub is eligible.
  EXPECT_EQ(qi.EligibleTables(TableBit(1)), (std::vector<int>{0}));
}

TEST_F(QueryInfoTest, NthTableIndexesEligibleTablesInOrder) {
  // UCT's random completion draws r and takes NthTable(EligibleMask, r):
  // the same table EligibleTables()[r] named before the mask existed.
  BoundQuery q = Bind(
      "SELECT COUNT(*) FROM a, b, c, d WHERE a.x = b.x AND a.x = c.x AND "
      "a.y = d.y");
  QueryInfo qi = QueryInfo::Analyze(q).MoveValue();
  for (TableSet chosen : {TableSet{0}, TableBit(0), TableBit(1),
                          TableBit(0) | TableBit(2)}) {
    const std::vector<int> elig = qi.EligibleTables(chosen);
    const TableSet mask = qi.EligibleMask(chosen);
    ASSERT_EQ(static_cast<size_t>(__builtin_popcount(mask)), elig.size());
    for (size_t r = 0; r < elig.size(); ++r) {
      EXPECT_EQ(NthTable(mask, r), elig[r]) << "chosen " << chosen;
    }
  }
  EXPECT_EQ(NthTable(TableBit(3) | TableBit(31), 1), 31);
}

TEST_F(QueryInfoTest, UdfJoinPredicateCreatesAdjacency) {
  BoundQuery q = Bind("SELECT COUNT(*) FROM a, b WHERE f(a.x, b.x)");
  QueryInfo qi = QueryInfo::Analyze(q).MoveValue();
  EXPECT_EQ(qi.equi_preds().size(), 0u);
  EXPECT_EQ(qi.join_preds().size(), 1u);
  EXPECT_EQ(qi.adjacency(0), TableBit(1));
}

TEST_F(QueryInfoTest, SingleTableNoJoins) {
  BoundQuery q = Bind("SELECT COUNT(*) FROM a WHERE a.x > 3");
  QueryInfo qi = QueryInfo::Analyze(q).MoveValue();
  EXPECT_EQ(qi.num_tables(), 1);
  EXPECT_TRUE(qi.join_preds().empty());
  EXPECT_EQ(qi.unary_preds(0).size(), 1u);
  EXPECT_TRUE(qi.IsConnected());
}

}  // namespace
}  // namespace skinner
