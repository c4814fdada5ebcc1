#include "stats/estimator.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace skinner {
namespace {

class StatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = catalog_.CreateTable("t", Schema({{"a", DataType::kInt64},
                                               {"b", DataType::kString},
                                               {"c", DataType::kDouble}}));
    ASSERT_TRUE(r.ok());
    table_ = r.value();
    StringPool* pool = catalog_.string_pool();
    for (int i = 0; i < 100; ++i) {
      table_->mutable_column(0)->AppendInt(i % 10);     // ndv 10
      table_->mutable_column(1)->AppendString(i % 2 ? "x" : "y", pool);
      if (i < 5) {
        table_->mutable_column(2)->AppendNull();
      } else {
        table_->mutable_column(2)->AppendDouble(i);     // 5..99
      }
      table_->CommitRow();
    }
  }

  BoundQuery Bind(const std::string& sql) {
    auto stmt = ParseSql(sql);
    EXPECT_TRUE(stmt.ok());
    auto q = BindSelect(stmt.value().select.get(), &catalog_, &udfs_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.MoveValue();
  }

  const Expr* FirstConjunct(const BoundQuery& q) {
    std::vector<Expr*> conjuncts;
    SplitConjuncts(q.where.get(), &conjuncts);
    return conjuncts[0];
  }

  Catalog catalog_;
  UdfRegistry udfs_;
  Table* table_ = nullptr;
};

TEST_F(StatsTest, ComputeTableStats) {
  TableStats stats = ComputeTableStats(*table_);
  EXPECT_EQ(stats.row_count, 100);
  EXPECT_EQ(stats.columns[0].num_distinct, 10);
  EXPECT_EQ(stats.columns[1].num_distinct, 2);
  EXPECT_EQ(stats.columns[2].null_count, 5);
  EXPECT_DOUBLE_EQ(stats.columns[0].min_val, 0);
  EXPECT_DOUBLE_EQ(stats.columns[0].max_val, 9);
  EXPECT_DOUBLE_EQ(stats.columns[2].min_val, 5);
  EXPECT_DOUBLE_EQ(stats.columns[2].max_val, 99);
  EXPECT_FALSE(stats.columns[1].numeric);
}

TEST_F(StatsTest, StatsManagerCachesUntilDataVersionChanges) {
  StatsManager mgr;
  std::shared_ptr<const TableStats> s1 = mgr.Get(table_);
  std::shared_ptr<const TableStats> s2 = mgr.Get(table_);
  EXPECT_EQ(s1.get(), s2.get());
  ASSERT_TRUE(table_->AppendRow({Value::Int(1), Value::String("z"),
                                 Value::Double(1)}).ok());
  std::shared_ptr<const TableStats> s3 = mgr.Get(table_);
  EXPECT_EQ(s3->row_count, 101);
  EXPECT_EQ(s1->row_count, 100);  // the replaced entry is still alive
}

TEST_F(StatsTest, DmlInvalidatesCachedStatsAndSkipsDeletedRows) {
  StatsManager mgr;
  EXPECT_EQ(mgr.Get(table_)->row_count, 100);
  // An in-place UPDATE leaves num_rows unchanged but must invalidate.
  ASSERT_TRUE(table_->UpdateCell(0, 0, Value::Int(1234)).ok());
  std::shared_ptr<const TableStats> s2 = mgr.Get(table_);
  EXPECT_EQ(s2->columns[0].num_distinct, 11);  // 0..9 plus the new 1234
  EXPECT_DOUBLE_EQ(s2->columns[0].max_val, 1234);
  // A mask-only DELETE likewise, and the deleted row drops out of every
  // statistic (1234 lived only in row 0).
  table_->DeleteRow(0);
  std::shared_ptr<const TableStats> s3 = mgr.Get(table_);
  EXPECT_EQ(s3->row_count, 99);
  EXPECT_EQ(s3->columns[0].num_distinct, 10);
  EXPECT_DOUBLE_EQ(s3->columns[0].max_val, 9);
}

TEST_F(StatsTest, StatsOfTwoCoexistingVersionsStayApart) {
  // A writer's clone and the published table share an id and differ in
  // data_version; readers of both hold their stats at the same time.
  StatsManager mgr;
  std::unique_ptr<Table> next = table_->Clone();
  ASSERT_EQ(next->id(), table_->id());
  ASSERT_TRUE(next->UpdateCell(0, 0, Value::Int(1234)).ok());
  next->DeleteRow(1);

  std::shared_ptr<const TableStats> old_stats = mgr.Get(table_);
  std::shared_ptr<const TableStats> new_stats = mgr.Get(next.get());
  // The old reader asks again after the newer version was cached: it must
  // get its own version's stats, and must not evict the newer entry.
  std::shared_ptr<const TableStats> old_again = mgr.Get(table_);
  EXPECT_EQ(mgr.Get(next.get()).get(), new_stats.get());

  EXPECT_EQ(old_stats->row_count, 100);
  EXPECT_EQ(old_stats->columns[0].num_distinct, 10);
  EXPECT_DOUBLE_EQ(old_stats->columns[0].max_val, 9);
  EXPECT_EQ(old_again->row_count, 100);
  EXPECT_DOUBLE_EQ(old_again->columns[0].max_val, 9);
  EXPECT_EQ(new_stats->row_count, 99);
  EXPECT_EQ(new_stats->columns[0].num_distinct, 11);
  EXPECT_DOUBLE_EQ(new_stats->columns[0].max_val, 1234);

  // The writer's clone goes away; the stats a reader holds stay valid.
  next.reset();
  EXPECT_EQ(new_stats->row_count, 99);
}

TEST_F(StatsTest, EqualitySelectivityUsesNdv) {
  StatsManager mgr;
  Estimator est(&mgr);
  BoundQuery q = Bind("SELECT * FROM t WHERE a = 3");
  EXPECT_NEAR(est.PredicateSelectivity(*table_, *FirstConjunct(q)), 0.1, 1e-9);
}

TEST_F(StatsTest, RangeSelectivityInterpolates) {
  StatsManager mgr;
  Estimator est(&mgr);
  // c ranges 5..99; c < 52 covers ~half.
  BoundQuery q = Bind("SELECT * FROM t WHERE c < 52");
  EXPECT_NEAR(est.PredicateSelectivity(*table_, *FirstConjunct(q)), 0.5, 0.02);
  BoundQuery q2 = Bind("SELECT * FROM t WHERE c > 52");
  EXPECT_NEAR(est.PredicateSelectivity(*table_, *FirstConjunct(q2)), 0.5, 0.02);
}

TEST_F(StatsTest, IndependenceAssumptionForAnd) {
  StatsManager mgr;
  Estimator est(&mgr);
  // Two a-predicates multiply even if logically redundant — the blind spot.
  BoundQuery q = Bind("SELECT * FROM t WHERE a = 3 AND a = 3");
  std::vector<const Expr*> preds;
  std::vector<Expr*> conjuncts;
  SplitConjuncts(q.where.get(), &conjuncts);
  for (Expr* c : conjuncts) preds.push_back(c);
  EXPECT_NEAR(est.FilteredCardinality(*table_, preds), 1.0, 1e-6);  // 100*0.01
}

TEST_F(StatsTest, UdfGetsDefaultSelectivity) {
  ASSERT_TRUE(udfs_.Register("opaque", 1, DataType::kInt64,
                             [](const std::vector<Value>&) {
                               return Value::Int(1);
                             })
                  .ok());
  StatsManager mgr;
  Estimator est(&mgr);
  BoundQuery q = Bind("SELECT * FROM t WHERE opaque(a)");
  EXPECT_NEAR(est.PredicateSelectivity(*table_, *FirstConjunct(q)), 1.0 / 3.0,
              1e-9);
}

TEST_F(StatsTest, IsNullUsesNullFraction) {
  StatsManager mgr;
  Estimator est(&mgr);
  BoundQuery q = Bind("SELECT * FROM t WHERE c IS NULL");
  EXPECT_NEAR(est.PredicateSelectivity(*table_, *FirstConjunct(q)), 0.05, 1e-9);
}

TEST_F(StatsTest, JoinSelectivityEquiUsesMaxNdv) {
  auto r2 = catalog_.CreateTable("u", Schema({{"a", DataType::kInt64}}));
  ASSERT_TRUE(r2.ok());
  Table* u = r2.value();
  for (int i = 0; i < 40; ++i) {
    u->mutable_column(0)->AppendInt(i % 40);  // ndv 40 > 10
    u->CommitRow();
  }
  StatsManager mgr;
  Estimator est(&mgr);
  BoundQuery q = Bind("SELECT COUNT(*) FROM t, u WHERE t.a = u.a");
  QueryInfo qi = QueryInfo::Analyze(q).MoveValue();
  EXPECT_NEAR(est.JoinSelectivity(q, qi.join_preds()[0]), 1.0 / 40, 1e-9);
}

TEST_F(StatsTest, JoinCardinalityComposition) {
  // card({0,1}) = c0 * c1 * sel of covered preds.
  BoundQuery q = Bind("SELECT COUNT(*) FROM t x, t y WHERE x.a = y.a");
  QueryInfo qi = QueryInfo::Analyze(q).MoveValue();
  std::vector<double> cards{100, 100};
  std::vector<double> sels{0.1};
  EXPECT_NEAR(Estimator::JoinCardinality(TableBit(0), qi, cards, sels), 100,
              1e-9);
  EXPECT_NEAR(
      Estimator::JoinCardinality(TableBit(0) | TableBit(1), qi, cards, sels),
      1000, 1e-9);
}

}  // namespace
}  // namespace skinner
