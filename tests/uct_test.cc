#include "uct/uct.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace skinner {
namespace {

/// Builds a QueryInfo for an m-table chain query.
class UctTest : public ::testing::Test {
 protected:
  void MakeChain(int n) {
    for (int i = 0; i < n; ++i) {
      auto r = catalog_.CreateTable("t" + std::to_string(i),
                                    Schema({{"x", DataType::kInt64},
                                            {"y", DataType::kInt64}}));
      ASSERT_TRUE(r.ok());
    }
    std::string sql = "SELECT COUNT(*) FROM ";
    for (int i = 0; i < n; ++i) {
      if (i) sql += ", ";
      sql += "t" + std::to_string(i);
    }
    if (n > 1) {
      sql += " WHERE ";
      for (int i = 0; i + 1 < n; ++i) {
        if (i) sql += " AND ";
        sql += "t" + std::to_string(i) + ".y = t" + std::to_string(i + 1) + ".x";
      }
    }
    auto stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok());
    auto q = BindSelect(stmt.value().select.get(), &catalog_, &udfs_);
    ASSERT_TRUE(q.ok());
    query_ = std::make_unique<BoundQuery>(q.MoveValue());
    info_ = std::make_unique<QueryInfo>(QueryInfo::Analyze(*query_).MoveValue());
  }

  Catalog catalog_;
  UdfRegistry udfs_;
  std::unique_ptr<BoundQuery> query_;
  std::unique_ptr<QueryInfo> info_;
};

TEST_F(UctTest, ChoosesValidOrders) {
  MakeChain(5);
  UctOptions opts;
  JoinOrderUct uct(info_.get(), opts);
  for (int i = 0; i < 50; ++i) {
    std::vector<int> order;
    uct.Choose(&order);
    ASSERT_EQ(order.size(), 5u);
    std::vector<bool> seen(5, false);
    TableSet chosen = 0;
    for (int t : order) {
      ASSERT_FALSE(seen[static_cast<size_t>(t)]);
      seen[static_cast<size_t>(t)] = true;
      // Chain connectivity: after the first table, each next table must be
      // adjacent to the prefix (no needless Cartesian products).
      if (chosen != 0) {
        TableSet frontier = 0;
        for (int x = 0; x < 5; ++x) {
          if (Contains(chosen, x)) frontier |= info_->adjacency(x);
        }
        EXPECT_TRUE(Contains(frontier, t));
      }
      chosen |= TableBit(t);
    }
    uct.RewardUpdate(order, 0.5);
  }
}

TEST_F(UctTest, ExpandsAtMostOneNodePerRound) {
  MakeChain(5);
  UctOptions opts;
  JoinOrderUct uct(info_.get(), opts);
  size_t prev = uct.num_nodes();
  for (int i = 0; i < 30; ++i) {
    std::vector<int> order;
    uct.Choose(&order);
    size_t now = uct.num_nodes();
    EXPECT_LE(now, prev + 1) << "round " << i;
    prev = now;
    uct.RewardUpdate(order, 0.1);
  }
}

TEST_F(UctTest, ConvergesToBestArm) {
  // Bandit check: reward 1 only for orders starting with table 2.
  MakeChain(4);
  UctOptions opts;
  opts.explore_weight = 1.0;
  JoinOrderUct uct(info_.get(), opts);
  for (int i = 0; i < 600; ++i) {
    std::vector<int> order;
    uct.Choose(&order);
    uct.RewardUpdate(order, order[0] == 2 ? 1.0 : 0.0);
  }
  // Final policy and recent choices should favor table 2 first.
  EXPECT_EQ(uct.BestOrder()[0], 2);
  int hits = 0;
  for (int i = 0; i < 100; ++i) {
    std::vector<int> order;
    uct.Choose(&order);
    if (order[0] == 2) ++hits;
    uct.RewardUpdate(order, order[0] == 2 ? 1.0 : 0.0);
  }
  EXPECT_GT(hits, 60);
}

TEST_F(UctTest, CumulativeRegretSublinear) {
  // Average reward over time must approach the optimum (0-regret rate):
  // compare the first and last quarter of a long run.
  MakeChain(4);
  UctOptions opts;
  opts.explore_weight = 1.4142;
  JoinOrderUct uct(info_.get(), opts);
  const int kRounds = 2000;
  double first_quarter = 0;
  double last_quarter = 0;
  for (int i = 0; i < kRounds; ++i) {
    std::vector<int> order;
    uct.Choose(&order);
    double r = order[0] == 1 ? 0.9 : 0.2;
    uct.RewardUpdate(order, r);
    if (i < kRounds / 4) first_quarter += r;
    if (i >= 3 * kRounds / 4) last_quarter += r;
  }
  // Per-round average reward must improve and end near the optimum 0.9
  // (UCT often converges within the first quarter already, so only a
  // strict improvement plus closeness to optimal is required).
  EXPECT_GT(last_quarter, first_quarter);
  EXPECT_GT(last_quarter / (kRounds / 4.0), 0.85);
}

TEST_F(UctTest, RandomPolicySelectsUniformly) {
  MakeChain(3);
  UctOptions opts;
  opts.policy = SelectionPolicy::kRandom;
  JoinOrderUct uct(info_.get(), opts);
  std::vector<int> first_counts(3, 0);
  for (int i = 0; i < 900; ++i) {
    std::vector<int> order;
    uct.Choose(&order);
    first_counts[static_cast<size_t>(order[0])]++;
  }
  for (int t = 0; t < 3; ++t) {
    EXPECT_GT(first_counts[static_cast<size_t>(t)], 200);
  }
  // Random policy materializes no tree.
  EXPECT_EQ(uct.num_nodes(), 1u);
}

TEST_F(UctTest, VisitsAccumulate) {
  MakeChain(3);
  UctOptions opts;
  JoinOrderUct uct(info_.get(), opts);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    uct.Choose(&order);
    uct.RewardUpdate(order, 0.3);
  }
  EXPECT_EQ(uct.total_visits(), 10);
}

TEST_F(UctTest, SingleTableQuery) {
  MakeChain(1);
  UctOptions opts;
  JoinOrderUct uct(info_.get(), opts);
  std::vector<int> order;
  uct.Choose(&order);
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(uct.BestOrder(), (std::vector<int>{0}));
}

}  // namespace
}  // namespace skinner
