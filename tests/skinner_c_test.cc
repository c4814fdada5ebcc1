#include "skinner/skinner_c.h"

#include <gtest/gtest.h>

#include "common/scheduler.h"
#include "sql/parser.h"
#include "test_util.h"

namespace skinner {
namespace {

class SkinnerCTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto a = catalog_.CreateTable("a", Schema({{"k", DataType::kInt64}}));
    auto b = catalog_.CreateTable("b", Schema({{"k", DataType::kInt64}}));
    auto c = catalog_.CreateTable("c", Schema({{"k", DataType::kInt64}}));
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    for (int i = 0; i < 12; ++i) {
      a.value()->mutable_column(0)->AppendInt(i % 4);
      a.value()->CommitRow();
    }
    for (int i = 0; i < 9; ++i) {
      b.value()->mutable_column(0)->AppendInt(i % 3);
      b.value()->CommitRow();
    }
    for (int i = 0; i < 6; ++i) {
      c.value()->mutable_column(0)->AppendInt(i % 3);
      c.value()->CommitRow();
    }
  }

  void Prepare(const std::string& sql) {
    auto stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok());
    auto q = BindSelect(stmt.value().select.get(), &catalog_, &udfs_);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    query_ = std::make_unique<BoundQuery>(q.MoveValue());
    info_ = std::make_unique<QueryInfo>(QueryInfo::Analyze(*query_).MoveValue());
    auto pq = PreparedQuery::Prepare(query_.get(), info_.get(),
                                     catalog_.string_pool(), &clock_, {});
    ASSERT_TRUE(pq.ok());
    pq_ = pq.MoveValue();
  }

  // a.k = b.k (k<3 matched): a has 3 rows per k in 0..2 plus k=3; b 3 per k;
  // expected |a ⋈ b| on k: for k in 0..2: 3*3 = 9 -> 27.
  Catalog catalog_;
  UdfRegistry udfs_;
  VirtualClock clock_;
  std::unique_ptr<BoundQuery> query_;
  std::unique_ptr<QueryInfo> info_;
  std::unique_ptr<PreparedQuery> pq_;
};

TEST_F(SkinnerCTest, CompletesSmallJoin) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  SkinnerCOptions opts;
  SkinnerCEngine engine(pq_.get(), opts);
  ResultSet out(pq_->num_tables());
  ASSERT_TRUE(engine.Run(&out).ok());
  EXPECT_EQ(out.size(), 27u);
  EXPECT_FALSE(engine.stats().timed_out);
  EXPECT_GT(engine.stats().slices, 0u);
}

TEST_F(SkinnerCTest, TinyBudgetManySlicesStillCorrect) {
  Prepare("SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND b.k = c.k");
  SkinnerCOptions opts;
  opts.slice_budget = 3;  // extreme: forces constant order switching
  SkinnerCEngine engine(pq_.get(), opts);
  ResultSet out(pq_->num_tables());
  ASSERT_TRUE(engine.Run(&out).ok());
  EXPECT_EQ(out.size(), 54u);  // k in 0..2: 3*3*2 = 18 each
  EXPECT_GT(engine.stats().slices, 5u);
}

TEST_F(SkinnerCTest, NoDuplicateTuples) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  SkinnerCOptions opts;
  opts.slice_budget = 2;
  SkinnerCEngine engine(pq_.get(), opts);
  ResultSet out(pq_->num_tables());
  ASSERT_TRUE(engine.Run(&out).ok());
  std::vector<PosTuple> tuples = out.ToVector();
  std::sort(tuples.begin(), tuples.end());
  EXPECT_EQ(std::adjacent_find(tuples.begin(), tuples.end()), tuples.end());
  EXPECT_EQ(out.size(), 27u);
}

TEST_F(SkinnerCTest, TriviallyEmptyQuery) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.k > 100");
  SkinnerCOptions opts;
  SkinnerCEngine engine(pq_.get(), opts);
  ResultSet out(pq_->num_tables());
  ASSERT_TRUE(engine.Run(&out).ok());
  EXPECT_EQ(out.size(), 0u);
  EXPECT_EQ(engine.stats().slices, 0u);
}

TEST_F(SkinnerCTest, DeadlineMarksTimeout) {
  Prepare("SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND b.k = c.k");
  SkinnerCOptions opts;
  opts.deadline = clock_.now() + 10;
  opts.slice_budget = 4;
  SkinnerCEngine engine(pq_.get(), opts);
  ResultSet out(pq_->num_tables());
  ASSERT_TRUE(engine.Run(&out).ok());
  EXPECT_TRUE(engine.stats().timed_out);
}

TEST_F(SkinnerCTest, StatsArePopulated) {
  Prepare("SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND b.k = c.k");
  SkinnerCOptions opts;
  opts.slice_budget = 5;
  opts.collect_trace = true;
  SkinnerCEngine engine(pq_.get(), opts);
  ResultSet out(pq_->num_tables());
  ASSERT_TRUE(engine.Run(&out).ok());
  const SkinnerCStats& s = engine.stats();
  EXPECT_GT(s.uct_nodes, 0u);
  EXPECT_GT(s.intermediate_tuples, 0u);
  EXPECT_EQ(s.result_tuples, out.size());
  EXPECT_EQ(s.final_order.size(), 3u);
  EXPECT_FALSE(s.order_selections.empty());
  EXPECT_FALSE(s.tree_growth.empty());
  EXPECT_GT(s.auxiliary_bytes, 0u);
}

TEST_F(SkinnerCTest, RandomPolicyCorrect) {
  Prepare("SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND b.k = c.k");
  SkinnerCOptions opts;
  opts.policy = SelectionPolicy::kRandom;
  opts.slice_budget = 6;
  SkinnerCEngine engine(pq_.get(), opts);
  ResultSet out(pq_->num_tables());
  ASSERT_TRUE(engine.Run(&out).ok());
  EXPECT_EQ(out.size(), 54u);
}

TEST_F(SkinnerCTest, LeftmostFractionRewardCorrect) {
  Prepare("SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND b.k = c.k");
  SkinnerCOptions opts;
  opts.reward = RewardKind::kLeftmostFraction;
  opts.slice_budget = 9;
  SkinnerCEngine engine(pq_.get(), opts);
  ResultSet out(pq_->num_tables());
  ASSERT_TRUE(engine.Run(&out).ok());
  EXPECT_EQ(out.size(), 54u);
}

TEST_F(SkinnerCTest, SingleTableQuery) {
  Prepare("SELECT COUNT(*) FROM a WHERE a.k < 2");
  SkinnerCOptions opts;
  SkinnerCEngine engine(pq_.get(), opts);
  ResultSet out(pq_->num_tables());
  ASSERT_TRUE(engine.Run(&out).ok());
  EXPECT_EQ(out.size(), 6u);
}

// The budget-vs-slice-count relationship from the paper: smaller budgets
// mean more slices for the same query.
TEST_F(SkinnerCTest, SmallerBudgetMoreSlices) {
  uint64_t slices_small;
  uint64_t slices_large;
  {
    Prepare("SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND b.k = c.k");
    SkinnerCOptions opts;
    opts.slice_budget = 5;
    SkinnerCEngine engine(pq_.get(), opts);
    ResultSet out(pq_->num_tables());
    ASSERT_TRUE(engine.Run(&out).ok());
    slices_small = engine.stats().slices;
  }
  {
    Prepare("SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND b.k = c.k");
    SkinnerCOptions opts;
    opts.slice_budget = 100000;
    SkinnerCEngine engine(pq_.get(), opts);
    ResultSet out(pq_->num_tables());
    ASSERT_TRUE(engine.Run(&out).ok());
    slices_large = engine.stats().slices;
  }
  EXPECT_GT(slices_small, slices_large);
}

// auxiliary_bytes is exact for the flat ResultSet and all three tracked
// structures are append-only, so the per-slice samples must be monotone
// non-decreasing.
TEST_F(SkinnerCTest, AuxiliaryBytesMonotoneAcrossSlices) {
  Prepare("SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND b.k = c.k");
  SkinnerCOptions opts;
  opts.slice_budget = 4;  // many slices
  opts.collect_trace = true;
  SkinnerCEngine engine(pq_.get(), opts);
  ResultSet out(pq_->num_tables());
  ASSERT_TRUE(engine.Run(&out).ok());
  const SkinnerCStats& s = engine.stats();
  ASSERT_GT(s.aux_bytes_trace.size(), 2u);
  EXPECT_EQ(s.aux_bytes_trace.size(), s.slices);
  for (size_t i = 1; i < s.aux_bytes_trace.size(); ++i) {
    EXPECT_GE(s.aux_bytes_trace[i], s.aux_bytes_trace[i - 1])
        << "auxiliary bytes shrank at slice " << i;
  }
  EXPECT_EQ(s.aux_bytes_trace.back(), s.auxiliary_bytes);
  // The exact result-set footprint is accounted: it alone exceeds the raw
  // tuple payload.
  EXPECT_GE(s.auxiliary_bytes,
            out.size() * sizeof(int32_t) * 3);
}

// Parallel Skinner-C (paper 4.4) must return bit-identical tuples in the
// canonical export order for any worker count. The workers run on an
// isolated pool wide enough for all of them, so they really run
// concurrently (the ThreadSanitizer job checks them for races).
TEST_F(SkinnerCTest, ParallelMatchesSequentialBitIdentical) {
  SchedulerOptions sopts;
  sopts.num_workers = 4;
  Scheduler sched(sopts);
  for (int64_t budget : {3, 500}) {
    std::vector<std::vector<PosTuple>> results;
    std::vector<uint64_t> tuple_counts;
    for (int threads : {1, 4}) {
      Prepare("SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND b.k = c.k");
      SkinnerCOptions opts;
      opts.slice_budget = budget;
      opts.num_threads = threads;
      opts.scheduler = &sched;
      SkinnerCEngine engine(pq_.get(), opts);
      ResultSet out(pq_->num_tables());
      ASSERT_TRUE(engine.Run(&out).ok());
      results.push_back(out.ToVector());
      tuple_counts.push_back(engine.stats().result_tuples);
    }
    EXPECT_EQ(results[0], results[1]) << "budget " << budget;
    EXPECT_EQ(tuple_counts[0], tuple_counts[1]);
    EXPECT_EQ(results[0].size(), 54u);
  }
}

// Regression: an equi-join between -0.0 and +0.0 keys must produce the
// rows EvalPredicate considers equal. Before the JoinKeyOf signed-zero
// canonicalization the hash-index probes missed all cross-sign matches.
TEST(SkinnerCSignedZeroTest, JoinsAcrossSignedZero) {
  Catalog catalog;
  UdfRegistry udfs;
  VirtualClock clock;
  auto l = catalog.CreateTable("l", Schema({{"d", DataType::kDouble}}));
  auto r = catalog.CreateTable("r", Schema({{"d", DataType::kDouble}}));
  ASSERT_TRUE(l.ok() && r.ok());
  for (double v : {-0.0, 1.5, 3.0}) {
    l.value()->mutable_column(0)->AppendDouble(v);
    l.value()->CommitRow();
  }
  for (double v : {0.0, 0.0, 2.5}) {
    r.value()->mutable_column(0)->AppendDouble(v);
    r.value()->CommitRow();
  }

  auto stmt = ParseSql("SELECT COUNT(*) FROM l, r WHERE l.d = r.d");
  ASSERT_TRUE(stmt.ok());
  auto q = BindSelect(stmt.value().select.get(), &catalog, &udfs);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  BoundQuery query = q.MoveValue();
  QueryInfo info = QueryInfo::Analyze(query).MoveValue();
  auto pq = PreparedQuery::Prepare(&query, &info, catalog.string_pool(),
                                   &clock, {});
  ASSERT_TRUE(pq.ok());

  SkinnerCOptions opts;
  SkinnerCEngine engine(pq.value().get(), opts);
  ResultSet out(pq.value()->num_tables());
  ASSERT_TRUE(engine.Run(&out).ok());
  EXPECT_EQ(out.size(), 2u);  // l's -0.0 joins both +0.0 rows of r
}

}  // namespace
}  // namespace skinner
