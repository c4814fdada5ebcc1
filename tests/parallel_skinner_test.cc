// Property tests for search-parallel Skinner-C (paper Section 4.4): for
// any worker count, the engine must produce the exact same join result —
// the canonical (sorted) tuple export is bit-identical and result_tuples
// agrees — on adversarial torture-generator workloads. Runs under the
// ThreadSanitizer CI job, which exercises the slice dispatch on the
// Scheduler pool, the per-worker result buffers, and the per-worker clocks
// for races.

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "api/session.h"
#include "benchgen/torture.h"
#include "common/scheduler.h"
#include "exec/prepared_query.h"
#include "skinner/skinner_c.h"
#include "test_util.h"

namespace skinner {
namespace {

using ::skinner::bench::CleanupTorture;
using ::skinner::bench::GenerateTorture;
using ::skinner::bench::TortureMode;
using ::skinner::bench::TortureShape;
using ::skinner::bench::TortureSpec;

struct RunOutput {
  std::vector<PosTuple> tuples;  // canonical order
  uint64_t result_tuples = 0;
  bool timed_out = false;
};

/// `pipeline_layout`: export into the packed layout the query pipeline
/// uses (one field of bit_width(cardinality - 1) bits per table) instead
/// of the any-int32 layout.
RunOutput RunSkinnerC(Database* db, const std::string& sql, int num_threads,
                      int64_t slice_budget, bool pipeline_layout = false) {
  RunOutput out;
  auto bound = db->Bind(sql);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  if (!bound.ok()) return out;
  auto info = QueryInfo::Analyze(*bound.value());
  EXPECT_TRUE(info.ok());
  VirtualClock clock;
  auto pq = PreparedQuery::Prepare(bound.value().get(), &info.value(),
                                   db->catalog()->string_pool(), &clock, {});
  EXPECT_TRUE(pq.ok());
  if (!pq.ok()) return out;

  // An isolated pool with a worker per search thread, so every worker
  // really runs concurrently with the caller's.
  SchedulerOptions sopts;
  sopts.num_workers = num_threads;
  Scheduler sched(sopts);
  SkinnerCOptions opts;
  opts.num_threads = num_threads;
  opts.slice_budget = slice_budget;
  opts.scheduler = &sched;
  SkinnerCEngine engine(pq.value().get(), opts);
  std::vector<int64_t> cards;
  for (int t = 0; t < pq.value()->num_tables(); ++t) {
    cards.push_back(pq.value()->cardinality(t));
  }
  ResultSet rs = pipeline_layout ? ResultSet(cards)
                                 : ResultSet(pq.value()->num_tables());
  EXPECT_TRUE(engine.Run(&rs).ok());
  out.tuples = rs.ToVector();
  out.result_tuples = engine.stats().result_tuples;
  out.timed_out = engine.stats().timed_out;
  return out;
}

class ParallelTortureTest
    : public ::testing::TestWithParam<std::tuple<TortureMode, uint64_t>> {};

TEST_P(ParallelTortureTest, ThreadCountsAgreeBitIdentical) {
  const auto [mode, seed] = GetParam();
  Database db;
  TortureSpec spec;
  spec.mode = mode;
  spec.shape = seed % 2 == 0 ? TortureShape::kChain : TortureShape::kStar;
  spec.num_tables = 4;
  spec.rows_per_table = 40;
  spec.bad_fanout = 3;
  spec.seed = seed;
  auto inst = GenerateTorture(&db, spec);
  ASSERT_TRUE(inst.ok()) << inst.status().ToString();

  // A small budget forces many slices (and frontier-based re-emission,
  // which the dedup set must absorb identically for every thread count).
  for (int64_t budget : {7, 500}) {
    RunOutput base = RunSkinnerC(&db, inst.value().sql, 1, budget);
    ASSERT_FALSE(base.timed_out);
    for (int threads : {2, 8}) {
      RunOutput par = RunSkinnerC(&db, inst.value().sql, threads, budget);
      ASSERT_FALSE(par.timed_out);
      EXPECT_EQ(base.result_tuples, par.result_tuples)
          << "threads=" << threads << " budget=" << budget;
      EXPECT_EQ(base.tuples, par.tuples)
          << "threads=" << threads << " budget=" << budget;
    }
  }
  CleanupTorture(&db, inst.value());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ParallelTortureTest,
    ::testing::Combine(::testing::Values(TortureMode::kUdf,
                                         TortureMode::kCorrelated,
                                         TortureMode::kTrivial),
                       ::testing::Values(11u, 12u)));

// Skewed-leftmost-table torture workload for chunk stealing: the first
// `hot_keys * hot_fanout` positions of every table carry explosive-fanout
// keys (clustered, so they land in the first chunks), the tail is unique
// keys with fanout <= 1. Stealing and adaptive splitting redistribute the
// expensive chunks; the bit-identical result contract must hold for any
// thread count and budget.
void BuildSkewedDb(Database* db, int num_tables, int hot_keys,
                   int64_t hot_fanout, int64_t tail_rows) {
  for (int t = 0; t < num_tables; ++t) {
    std::string name = "s" + std::to_string(t);
    ASSERT_TRUE(
        db->Execute("CREATE TABLE " + name + " (k INT, v INT)").ok());
    Table* table = db->catalog()->FindTable(name);
    int64_t r = 0;
    for (int k = 0; k < hot_keys; ++k) {
      for (int64_t c = 0; c < hot_fanout; ++c, ++r) {
        table->mutable_column(0)->AppendInt(k);
        table->mutable_column(1)->AppendInt(r);
        table->CommitRow();
      }
    }
    for (int64_t i = 0; i < tail_rows; ++i, ++r) {
      table->mutable_column(0)->AppendInt(1000 + i);
      table->mutable_column(1)->AppendInt(r);
      table->CommitRow();
    }
  }
}

std::string SkewedChainSql(int num_tables) {
  std::string sql = "SELECT COUNT(*) FROM ";
  for (int t = 0; t < num_tables; ++t) {
    if (t > 0) sql += ", ";
    sql += "s" + std::to_string(t);
  }
  sql += " WHERE ";
  for (int t = 0; t + 1 < num_tables; ++t) {
    if (t > 0) sql += " AND ";
    sql += "s" + std::to_string(t) + ".k = s" + std::to_string(t + 1) + ".k";
  }
  return sql;
}

TEST(SkewedStealingTest, ThreadCountsAgreeBitIdentical) {
  Database db;
  BuildSkewedDb(&db, 4, /*hot_keys=*/4, /*hot_fanout=*/4, /*tail_rows=*/70);
  const std::string sql = SkewedChainSql(4);

  // Tiny budgets force many slices, chunk suspensions mid-hot-region,
  // frontier-based re-emission, and lots of steals near the endgame.
  for (int64_t budget : {7, 300}) {
    RunOutput base = RunSkinnerC(&db, sql, 1, budget);
    ASSERT_FALSE(base.timed_out);
    ASSERT_GT(base.result_tuples, 0u);
    for (int threads : {2, 8}) {
      RunOutput steal = RunSkinnerC(&db, sql, threads, budget);
      ASSERT_FALSE(steal.timed_out);
      EXPECT_EQ(base.result_tuples, steal.result_tuples)
          << "threads=" << threads << " budget=" << budget;
      EXPECT_EQ(base.tuples, steal.tuples)
          << "threads=" << threads << " budget=" << budget;
    }
  }
}

// Chunk stealing is schedule-nondeterministic internally (which worker
// runs which chunk varies), so hammer the same configuration repeatedly:
// the exported canonical result must be identical on every repetition.
TEST(SkewedStealingTest, RepeatedRunsStayBitIdentical) {
  Database db;
  BuildSkewedDb(&db, 3, /*hot_keys=*/3, /*hot_fanout=*/5, /*tail_rows=*/50);
  const std::string sql = SkewedChainSql(3);
  RunOutput base = RunSkinnerC(&db, sql, 1, 11);
  ASSERT_GT(base.result_tuples, 0u);
  for (int rep = 0; rep < 5; ++rep) {
    RunOutput par = RunSkinnerC(&db, sql, 8, 11);
    EXPECT_EQ(base.tuples, par.tuples) << "rep=" << rep;
  }
}

// The frontier claim window caps each slice's work list at two chunks per
// worker, so the window's size changes with the thread count; the
// exported canonical tuple set must not.
TEST(SkewedStealingTest, ClaimWindowSizesAgreeBitIdentical) {
  Database db;
  BuildSkewedDb(&db, 4, /*hot_keys=*/4, /*hot_fanout=*/4, /*tail_rows=*/70);
  const std::string sql = SkewedChainSql(4);

  RunOutput base = RunSkinnerC(&db, sql, 1, 9);
  ASSERT_GT(base.result_tuples, 0u);
  for (int threads : {2, 4, 8}) {
    RunOutput par = RunSkinnerC(&db, sql, threads, 9);
    ASSERT_FALSE(par.timed_out);
    EXPECT_EQ(base.tuples, par.tuples) << "threads=" << threads;
  }
}

// The export in the query pipeline's packed layout, on a result large
// enough (thousands of emitted tuples, re-emits included) for the MSD
// partition: bit-identical at T = 1/2/4/8, and identical to the any-int32
// layout's export.
TEST(SkewedStealingTest, PipelineLayoutExportBitIdenticalAcrossThreads) {
  Database db;
  BuildSkewedDb(&db, 4, /*hot_keys=*/4, /*hot_fanout=*/6, /*tail_rows=*/300);
  const std::string sql = SkewedChainSql(4);
  const RunOutput wide = RunSkinnerC(&db, sql, 1, 13);
  ASSERT_FALSE(wide.timed_out);
  ASSERT_GT(wide.result_tuples, 2000u);
  for (int threads : {1, 2, 4, 8}) {
    const RunOutput packed = RunSkinnerC(&db, sql, threads, 13,
                                         /*pipeline_layout=*/true);
    ASSERT_FALSE(packed.timed_out);
    EXPECT_EQ(packed.result_tuples, wide.result_tuples)
        << "threads=" << threads;
    EXPECT_EQ(packed.tuples, wide.tuples) << "threads=" << threads;
  }
}

// Random SPJ databases (the cross-engine property harness) under thread
// counts 1/2/8: counts agree with the single-threaded engine through the
// full Database API, including post-processing.
TEST(ParallelSkinnerApiTest, RandomQueriesAgreeAcrossThreadCounts) {
  using ::skinner::testing::BuildRandomDb;
  using ::skinner::testing::RandomCountQuery;
  using ::skinner::testing::RandomDbSpec;
  using ::skinner::testing::RunCount;

  for (uint64_t seed : {1u, 2u, 3u}) {
    Database db;
    RandomDbSpec spec;
    spec.seed = seed;
    spec.num_tables = 4;
    std::vector<std::string> tables;
    ASSERT_TRUE(BuildRandomDb(&db, spec, &tables).ok());
    Rng rng(seed * 977 + 5);
    for (int q = 0; q < 4; ++q) {
      std::string sql = RandomCountQuery(&rng, tables);
      ExecOptions opts;
      opts.engine = EngineKind::kSkinnerC;
      opts.slice_budget = 9;
      opts.skinner_threads = 1;
      int64_t count1 = RunCount(&db, sql, opts);
      for (int threads : {2, 8}) {
        opts.skinner_threads = threads;
        EXPECT_EQ(count1, RunCount(&db, sql, opts))
            << sql << " threads=" << threads;
      }
    }
  }
}

// The join's ParallelFor nested in pool jobs on a saturated pool: two pool
// workers, four sessions each submitting a T = 4 Skinner-C query as a
// scheduler job. No worker is ever free to help a slice, so every slice
// must finish on the pool worker that runs its query, and every query must
// still return exactly the T = 1 rows.
TEST(ParallelSkinnerPoolTest, SaturatedPoolFinishesNestedSlicesBitIdentical) {
  SchedulerOptions sopts;
  sopts.num_workers = 2;
  Database db(sopts);
  BuildSkewedDb(&db, 3, /*hot_keys=*/4, /*hot_fanout=*/6, /*tail_rows=*/400);
  const std::string sql =
      "SELECT s0.v, s1.v, s2.v FROM s0, s1, s2 "
      "WHERE s0.k = s1.k AND s1.k = s2.k";
  ExecOptions opts;
  opts.engine = EngineKind::kSkinnerC;
  opts.slice_budget = 11;
  auto base = db.Query(sql, opts);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_GT(base.value().result.rows.size(), 0u);
  const uint64_t dispatched_before = db.scheduler()->stats().pf_dispatched;

  opts.skinner_threads = 4;
  constexpr int kSessions = 4;
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<std::optional<Result<QueryOutput>>> outs(kSessions);
  std::vector<Ticket> tickets;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(db.CreateSession());
    Session* session = sessions.back().get();
    auto ticket = db.scheduler()->Submit(session->id(), [&, session, i] {
      outs[static_cast<size_t>(i)] = session->Query(sql, opts);
    });
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(ticket.value());
  }
  for (const Ticket& t : tickets) t.Wait();

  for (int i = 0; i < kSessions; ++i) {
    const auto& out = outs[static_cast<size_t>(i)];
    ASSERT_TRUE(out.has_value()) << "session " << i;
    ASSERT_TRUE(out->ok()) << out->status().ToString();
    EXPECT_FALSE(out->value().stats.timed_out);
    EXPECT_EQ(out->value().result.rows, base.value().result.rows)
        << "session " << i;
  }
  EXPECT_GT(db.scheduler()->stats().pf_dispatched, dispatched_before);
}

}  // namespace
}  // namespace skinner
