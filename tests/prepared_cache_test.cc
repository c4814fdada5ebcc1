#include "exec/prepared_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>

#include "api/database.h"
#include "api/prepared_statement.h"
#include "api/session.h"
#include "common/str_util.h"
#include "query/query_info.h"
#include "test_util.h"

namespace skinner {
namespace {

class PreparedCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (k INT, v INT)").ok());
    ASSERT_TRUE(db_.Execute("CREATE TABLE u (k INT, w INT)").ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1, 10), (1, 11), (2, 20), "
                            "(3, 30)")
                    .ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO u VALUES (1, 100), (2, 200), "
                            "(2, 201), (9, 900)")
                    .ok());
  }

  std::string Signature(const std::string& sql) {
    auto bound = db_.Bind(sql);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return ComputeQuerySignature(*bound.value());
  }

  Database db_;
};

TEST_F(PreparedCacheTest, TemplateIdenticalQueriesShareASignature) {
  // Same normalized bound structure: keyword case and whitespace differ.
  EXPECT_EQ(Signature("SELECT COUNT(*) FROM t, u WHERE t.k = u.k"),
            Signature("select   COUNT( * )  from T, U where t.K = u.K"));
  // Different literal, different select list, different table set: all
  // distinct templates.
  std::string base = Signature("SELECT COUNT(*) FROM t WHERE t.v > 10");
  EXPECT_NE(base, Signature("SELECT COUNT(*) FROM t WHERE t.v > 11"));
  EXPECT_NE(base, Signature("SELECT t.k FROM t WHERE t.v > 10"));
  EXPECT_NE(Signature("SELECT COUNT(*) FROM t"),
            Signature("SELECT COUNT(*) FROM u"));
  // String literals are length-prefixed: no framing ambiguity.
  EXPECT_NE(Signature("SELECT COUNT(*) FROM t WHERE t.k = 1 AND 'ab' = 'ab'"),
            Signature("SELECT COUNT(*) FROM t WHERE t.k = 1 AND 'a' = 'b'"));
}

TEST_F(PreparedCacheTest, RepeatedQueryServedFromCacheBitIdentical) {
  const char* sql =
      "SELECT t.k, t.v, u.w FROM t, u WHERE t.k = u.k ORDER BY t.v, u.w";
  ExecOptions opts;
  opts.use_prepared_cache = true;

  auto cold = db_.Query(sql, opts);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold.value().stats.prepared_from_cache);
  EXPECT_GT(cold.value().stats.preprocess_cost, 0u);

  auto warm = db_.Query(sql, opts);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm.value().stats.prepared_from_cache);
  EXPECT_EQ(warm.value().stats.preprocess_cost, 0u);
  // The warm total excludes the (skipped) pre-processing entirely.
  EXPECT_LT(warm.value().stats.total_cost, cold.value().stats.total_cost);

  EXPECT_EQ(testing::CanonicalRows(cold.value().result),
            testing::CanonicalRows(warm.value().result));
  EXPECT_EQ(cold.value().stats.join_result_tuples,
            warm.value().stats.join_result_tuples);

  // One artifact per table (t and u): built once, then served.
  PreparedCache::Stats s = db_.prepared_cache()->stats();
  EXPECT_EQ(s.table_hits, 2u);
  EXPECT_EQ(s.table_misses, 2u);
  EXPECT_EQ(s.table_entries, 2u);
}

TEST_F(PreparedCacheTest, CachingOffByDefault) {
  const char* sql = "SELECT COUNT(*) FROM t, u WHERE t.k = u.k";
  for (int i = 0; i < 2; ++i) {
    auto out = db_.Query(sql);
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out.value().stats.prepared_from_cache);
    EXPECT_GT(out.value().stats.preprocess_cost, 0u);
  }
  // With the cache off no key is computed, so the cache sees nothing.
  PreparedCache::Stats s = db_.prepared_cache()->stats();
  EXPECT_EQ(s.table_entries, 0u);
  EXPECT_EQ(s.table_hits + s.table_misses, 0u);
}

TEST_F(PreparedCacheTest, InsertInvalidatesAndReturnsNewRows) {
  const char* sql = "SELECT COUNT(*) FROM t, u WHERE t.k = u.k";
  ExecOptions opts;
  opts.use_prepared_cache = true;

  auto before = db_.Query(sql, opts);
  ASSERT_TRUE(before.ok());
  // t.k=1 x2 * u.k=1 + t.k=2 * u.k=2 x2 = 2 + 2 = 4.
  EXPECT_EQ(before.value().result.rows[0][0].AsInt(), 4);
  ASSERT_TRUE(db_.Query(sql, opts).ok());  // warm the entry

  ASSERT_TRUE(db_.Execute("INSERT INTO u VALUES (3, 300)").ok());
  auto after = db_.Query(sql, opts);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().stats.prepared_from_cache);
  EXPECT_GT(after.value().stats.preprocess_cost, 0u);
  EXPECT_EQ(after.value().result.rows[0][0].AsInt(), 5);  // t.k=3 joins now

  // Only u's artifact went stale; t's is still served.
  EXPECT_EQ(after.value().stats.tables_reprepared, 1);
  EXPECT_EQ(after.value().stats.tables_prepared_from_cache, 1);
  EXPECT_EQ(db_.prepared_cache()->stats().table_invalidations, 1u);

  // And the re-prepared artifact is cached again.
  auto warm = db_.Query(sql, opts);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().stats.prepared_from_cache);
  EXPECT_EQ(warm.value().result.rows[0][0].AsInt(), 5);
}

TEST_F(PreparedCacheTest, DropAndRecreateNeverHitsTheStaleEntry) {
  const char* sql = "SELECT COUNT(*) FROM t WHERE t.v >= 20";
  ExecOptions opts;
  opts.use_prepared_cache = true;
  auto before = db_.Query(sql, opts);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().result.rows[0][0].AsInt(), 2);

  ASSERT_TRUE(db_.Execute("DROP TABLE t").ok());
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (k INT, v INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (7, 70)").ok());

  // Same name, same row-pattern query — but a different table identity:
  // the stale artifact (whose filtered positions point into the dropped
  // table) must not serve this.
  auto after = db_.Query(sql, opts);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().stats.prepared_from_cache);
  EXPECT_EQ(after.value().result.rows[0][0].AsInt(), 1);
}

TEST_F(PreparedCacheTest, PrepareVariantIsPartOfTheEntryKey) {
  // An artifact built without hash indexes must not serve a query that
  // wants them (engines would silently degrade to full scans) — the two
  // variants cache as distinct entries.
  const char* sql = "SELECT COUNT(*) FROM t, u WHERE t.k = u.k";
  ExecOptions no_idx;
  no_idx.use_prepared_cache = true;
  no_idx.build_hash_indexes = false;
  ExecOptions with_idx;
  with_idx.use_prepared_cache = true;

  auto a = db_.Query(sql, no_idx);
  ASSERT_TRUE(a.ok());
  auto b = db_.Query(sql, with_idx);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b.value().stats.prepared_from_cache);  // distinct variant
  auto c = db_.Query(sql, with_idx);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c.value().stats.prepared_from_cache);
  auto d = db_.Query(sql, no_idx);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.value().stats.prepared_from_cache);
  EXPECT_EQ(db_.prepared_cache()->stats().table_entries, 4u);  // 2 x {t, u}
  EXPECT_EQ(a.value().result.rows[0][0].AsInt(),
            c.value().result.rows[0][0].AsInt());
}

TEST_F(PreparedCacheTest, DifferentQueriesShareAnIdenticallyFilteredTable) {
  // Two different templates filter t the same way (same predicate, same
  // join column): the second reuses t's artifact and builds only u's,
  // whose filter differs.
  const char* first_sql =
      "SELECT COUNT(*) FROM t, u WHERE t.k = u.k AND t.v >= 20";
  const char* second_sql =
      "SELECT t.v, u.w FROM t, u WHERE t.k = u.k AND t.v >= 20 AND "
      "u.w > 150 ORDER BY t.v, u.w";
  ExecOptions opts;
  opts.use_prepared_cache = true;
  ASSERT_TRUE(db_.Query(first_sql, opts).ok());
  auto second = db_.Query(second_sql, opts);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GE(second.value().stats.tables_prepared_from_cache, 1);
  EXPECT_EQ(second.value().stats.tables_reprepared, 1);
  EXPECT_FALSE(second.value().stats.prepared_from_cache);

  auto uncached = db_.Query(second_sql);
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(testing::CanonicalRows(second.value().result),
            testing::CanonicalRows(uncached.value().result));
  EXPECT_EQ(db_.prepared_cache()->stats().table_invalidations, 0u);
}

TEST_F(PreparedCacheTest, LiteralQueryWarmsAStatementsUnfilteredTable) {
  // The literal query and the statement share no template, but both
  // leave u unfiltered and join it on u.k: the statement's first
  // execution finds u's artifact already built.
  ExecOptions opts;
  opts.use_prepared_cache = true;
  ASSERT_TRUE(
      db_.Query("SELECT COUNT(*) FROM t, u WHERE t.k = u.k AND t.v > 15", opts)
          .ok());
  auto stmt = db_.default_session()->Prepare(
      "SELECT COUNT(*) FROM t, u WHERE t.k = u.k AND t.v > ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto out = stmt.value()->Execute({Value::Int(5)});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().stats.tables_prepared_from_cache, 1);  // u
  EXPECT_EQ(out.value().stats.tables_reprepared, 1);           // t, v > 5
  auto literal =
      db_.Query("SELECT COUNT(*) FROM t, u WHERE t.k = u.k AND t.v > 5");
  ASSERT_TRUE(literal.ok());
  EXPECT_EQ(out.value().result.rows[0][0].AsInt(),
            literal.value().result.rows[0][0].AsInt());
}

TEST_F(PreparedCacheTest, JoinColumnsArePartOfTheTableKey) {
  // Both queries leave t and u unfiltered. t is indexed on k both times
  // and is shared; u is indexed on k, then on w, and must not be: an
  // artifact without the wanted index would silently degrade probes.
  ExecOptions opts;
  opts.use_prepared_cache = true;
  ASSERT_TRUE(db_.Query("SELECT COUNT(*) FROM t, u WHERE t.k = u.k", opts).ok());
  const char* sql = "SELECT COUNT(*) FROM t, u WHERE t.k = u.w";
  auto out = db_.Query(sql, opts);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().stats.tables_prepared_from_cache, 1);  // t on k
  EXPECT_EQ(out.value().stats.tables_reprepared, 1);           // u on w
  auto uncached = db_.Query(sql);
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(out.value().result.rows[0][0].AsInt(),
            uncached.value().result.rows[0][0].AsInt());
}

TEST_F(PreparedCacheTest, SameFilterOnTwoTablesNeverCollides) {
  // t.k = 1 and u.k = 1 render the same table-relative predicate; the
  // table id in the key keeps their artifacts apart.
  ExecOptions opts;
  opts.use_prepared_cache = true;
  for (int rep = 0; rep < 2; ++rep) {
    auto a = db_.Query("SELECT COUNT(*) FROM t WHERE t.k = 1", opts);
    auto b = db_.Query("SELECT COUNT(*) FROM u WHERE u.k = 1", opts);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().result.rows[0][0].AsInt(), 2);
    EXPECT_EQ(b.value().result.rows[0][0].AsInt(), 1);
    EXPECT_EQ(a.value().stats.prepared_from_cache, rep == 1);
    EXPECT_EQ(b.value().stats.prepared_from_cache, rep == 1);
  }
  PreparedCache::Stats s = db_.prepared_cache()->stats();
  EXPECT_EQ(s.table_entries, 2u);
  EXPECT_EQ(s.table_invalidations, 0u);
}

namespace {

/// A table artifact charging ~(4 * n_rows) bytes, for exercising the
/// size-aware admission/eviction policy without running real queries.
std::shared_ptr<TableArtifact> SizedArtifact(size_t n_rows) {
  auto artifact = std::make_shared<TableArtifact>();
  artifact->filtered.resize(n_rows);
  return artifact;
}

/// True when the cache serves (key, stamp) as a hit; the builder claim a
/// miss takes is released again.
bool Serves(PreparedCache* cache, const std::string& key,
            const TableStamp& stamp) {
  PreparedCache::TableTryClaim claim = cache->TryAcquireTable(key, stamp);
  if (claim.builder) cache->AbandonTable(key);
  return claim.artifact != nullptr;
}

}  // namespace

TEST_F(PreparedCacheTest, SizeAwareLruEvictionAndStats) {
  // Entries are charged by artifact bytes (~4.3 KiB here each, including
  // the fixed per-entry overhead); the budget below holds two of them but
  // not three.
  PreparedCache cache(/*max_bytes=*/12000);
  const TableStamp stamp{1, 1};

  cache.PublishTable("a", stamp, SizedArtifact(1000));
  cache.PublishTable("b", stamp, SizedArtifact(1000));
  EXPECT_EQ(cache.stats().table_entries, 2u);
  EXPECT_GT(cache.stats().bytes_used, 8000u);
  EXPECT_LE(cache.stats().bytes_used, cache.stats().max_bytes);

  EXPECT_TRUE(Serves(&cache, "a", stamp));  // a is now most recent
  cache.PublishTable("c", stamp, SizedArtifact(1000));  // evicts b (LRU)
  EXPECT_TRUE(Serves(&cache, "a", stamp));
  EXPECT_FALSE(Serves(&cache, "b", stamp));
  EXPECT_TRUE(Serves(&cache, "c", stamp));
  EXPECT_EQ(cache.stats().size_evictions, 1u);

  // An entry larger than the whole budget is never admitted (the caller
  // keeps its artifact; the cache does not thrash itself empty for it).
  cache.PublishTable("huge", stamp, SizedArtifact(10000));
  EXPECT_FALSE(Serves(&cache, "huge", stamp));
  EXPECT_EQ(cache.stats().admission_rejected, 1u);
  EXPECT_TRUE(Serves(&cache, "a", stamp));  // survivors untouched

  // A stale stamp evicts and counts as an invalidation.
  const TableStamp newer{1, 2};
  EXPECT_FALSE(Serves(&cache, "a", newer));
  EXPECT_FALSE(Serves(&cache, "a", stamp));  // gone

  PreparedCache::Stats s = cache.stats();
  EXPECT_EQ(s.table_invalidations, 1u);
  EXPECT_EQ(s.table_entries, 1u);
  EXPECT_EQ(s.max_bytes, 12000u);
  // The whole-query counters are gone and read 0.
  EXPECT_EQ(s.hits + s.misses, 0u);

  cache.Clear();
  EXPECT_EQ(cache.stats().table_entries, 0u);
  EXPECT_EQ(cache.stats().bytes_used, 0u);
}

TEST_F(PreparedCacheTest, AcquireBlocksOnInFlightBuildAndSharesTheResult) {
  PreparedCache cache;
  const TableStamp stamp{1, 1};

  PreparedCache::TableClaim first = cache.AcquireTable("k", stamp);
  ASSERT_TRUE(first.builder);
  ASSERT_EQ(first.artifact, nullptr);

  std::atomic<bool> waiter_got_artifact{false};
  std::thread waiter([&] {
    PreparedCache::TableClaim second = cache.AcquireTable("k", stamp);
    EXPECT_FALSE(second.builder);
    waiter_got_artifact = second.artifact != nullptr;
  });
  // Deterministic rendezvous: inflight_waits ticks before the waiter
  // sleeps on the build.
  while (cache.stats().inflight_waits == 0) {
    std::this_thread::yield();
  }
  cache.PublishTable("k", stamp, SizedArtifact(10));
  waiter.join();
  EXPECT_TRUE(waiter_got_artifact);
  // One build for two acquisitions.
  EXPECT_EQ(cache.stats().table_misses, 1u);
  EXPECT_EQ(cache.stats().inflight_waits, 1u);
}

TEST_F(PreparedCacheTest, AbandonWakesWaitersIntoBuilding) {
  PreparedCache cache;
  TableStamp stamp{1, 1};

  PreparedCache::TableClaim first = cache.AcquireTable("t", stamp);
  ASSERT_TRUE(first.builder);

  std::atomic<bool> waiter_became_builder{false};
  std::thread waiter([&] {
    PreparedCache::TableClaim second = cache.AcquireTable("t", stamp);
    waiter_became_builder = second.builder;
    if (second.builder) {
      auto a = std::make_shared<TableArtifact>();
      cache.PublishTable("t", stamp, std::move(a));
    }
  });
  while (cache.stats().inflight_waits == 0) {
    std::this_thread::yield();
  }
  cache.AbandonTable("t");  // the original builder failed
  waiter.join();
  EXPECT_TRUE(waiter_became_builder);
  EXPECT_TRUE(Serves(&cache, "t", stamp));
}

TEST_F(PreparedCacheTest, WarmOrderSurvivesInvalidation) {
  PreparedCache cache;
  EXPECT_TRUE(cache.WarmOrder("q").empty());
  cache.RecordFinalOrder("q", {2, 0, 1});
  EXPECT_EQ(cache.WarmOrder("q"), (std::vector<int>{2, 0, 1}));
  cache.RecordFinalOrder("q", {1, 0, 2});  // last order wins
  EXPECT_EQ(cache.WarmOrder("q"), (std::vector<int>{1, 0, 2}));
  cache.Clear();
  EXPECT_TRUE(cache.WarmOrder("q").empty());
}

TEST_F(PreparedCacheTest, WarmStartedRunStaysCorrect) {
  // Three-way join, run repeatedly with the cache: later runs seed their
  // UCT priors from the recorded final order and must stay exact.
  const char* sql =
      "SELECT COUNT(*) FROM t t1, t t2, u WHERE t1.k = t2.k AND t2.k = u.k";
  ExecOptions opts;
  opts.use_prepared_cache = true;
  int64_t expect = -1;
  for (int run = 0; run < 3; ++run) {
    auto out = db_.Query(sql, opts);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    int64_t got = out.value().result.rows[0][0].AsInt();
    if (expect < 0) expect = got;
    EXPECT_EQ(got, expect) << "run " << run;
  }
  EXPECT_GT(expect, 0);
}

// ---- revalidation of DML-stale artifacts --------------------------------

/// Table r (id, g, k, v) joined to u on k, with r filtered on g < 5: r's
/// artifact is its g < 5 rows plus an index on k, so v is neither filtered
/// nor indexed.
class ArtifactRevalidationTest : public ::testing::Test {
 protected:
  static constexpr const char* kSql =
      "SELECT r.id, r.v, u.w FROM r, u WHERE r.k = u.k AND r.g < 5";

  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE r (id INT, g INT, k INT, v INT)").ok());
    ASSERT_TRUE(db_.Execute("CREATE TABLE u (k INT, w INT)").ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO u VALUES (0, 1), (1, 2), (2, 3), "
                            "(3, 4), (3, 5)")
                    .ok());
    InsertRows(0, 40);
  }

  void InsertRows(int from, int to) {
    std::string sql = "INSERT INTO r VALUES ";
    for (int i = from; i < to; ++i) {
      sql += StrFormat("%s(%d, %d, %d, %d)", i == from ? "" : ", ", i, i % 10,
                       i % 4, i);
    }
    ASSERT_TRUE(db_.Execute(sql).ok());
  }

  /// One pre-processing of kSql on the current catalog version, through
  /// `cache` (null: a fresh build).
  struct Prepared {
    std::unique_ptr<BoundQuery> query;
    std::unique_ptr<QueryInfo> info;
    VirtualClock clock;
    std::unique_ptr<PreparedQuery> pq;
  };
  std::unique_ptr<Prepared> Prepare(PreparedCache* cache) {
    auto p = std::make_unique<Prepared>();
    auto bound = db_.Bind(kSql);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    p->query = bound.MoveValue();
    p->info = std::make_unique<QueryInfo>(
        QueryInfo::Analyze(*p->query).MoveValue());
    PrepareOptions opts;
    opts.cache = cache;
    auto pq = PreparedQuery::Prepare(p->query.get(), p->info.get(),
                                     db_.catalog()->string_pool(), &p->clock,
                                     opts);
    EXPECT_TRUE(pq.ok()) << pq.status().ToString();
    p->pq = pq.MoveValue();
    return p;
  }

  /// The next cached execution's artifacts must equal a fresh build on the
  /// same version, and its rows a cache-off query's.
  void ExpectExactAfterWrite(const std::string& context) {
    std::unique_ptr<Prepared> cached = Prepare(db_.prepared_cache());
    std::unique_ptr<Prepared> fresh = Prepare(nullptr);
    for (int t = 0; t < 2; ++t) {
      EXPECT_EQ(cached->pq->filtered_rows(t), fresh->pq->filtered_rows(t))
          << context << " table " << t;
      for (int col = 0; col < 4; ++col) {
        const HashIndex* a = cached->pq->index(t, col);
        const HashIndex* b = fresh->pq->index(t, col);
        ASSERT_EQ(a == nullptr, b == nullptr) << context;
        if (a != nullptr) {
          EXPECT_EQ(a->Fingerprint(), b->Fingerprint())
              << context << " table " << t << " column " << col;
        }
      }
    }
    ExecOptions on;
    on.use_prepared_cache = true;
    auto with_cache = db_.Query(kSql, on);
    auto without = db_.Query(kSql);
    ASSERT_TRUE(with_cache.ok() && without.ok()) << context;
    EXPECT_EQ(testing::CanonicalRows(with_cache.value().result),
              testing::CanonicalRows(without.value().result))
        << context;
  }

  /// Runs kSql through the cache after `write` and returns how r's
  /// artifact was obtained: 'h' hit, 'r' revalidated, 'b' rebuilt.
  char ArtifactSourceAfter(const std::string& write) {
    ExecOptions on;
    on.use_prepared_cache = true;
    EXPECT_TRUE(db_.Query(kSql, on).ok());  // warm both artifacts
    if (!write.empty()) {
      Status st = write == "CHECKPOINT" ? db_.Checkpoint() : db_.Execute(write);
      EXPECT_TRUE(st.ok()) << write << ": " << st.ToString();
    }
    const uint64_t revalidations =
        db_.prepared_cache()->stats().table_revalidations;
    auto out = db_.Query(kSql, on);
    EXPECT_TRUE(out.ok());
    ExpectExactAfterWrite(write);
    if (out.value().stats.tables_reprepared > 0) return 'b';
    return db_.prepared_cache()->stats().table_revalidations > revalidations
               ? 'r'
               : 'h';
  }

  Database db_;
};

TEST_F(ArtifactRevalidationTest, RandomSingleRowWritesMatchAFreshBuild) {
  std::mt19937 rng(20261021);
  int next_id = 40;
  int revalidated = 0;
  int rebuilt = 0;
  ExecOptions on;
  on.use_prepared_cache = true;
  ASSERT_TRUE(db_.Query(kSql, on).ok());
  for (int step = 0; step < 120; ++step) {
    const int id = static_cast<int>(rng() % static_cast<unsigned>(next_id));
    std::string write;
    switch (rng() % 5) {
      case 0:  // filter column: membership may flip
        write = StrFormat("UPDATE r SET g = %d WHERE id = %d",
                          static_cast<int>(rng() % 10), id);
        break;
      case 1:  // indexed column
        write = StrFormat("UPDATE r SET k = %d WHERE id = %d",
                          static_cast<int>(rng() % 4), id);
        break;
      case 2:  // neither filtered nor indexed
        write = StrFormat("UPDATE r SET v = %d WHERE id = %d",
                          static_cast<int>(rng() % 1000), id);
        break;
      case 3:
        write = StrFormat("DELETE FROM r WHERE id = %d", id);
        break;
      default:
        write = StrFormat("INSERT INTO r VALUES (%d, %d, %d, %d)", next_id,
                          static_cast<int>(rng() % 10),
                          static_cast<int>(rng() % 4), next_id);
        ++next_id;
        break;
    }
    ASSERT_TRUE(db_.Execute(write).ok()) << write;
    const PreparedCache::Stats before = db_.prepared_cache()->stats();
    ExpectExactAfterWrite(StrFormat("step %d: ", step) + write);
    const PreparedCache::Stats after = db_.prepared_cache()->stats();
    revalidated += static_cast<int>(after.table_revalidations -
                                    before.table_revalidations);
    rebuilt += static_cast<int>(after.table_misses - before.table_misses);
  }
  // Both outcomes occur, so both paths were compared against fresh builds.
  EXPECT_GT(revalidated, 10);
  EXPECT_GT(rebuilt, 10);
}

TEST_F(ArtifactRevalidationTest, WritesThatKeepTheArtifactRevalidate) {
  // Row 1 (g = 1) is filtered, row 7 (g = 7) is not.
  EXPECT_EQ(ArtifactSourceAfter(""), 'h');
  EXPECT_EQ(ArtifactSourceAfter("UPDATE r SET v = 99 WHERE id = 1"), 'r');
  EXPECT_EQ(ArtifactSourceAfter("UPDATE r SET g = 2 WHERE id = 1"), 'r');
  EXPECT_EQ(ArtifactSourceAfter("UPDATE r SET k = 0 WHERE id = 7"), 'r');
  EXPECT_EQ(ArtifactSourceAfter("DELETE FROM r WHERE id = 7"), 'r');
  EXPECT_EQ(ArtifactSourceAfter("INSERT INTO r VALUES (50, 9, 0, 0)"), 'r');
}

TEST_F(ArtifactRevalidationTest, MembershipFlipRebuilds) {
  EXPECT_EQ(ArtifactSourceAfter("UPDATE r SET g = 9 WHERE id = 1"), 'b');
  EXPECT_EQ(ArtifactSourceAfter("UPDATE r SET g = 0 WHERE id = 7"), 'b');
  EXPECT_EQ(ArtifactSourceAfter("DELETE FROM r WHERE id = 2"), 'b');
  EXPECT_EQ(ArtifactSourceAfter("INSERT INTO r VALUES (50, 0, 0, 0)"), 'b');
}

TEST_F(ArtifactRevalidationTest, KeyColumnUpdateOfAFilteredRowRebuilds) {
  EXPECT_EQ(ArtifactSourceAfter("UPDATE r SET k = 3 WHERE id = 1"), 'b');
}

TEST_F(ArtifactRevalidationTest, CheckpointCompactionLeavesALogGap) {
  // A delete of an unfiltered row alone revalidates; compaction renumbers
  // rows without logging them, so after a CHECKPOINT the artifact rebuilds.
  EXPECT_EQ(ArtifactSourceAfter("DELETE FROM r WHERE id = 7"), 'r');
  EXPECT_EQ(ArtifactSourceAfter("CHECKPOINT"), 'b');
}

TEST_F(ArtifactRevalidationTest, BulkUpdateBeyondTheLogCapacityRebuilds) {
  InsertRows(40, static_cast<int>(Table::kChangeLogCapacity) + 40);
  // Every row changes an unfiltered, unindexed column: each change alone
  // would revalidate, but the log dropped the oldest of them.
  EXPECT_EQ(ArtifactSourceAfter("UPDATE r SET v = v + 1"), 'b');
  EXPECT_EQ(ArtifactSourceAfter("UPDATE r SET v = v + 1 WHERE id < 8"), 'r');
}

TEST_F(ArtifactRevalidationTest, AsManyChangesAsRowsRebuilds) {
  // Each change alone would revalidate, but checking 40 changes of a
  // 40-row table costs about what a rebuild does.
  EXPECT_EQ(ArtifactSourceAfter("UPDATE r SET v = v + 1"), 'b');
  EXPECT_EQ(ArtifactSourceAfter("UPDATE r SET v = v + 1 WHERE id < 39"), 'r');
}

TEST_F(ArtifactRevalidationTest, LogOverflowAfterCheckpointRebuilds) {
  // The artifact goes unqueried from before a CHECKPOINT until the log has
  // overflowed after it. The changes logged before the compaction must not
  // come back into the log's window: they miss its renumbering of rows.
  InsertRows(40, 600);
  EXPECT_EQ(ArtifactSourceAfter(""), 'h');
  ASSERT_TRUE(db_.Execute("DELETE FROM r WHERE id = 7").ok());
  ASSERT_TRUE(db_.Checkpoint().ok());
  for (int i = 0; i < 110; ++i) {  // 550 changes of rows the delete kept
    ASSERT_TRUE(db_.Execute("UPDATE r SET v = v + 1 WHERE id < 5").ok());
  }
  ExecOptions on;
  on.use_prepared_cache = true;
  auto out = db_.Query(kSql, on);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out.value().stats.tables_reprepared, 0);
  ExpectExactAfterWrite("log overflow after CHECKPOINT");
}

TEST(TableChangeLogTest, ChangesSinceCoversExactlyTheLoggedWindow) {
  StringPool pool;
  Table t("t", Schema({{"a", DataType::kInt64}}), &pool);
  t.mutable_column(0)->AppendInt(5);
  t.CommitRow();  // a load: not logged, the floor moves to version 1
  const Table::RowChange* b = nullptr;
  const Table::RowChange* e = nullptr;
  EXPECT_FALSE(t.ChangesSince(0, &b, &e));
  ASSERT_TRUE(t.ChangesSince(1, &b, &e));
  EXPECT_EQ(b, e);

  ASSERT_TRUE(t.AppendRow({Value::Int(6)}).ok());          // version 2
  ASSERT_TRUE(t.UpdateCell(0, 0, Value::Int(7)).ok());     // version 3
  t.DeleteRow(1);                                          // version 4
  t.DeleteRow(1);  // idempotent: no version, no entry
  ASSERT_TRUE(t.ChangesSince(1, &b, &e));
  ASSERT_EQ(e - b, 3);
  EXPECT_EQ(b[0].row, 1);
  EXPECT_EQ(b[0].col, Table::kRowAppended);
  EXPECT_EQ(b[1].row, 0);
  EXPECT_EQ(b[1].col, 0);
  EXPECT_EQ(b[2].col, Table::kRowDeleted);
  EXPECT_EQ(b[2].version, t.data_version());
  ASSERT_TRUE(t.ChangesSince(3, &b, &e));
  EXPECT_EQ(e - b, 1);

  // A clone carries the log; compaction moves the floor past it.
  std::unique_ptr<Table> c = t.Clone();
  ASSERT_TRUE(c->ChangesSince(1, &b, &e));
  EXPECT_EQ(e - b, 3);
  c->Compact();
  EXPECT_FALSE(c->ChangesSince(4, &b, &e));
  EXPECT_TRUE(c->ChangesSince(c->data_version(), &b, &e));

  // A full log drops its older half.
  for (size_t i = 0; i < Table::kChangeLogCapacity; ++i) {
    ASSERT_TRUE(t.UpdateCell(0, 0, Value::Int(static_cast<int64_t>(i))).ok());
  }
  EXPECT_FALSE(t.ChangesSince(1, &b, &e));
  ASSERT_TRUE(t.ChangesSince(t.data_version() - 10, &b, &e));
  EXPECT_EQ(e - b, 10);
}

TEST(TableChangeLogTest, CompactionEmptiesTheLog) {
  StringPool pool;
  Table t("t", Schema({{"a", DataType::kInt64}}), &pool);
  for (int64_t i = 0; i < 2; ++i) {
    t.mutable_column(0)->AppendInt(i);
    t.CommitRow();
  }
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(t.UpdateCell(0, 0, Value::Int(i)).ok());
  }
  t.DeleteRow(1);
  const uint64_t before = t.data_version();
  t.Compact();
  const Table::RowChange* b = nullptr;
  const Table::RowChange* e = nullptr;
  EXPECT_FALSE(t.ChangesSince(before, &b, &e));
  ASSERT_TRUE(t.ChangesSince(t.data_version(), &b, &e));
  EXPECT_EQ(b, e);
  // No later change, up to and past an overflow of the log, may bring the
  // pre-compaction changes back into its window (a log that kept them
  // would overflow after 424 changes and drop its floor below `before`).
  for (size_t i = 0; i <= Table::kChangeLogCapacity; ++i) {
    ASSERT_TRUE(t.UpdateCell(0, 0, Value::Int(static_cast<int64_t>(i))).ok());
    ASSERT_FALSE(t.ChangesSince(before, &b, &e)) << "after change " << i;
  }
  ASSERT_TRUE(t.ChangesSince(t.data_version() - 10, &b, &e));
  EXPECT_EQ(e - b, 10);
}

}  // namespace
}  // namespace skinner
