// Morsel-parallel pre-processing (paper 4.5: "pre-processing is
// parallelized"): hash-index builds against ground truth, thread-count
// bit-identity of filter scans and of the artifacts built from them (one
// index build job per (table, column)), the makespan cost model's
// sequential anchor, and the PreparedCache claim-all protocol under
// contention.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "api/prepared_statement.h"
#include "api/query_pipeline.h"
#include "api/session.h"
#include "common/hash_util.h"
#include "exec/prepared_cache.h"
#include "exec/prepared_query.h"
#include "test_util.h"

namespace skinner {
namespace {

// ---- hash-index builds ----------------------------------------------

/// Key of position i: a fixed pseudo-random stream over `domain` distinct
/// values, scrambled by HashMix64 (sparse keys: the Swiss-table layout)
/// unless `dense`, which keeps them in [0, domain) (the direct-address
/// layout).
uint64_t IndexedKey(int64_t i, int64_t domain, bool dense) {
  const uint64_t id = HashMix64(static_cast<uint64_t>(i)) % domain;
  return dense ? id : HashMix64(id);
}

/// The index of n positions, position i carrying IndexedKey(i, ...)
/// (positions ascending per key by construction).
HashIndex BuildIndex(int64_t n, int64_t domain, bool dense = false) {
  Column col(DataType::kInt64);
  for (int64_t i = 0; i < n; ++i) {
    col.AppendInt(static_cast<int64_t>(IndexedKey(i, domain, dense)));
  }
  return testing::IndexOfColumn(col);
}

/// Every indexed key's full ascending run, and no phantom postings for
/// absent keys.
void ExpectMatchesGroundTruth(const HashIndex& idx, int64_t n, int64_t domain,
                              bool dense) {
  std::map<uint64_t, std::vector<int32_t>> truth;
  for (int64_t i = 0; i < n; ++i) {
    truth[IndexedKey(i, domain, dense)].push_back(static_cast<int32_t>(i));
  }
  EXPECT_EQ(idx.num_keys(), truth.size());
  EXPECT_EQ(idx.num_postings(), static_cast<size_t>(n));
  for (const auto& [key, rows] : truth) {
    HashIndex::Postings p = idx.Find(key);
    ASSERT_EQ(p.size(), rows.size()) << "key " << key;
    for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(p[i], rows[i]);
  }
  for (int64_t id = domain; id < domain + 64; ++id) {
    const uint64_t key = dense ? static_cast<uint64_t>(id)
                               : HashMix64(static_cast<uint64_t>(id));
    EXPECT_TRUE(idx.Find(key).empty());
  }
}

// 20k pairs over 3001 sparse keys: a 65536-slot Swiss table.
TEST(HashIndexBuildTest, SwissBuildMatchesGroundTruth) {
  const int64_t n = 20000;
  const int64_t domain = 3001;
  const HashIndex idx = BuildIndex(n, domain);
  ASSERT_FALSE(idx.direct());
  EXPECT_EQ(idx.num_slots(), size_t{1} << 16);
  ExpectMatchesGroundTruth(idx, n, domain, /*dense=*/false);
}

// The same stream with dense keys freezes into the direct-address layout
// (a counting sort).
TEST(HashIndexBuildTest, DirectBuildMatchesGroundTruth) {
  const int64_t n = 20000;
  const int64_t domain = 3001;
  const HashIndex idx = BuildIndex(n, domain, /*dense=*/true);
  ASSERT_TRUE(idx.direct());
  EXPECT_EQ(idx.num_slots(), 0u);
  ExpectMatchesGroundTruth(idx, n, domain, /*dense=*/true);
  // The two layouts over the same postings never fingerprint equal.
  EXPECT_NE(BuildIndex(n, domain).Fingerprint(), idx.Fingerprint());
}

TEST(HashIndexBuildTest, SmallSwissIndexMatchesGroundTruth) {
  const HashIndex idx = BuildIndex(500, 97);
  EXPECT_FALSE(idx.direct());
  ExpectMatchesGroundTruth(idx, 500, 97, /*dense=*/false);
  EXPECT_EQ(BuildIndex(500, 97).Fingerprint(), idx.Fingerprint());
}

TEST(HashIndexBuildTest, EmptyAndSingleKeyIndexes) {
  const HashIndex empty = BuildIndex(0, 1);
  EXPECT_EQ(empty.num_keys(), 0u);
  EXPECT_TRUE(empty.Find(7).empty());

  // One key, 10k postings: a one-key span is always direct.
  const HashIndex one = BuildIndex(10000, 1);
  EXPECT_TRUE(one.direct());
  EXPECT_EQ(one.Find(HashMix64(0)).size(), 10000u);
  ExpectMatchesGroundTruth(one, 10000, 1, /*dense=*/false);
}

// ---- pipeline pre-processing bit-identity ---------------------------

/// Filter-heavy chain workload: m tables large enough for several filter
/// morsels each. `k` is a dense join key (direct layout) and `s` a sparse
/// image of it (Swiss-table layout).
void BuildFilterHeavyDb(Database* db, int m, int64_t rows, int64_t domain) {
  for (int t = 0; t < m; ++t) {
    const std::string name = "p" + std::to_string(t);
    ASSERT_TRUE(
        db->Execute("CREATE TABLE " + name + " (k INT, v INT, s INT)").ok());
    Table* table = db->catalog()->FindTable(name);
    ASSERT_NE(table, nullptr);
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t k = (r * (t + 3) + r / 5) % domain;
      table->mutable_column(0)->AppendInt(k);
      table->mutable_column(1)->AppendInt(r % 97);
      table->mutable_column(2)->AppendInt(k * 1000003 * 1000003);
      table->CommitRow();
    }
  }
}

constexpr const char* kChainQuery =
    "SELECT COUNT(*) FROM p0, p1, p2 WHERE p0.k = p1.k AND p1.k = p2.k "
    "AND p1.s = p2.s AND p0.v < 50 AND p1.v < 60 AND p2.v < 70";

/// Order-sensitive fingerprint of one table artifact: the surviving-row
/// vector plus every frozen index layout.
uint64_t ArtifactFingerprint(const TableArtifact& a) {
  uint64_t h = 0x5ca1ab1eull ^ a.filtered.size();
  for (int32_t r : a.filtered) {
    h = HashMix64(h ^ static_cast<uint64_t>(static_cast<uint32_t>(r)));
  }
  std::vector<int> cols;
  cols.reserve(a.indexes.size());
  for (const auto& [col, idx] : a.indexes) cols.push_back(col);
  std::sort(cols.begin(), cols.end());
  for (int col : cols) {
    h = HashMix64(h ^ static_cast<uint64_t>(col) ^
                  a.indexes.at(col)->Fingerprint());
  }
  return h;
}

/// What TableArtifact::bytes() must report, derived from the data
/// independently of the index: survivors exactly, plus per index its
/// postings and either span + 1 offsets (direct) or cap slots and tags
/// (Swiss), whichever layout the byte comparison picks.
size_t ExactArtifactBytes(const Table& table, const TableArtifact& a) {
  size_t bytes = sizeof(TableArtifact) + a.filtered.size() * sizeof(int32_t);
  for (const auto& [col, idx] : a.indexes) {
    const Column& c = table.column(col);
    size_t pairs = 0;
    int64_t lo = INT64_MAX;
    int64_t hi = INT64_MIN;
    for (int32_t row : a.filtered) {
      if (c.IsNull(row)) continue;
      ++pairs;
      const int64_t key = static_cast<int64_t>(JoinKeyOf(c, row));
      lo = std::min(lo, key);
      hi = std::max(hi, key);
    }
    size_t cap = 16;
    while (cap < pairs * 2) cap <<= 1;
    // A Swiss slot is {uint64 key, uint32 offset, uint32 len} plus a tag.
    const size_t swiss = cap * (16 + 1);
    const uint64_t gap = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    const size_t direct = (static_cast<size_t>(gap) + 2) * sizeof(uint32_t);
    EXPECT_EQ(idx->direct(), direct <= swiss) << "column " << col;
    bytes += sizeof(HashIndex) + pairs * sizeof(int32_t) +
             (idx->direct() ? direct : swiss);
  }
  return bytes;
}

struct PreparedProbe {
  std::vector<uint64_t> artifact_fp;     // per FROM table
  std::vector<size_t> artifact_bytes;    // per FROM table, bytes()
  std::vector<size_t> exact_bytes;       // per FROM table, from the data
  int direct_indexes = 0;
  int swiss_indexes = 0;
  uint64_t preprocess_cost = 0;
};

PreparedProbe ProbePrepare(Database* db, const std::string& sql,
                           bool parallel, int num_threads) {
  QueryPipeline pipe(db->catalog(), db->udfs(), db->stats_manager(),
                     /*cache=*/nullptr, db->scheduler());
  auto stmt = pipe.Parse(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().message();
  auto bound = pipe.Bind(std::move(stmt.value()));
  EXPECT_TRUE(bound.ok()) << bound.status().message();
  ExecOptions opts;
  opts.parallel_preprocess = parallel;
  opts.num_threads = num_threads;
  auto stage = pipe.Prepare(std::move(bound.value()), opts);
  EXPECT_TRUE(stage.ok()) << stage.status().message();
  PreparedProbe probe;
  probe.preprocess_cost = stage.value().pq->preprocess_cost();
  const PreparedQuery::Data& data = *stage.value().pq->shared_data();
  for (size_t t = 0; t < data.artifacts.size(); ++t) {
    const TableArtifact& art = *data.artifacts[t];
    probe.artifact_fp.push_back(ArtifactFingerprint(art));
    probe.artifact_bytes.push_back(art.bytes());
    probe.exact_bytes.push_back(ExactArtifactBytes(*data.tables[t], art));
    for (const auto& [col, idx] : art.indexes) {
      ++(idx->direct() ? probe.direct_indexes : probe.swiss_indexes);
    }
  }
  return probe;
}

// The tentpole property: every worker count — and the sequential path —
// produces byte-identical artifacts (same surviving rows, same frozen
// index layout). Only wall time may vary with the pool.
TEST(ParallelPreprocessTest, ArtifactsBitIdenticalAcrossWorkerCounts) {
  Database db;
  BuildFilterHeavyDb(&db, 3, 6000, 256);

  PreparedProbe seq = ProbePrepare(&db, kChainQuery, /*parallel=*/false, 1);
  ASSERT_EQ(seq.artifact_fp.size(), 3u);
  // Both frozen layouts are in play: k is dense, s sparse.
  EXPECT_EQ(seq.direct_indexes, 3);
  EXPECT_EQ(seq.swiss_indexes, 2);
  for (int threads : {1, 2, 4, 8}) {
    PreparedProbe par = ProbePrepare(&db, kChainQuery, /*parallel=*/true,
                                     threads);
    ASSERT_EQ(par.artifact_fp.size(), seq.artifact_fp.size());
    for (size_t t = 0; t < seq.artifact_fp.size(); ++t) {
      EXPECT_EQ(par.artifact_fp[t], seq.artifact_fp[t])
          << "table " << t << " at " << threads << " workers";
      // bytes() is exact, so identical artifacts cost identical bytes.
      EXPECT_EQ(par.artifact_bytes[t], seq.artifact_bytes[t])
          << "table " << t << " at " << threads << " workers";
      EXPECT_EQ(par.artifact_bytes[t], par.exact_bytes[t])
          << "table " << t << " at " << threads << " workers";
    }
  }
}

// The makespan cost model's anchor: at a configured width of 1 the
// parallel path charges exactly the sequential pre-processing cost
// (list-schedule makespan over one machine == sum).
TEST(ParallelPreprocessTest, WidthOneCostMatchesSequential) {
  Database db;
  BuildFilterHeavyDb(&db, 3, 6000, 256);
  PreparedProbe seq = ProbePrepare(&db, kChainQuery, /*parallel=*/false, 1);
  PreparedProbe par1 = ProbePrepare(&db, kChainQuery, /*parallel=*/true, 1);
  EXPECT_GT(seq.preprocess_cost, 0u);
  EXPECT_EQ(par1.preprocess_cost, seq.preprocess_cost);
  // Wider configured widths overlap independent jobs: never more
  // expensive than sequential, and deterministic for a fixed width.
  PreparedProbe par4 = ProbePrepare(&db, kChainQuery, /*parallel=*/true, 4);
  EXPECT_LE(par4.preprocess_cost, seq.preprocess_cost);
  PreparedProbe par4b = ProbePrepare(&db, kChainQuery, /*parallel=*/true, 4);
  EXPECT_EQ(par4b.preprocess_cost, par4.preprocess_cost);
}

// Mask-aware morsel filtering (PR 7) must be free for fully-valid tables:
// a DELETE that matches nothing allocates no validity mask, so the scan
// takes the exact pre-mutation path and charges the exact pre-mutation
// cost. After a real DELETE the masked rows are charged their row visit
// but skip predicate evaluation, so the cost drops — deterministically.
TEST(ParallelPreprocessTest, MaskAwareFilterCostAnchors) {
  Database db;
  BuildFilterHeavyDb(&db, 3, 6000, 256);
  PreparedProbe before_seq =
      ProbePrepare(&db, kChainQuery, /*parallel=*/false, 1);
  PreparedProbe before_par4 =
      ProbePrepare(&db, kChainQuery, /*parallel=*/true, 4);

  // No-match DELETE: no mask is allocated, nothing may change — not even
  // by the one-tick-per-row accounting difference a mask would introduce.
  ASSERT_TRUE(db.Execute("DELETE FROM p0 WHERE v < 0").ok());
  EXPECT_FALSE(db.catalog()->FindTable("p0")->has_deletes());
  PreparedProbe nomatch_seq =
      ProbePrepare(&db, kChainQuery, /*parallel=*/false, 1);
  PreparedProbe nomatch_par4 =
      ProbePrepare(&db, kChainQuery, /*parallel=*/true, 4);
  EXPECT_EQ(nomatch_seq.preprocess_cost, before_seq.preprocess_cost);
  EXPECT_EQ(nomatch_par4.preprocess_cost, before_par4.preprocess_cost);
  EXPECT_EQ(nomatch_seq.artifact_fp, before_seq.artifact_fp);

  // Real DELETE: masked rows cost one visit each and skip their predicate,
  // so pre-processing gets cheaper, never dearer — and stays deterministic.
  ASSERT_TRUE(db.Execute("DELETE FROM p0 WHERE v < 10").ok());
  EXPECT_TRUE(db.catalog()->FindTable("p0")->has_deletes());
  PreparedProbe after_seq =
      ProbePrepare(&db, kChainQuery, /*parallel=*/false, 1);
  PreparedProbe after_seq2 =
      ProbePrepare(&db, kChainQuery, /*parallel=*/false, 1);
  EXPECT_LT(after_seq.preprocess_cost, before_seq.preprocess_cost);
  EXPECT_EQ(after_seq2.preprocess_cost, after_seq.preprocess_cost);
  EXPECT_NE(after_seq.artifact_fp[0], before_seq.artifact_fp[0]);
  // The width-1 anchor still holds on a masked table.
  PreparedProbe after_par1 =
      ProbePrepare(&db, kChainQuery, /*parallel=*/true, 1);
  EXPECT_EQ(after_par1.preprocess_cost, after_seq.preprocess_cost);
}

// Randomized end-to-end property: parallel pre-processing never changes a
// query's result, across schemas, predicates and join shapes.
TEST(ParallelPreprocessTest, RandomizedResultsMatchSequential) {
  testing::RandomDbSpec spec;
  spec.num_tables = 4;
  spec.min_rows = 30;
  spec.max_rows = 90;
  spec.key_domain = 12;
  spec.seed = 11;
  Database db;
  std::vector<std::string> tables;
  ASSERT_TRUE(testing::BuildRandomDb(&db, spec, &tables).ok());

  Rng rng(77);
  for (int iter = 0; iter < 25; ++iter) {
    const std::string sql = testing::RandomCountQuery(&rng, tables);
    ExecOptions seq;
    seq.parallel_preprocess = false;
    ExecOptions par;
    par.parallel_preprocess = true;
    par.num_threads = 8;
    EXPECT_EQ(testing::RunCount(&db, sql, par),
              testing::RunCount(&db, sql, seq))
        << sql;
  }
}

// ---- view-built artifacts vs brute force ----------------------------

/// Two tables whose join columns cover every key shape the view serves:
/// dense ints (direct layout), a sparse int image (Swiss layout), negative
/// dense ints, ints with NULLs,
/// and doubles (integral, fractional, -0.0, NULL) joined both with doubles
/// and with an int64 column.
void BuildKeyShapesDb(Database* db, int64_t rows) {
  for (int t = 0; t < 2; ++t) {
    const std::string name = "v" + std::to_string(t);
    ASSERT_TRUE(db->Execute("CREATE TABLE " + name +
                            " (dense INT, sparse INT, neg INT, nul INT, "
                            "dbl DOUBLE, f INT)")
                    .ok());
    Table* table = db->catalog()->FindTable(name);
    ASSERT_NE(table, nullptr);
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t k = (r * (t + 5) + r / 3) % 700;
      table->mutable_column(0)->AppendInt(k);
      table->mutable_column(1)->AppendInt(
          static_cast<int64_t>(HashMix64(static_cast<uint64_t>(k % 3000))));
      table->mutable_column(2)->AppendInt(-1 - (k % 500));
      if (r % 7 == 3) {
        table->mutable_column(3)->AppendNull();
      } else {
        table->mutable_column(3)->AppendInt(k % 90);
      }
      if (r % 11 == 5) {
        table->mutable_column(4)->AppendNull();
      } else if (k == 0) {
        table->mutable_column(4)->AppendDouble(r % 2 ? -0.0 : 0.0);
      } else {
        table->mutable_column(4)->AppendDouble(
            k % 4 == 1 ? static_cast<double>(k) + 0.5 : static_cast<double>(k));
      }
      table->mutable_column(5)->AppendInt(r % 97);
      table->CommitRow();
    }
  }
}

// Pre-processing builds every index straight from the join-key view. At
// every width the filtered rows must equal a per-row EvalPredicate scan,
// every index's postings must equal a brute-force JoinKeyOf map over those
// rows, and every index must fingerprint equal to its width-1 build.
TEST(ParallelPreprocessTest, ViewBuiltIndexesMatchBruteForceAtEveryWidth) {
  Database db;
  BuildKeyShapesDb(&db, 9000);
  // A few deleted rows: the filter scan drops them in the same pass.
  ASSERT_TRUE(db.Execute("DELETE FROM v1 WHERE f = 13").ok());
  const std::string sql =
      "SELECT COUNT(*) FROM v0, v1 WHERE v0.dense = v1.dense "
      "AND v0.sparse = v1.sparse AND v0.neg = v1.neg AND v0.nul = v1.nul "
      "AND v0.dbl = v1.dbl AND v0.dense = v1.dbl AND v0.f < 70 "
      "AND (v1.f <> 3 OR v1.nul IS NULL)";
  std::map<std::pair<int, int>, uint64_t> width1_fp;  // by (table, column)
  for (int width : {1, 2, 4, 8}) {
    SCOPED_TRACE("width " + std::to_string(width));
    QueryPipeline pipe(db.catalog(), db.udfs(), db.stats_manager(),
                       /*cache=*/nullptr, db.scheduler());
    auto stmt = pipe.Parse(sql);
    ASSERT_TRUE(stmt.ok());
    auto bound = pipe.Bind(std::move(stmt.value()));
    ASSERT_TRUE(bound.ok());
    ExecOptions opts;
    opts.parallel_preprocess = width > 1;
    opts.num_threads = width;
    auto stage = pipe.Prepare(std::move(bound.value()), opts);
    ASSERT_TRUE(stage.ok()) << stage.status().message();
    const PreparedQuery& pq = *stage.value().pq;
    int direct = 0;
    int swiss = 0;
    for (int t = 0; t < pq.num_tables(); ++t) {
      const Table& table = *pq.table(t);
      std::vector<int32_t> expect_rows;
      std::vector<int64_t> binding(static_cast<size_t>(pq.num_tables()), 0);
      const EvalContext ctx = pq.MakeEvalContext(binding.data());
      for (int64_t r = 0; r < table.num_rows(); ++r) {
        if (!table.IsRowValid(r)) continue;
        binding[static_cast<size_t>(t)] = r;
        bool pass = true;
        for (const Expr* e : pq.info().unary_preds(t)) {
          pass = pass && EvalPredicate(*e, ctx);
        }
        if (pass) expect_rows.push_back(static_cast<int32_t>(r));
      }
      const std::vector<int32_t>& rows = pq.filtered_rows(t);
      ASSERT_EQ(rows, expect_rows) << "table " << t;
      for (int col = 0; col < 5; ++col) {
        const HashIndex* idx = pq.index(t, col);
        ASSERT_NE(idx, nullptr) << "table " << t << " column " << col;
        SCOPED_TRACE("table " + std::to_string(t) + " column " +
                     std::to_string(col));
        const Column& c = table.column(col);
        std::map<uint64_t, std::vector<int32_t>> truth;
        size_t pairs = 0;
        for (size_t p = 0; p < rows.size(); ++p) {
          if (c.IsNull(rows[p])) continue;
          truth[JoinKeyOf(c, rows[p])].push_back(static_cast<int32_t>(p));
          ++pairs;
        }
        EXPECT_EQ(idx->num_keys(), truth.size());
        EXPECT_EQ(idx->num_postings(), pairs);
        for (const auto& [key, positions] : truth) {
          const HashIndex::Postings found = idx->Find(key);
          EXPECT_EQ(std::vector<int32_t>(found.begin(), found.end()),
                    positions)
              << "key " << key;
        }
        const auto [it, first] =
            width1_fp.emplace(std::make_pair(t, col), idx->Fingerprint());
        if (!first) {
          EXPECT_EQ(idx->Fingerprint(), it->second);
        }
        ++(idx->direct() ? direct : swiss);
      }
    }
    // Both layouts occur: dense, neg and nul are direct; sparse and dbl
    // (whose fractional values take mixed keys) are Swiss tables on both
    // tables.
    EXPECT_EQ(direct, 6);
    EXPECT_EQ(swiss, 4);
  }
}

// ---- claim-all protocol ---------------------------------------------

// The deadlock shape the protocol exists for: two builders each owning
// one key of the other's set. Under try-acquire/publish-all/wait both
// make progress; blocking sorted acquisition would hang here.
TEST(ClaimAllProtocolTest, CrossOwnershipRendezvous) {
  PreparedCache cache;
  const TableStamp stamp{1, 1};
  const std::string ka = "table-A";
  const std::string kb = "table-B";

  // Deterministic cross-ownership (all claims taken before any thread
  // starts): thread 1 owns A and holds B's token, thread 2 owns B and
  // holds A's token.
  PreparedCache::TableTryClaim a1 = cache.TryAcquireTable(ka, stamp);
  PreparedCache::TableTryClaim b2 = cache.TryAcquireTable(kb, stamp);
  ASSERT_TRUE(a1.builder);
  ASSERT_TRUE(b2.builder);
  PreparedCache::TableTryClaim b1 = cache.TryAcquireTable(kb, stamp);
  PreparedCache::TableTryClaim a2 = cache.TryAcquireTable(ka, stamp);
  ASSERT_FALSE(b1.builder);
  ASSERT_FALSE(a2.builder);
  ASSERT_EQ(b1.artifact, nullptr);
  ASSERT_NE(b1.pending, nullptr);
  ASSERT_NE(a2.pending, nullptr);

  auto run = [&cache, &stamp](const std::string& own_key,
                              const std::string& other_key,
                              const std::shared_ptr<void>& other_pending,
                              int32_t tag) -> int32_t {
    // Publish every owned claim FIRST...
    auto art = std::make_shared<TableArtifact>();
    art->filtered = {tag};
    cache.PublishTable(own_key, stamp, art);
    // ...and only then redeem the peer's token.
    PreparedCache::TableClaim got =
        cache.WaitTable(other_key, stamp, other_pending);
    EXPECT_FALSE(got.builder);
    EXPECT_NE(got.artifact, nullptr);
    if (got.artifact == nullptr || got.artifact->filtered.empty()) return -1;
    return got.artifact->filtered[0];
  };

  int32_t from_b = 0;
  int32_t from_a = 0;
  std::thread t1([&] { from_b = run(ka, kb, b1.pending, 100); });
  std::thread t2([&] { from_a = run(kb, ka, a2.pending, 200); });
  t1.join();
  t2.join();
  EXPECT_EQ(from_b, 200);  // thread 1 received thread 2's artifact
  EXPECT_EQ(from_a, 100);
}

TEST(ClaimAllProtocolTest, WaitAfterAbandonFallsBackToBuilder) {
  PreparedCache cache;
  const TableStamp stamp{1, 1};
  PreparedCache::TableTryClaim owner = cache.TryAcquireTable("k", stamp);
  ASSERT_TRUE(owner.builder);
  PreparedCache::TableTryClaim waiter = cache.TryAcquireTable("k", stamp);
  ASSERT_FALSE(waiter.builder);
  ASSERT_NE(waiter.pending, nullptr);

  std::thread t([&] { cache.AbandonTable("k"); });
  PreparedCache::TableClaim got = cache.WaitTable("k", stamp, waiter.pending);
  t.join();
  // The abandon promoted the waiter: it must now build and publish.
  ASSERT_TRUE(got.builder);
  cache.PublishTable("k", stamp, std::make_shared<TableArtifact>());
  EXPECT_NE(cache.LookupTable("k", stamp), nullptr);
}

// Contention end-to-end: N sessions execute the same parameterized
// template concurrently with parallel pre-processing on. Claim-all must
// (a) terminate — no deadlock between builders racing on the same table
// set — and (b) deduplicate: each table's artifact is built exactly once.
TEST(ClaimAllProtocolTest, ConcurrentExecutionsDedupArtifactBuilds) {
  Database db;
  BuildFilterHeavyDb(&db, 3, 3000, 128);
  const int kThreads = 6;
  const std::string tmpl =
      "SELECT COUNT(*) FROM p0, p1, p2 WHERE p0.k = p1.k AND p1.k = p2.k "
      "AND p0.v < ?";

  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<std::unique_ptr<PreparedStatement>> stmts;
  for (int i = 0; i < kThreads; ++i) {
    auto session = db.CreateSession();
    ExecOptions* defaults = session->mutable_defaults();
    defaults->use_prepared_cache = true;
    defaults->parallel_preprocess = true;
    defaults->num_threads = 4;
    auto stmt = session->Prepare(tmpl);
    ASSERT_TRUE(stmt.ok()) << stmt.status().message();
    stmts.push_back(std::move(stmt.value()));
    sessions.push_back(std::move(session));
  }

  std::vector<QueryOutput> outs(kThreads);
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      auto out = stmts[static_cast<size_t>(i)]->Execute({Value::Int(50)});
      if (!out.ok()) {
        failures.fetch_add(1);
        return;
      }
      outs[static_cast<size_t>(i)] = std::move(out.value());
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  int reprepared = 0;
  int from_cache = 0;
  const std::string rows0 = testing::CanonicalRows(outs[0].result);
  for (const QueryOutput& out : outs) {
    EXPECT_EQ(out.stats.tables_prepared_from_cache +
                  out.stats.tables_reprepared,
              3);
    reprepared += out.stats.tables_reprepared;
    from_cache += out.stats.tables_prepared_from_cache;
    EXPECT_EQ(testing::CanonicalRows(out.result), rows0);
  }
  // Exactly one execution built each of the 3 artifacts; everyone else
  // rendezvoused on the in-flight builds or hit the cache.
  EXPECT_EQ(reprepared, 3);
  EXPECT_EQ(from_cache, 3 * kThreads - 3);

  // A new parameter value re-prepares only the param-filtered table.
  auto out2 = stmts[0]->Execute({Value::Int(80)});
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2.value().stats.tables_reprepared, 1);
  EXPECT_EQ(out2.value().stats.tables_prepared_from_cache, 2);
}

}  // namespace
}  // namespace skinner
