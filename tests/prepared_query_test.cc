#include "exec/prepared_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "baselines/reopt.h"
#include "common/hash_util.h"
#include "engine/block.h"
#include "engine/forced_order.h"
#include "engine/multiway_join.h"
#include "skinner/skinner_c.h"
#include "sql/parser.h"
#include "test_util.h"

namespace skinner {
namespace {

class PreparedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto a = catalog_.CreateTable("a", Schema({{"k", DataType::kInt64},
                                               {"v", DataType::kInt64}}));
    auto b = catalog_.CreateTable("b", Schema({{"k", DataType::kInt64},
                                               {"s", DataType::kString}}));
    ASSERT_TRUE(a.ok() && b.ok());
    StringPool* pool = catalog_.string_pool();
    for (int i = 0; i < 10; ++i) {
      a.value()->mutable_column(0)->AppendInt(i % 4);
      a.value()->mutable_column(1)->AppendInt(i);
      a.value()->CommitRow();
    }
    for (int i = 0; i < 6; ++i) {
      if (i == 3) {
        b.value()->mutable_column(0)->AppendNull();
      } else {
        b.value()->mutable_column(0)->AppendInt(i % 4);
      }
      b.value()->mutable_column(1)->AppendString(i % 2 ? "x" : "y", pool);
      b.value()->CommitRow();
    }
  }

  struct Prepared {
    std::unique_ptr<BoundQuery> query;
    std::unique_ptr<QueryInfo> info;
    std::unique_ptr<PreparedQuery> pq;
  };

  Prepared Prepare(const std::string& sql, PrepareOptions opts = {}) {
    Prepared p;
    auto stmt = ParseSql(sql);
    EXPECT_TRUE(stmt.ok());
    auto q = BindSelect(stmt.value().select.get(), &catalog_, &udfs_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    p.query = std::make_unique<BoundQuery>(q.MoveValue());
    p.info = std::make_unique<QueryInfo>(QueryInfo::Analyze(*p.query).MoveValue());
    auto pq = PreparedQuery::Prepare(p.query.get(), p.info.get(),
                                     catalog_.string_pool(), &clock_, opts);
    EXPECT_TRUE(pq.ok()) << pq.status().ToString();
    p.pq = pq.MoveValue();
    return p;
  }

  /// Tables t (300 rows) and u (200 rows) over every join-key shape:
  /// dense and sparse ints, ints beyond 2^53, doubles, strings, ~10% NULLs.
  void BuildMixedKeyTables() {
    const std::vector<ColumnDef> cols = {
        {"dense", DataType::kInt64},   {"sparse", DataType::kInt64},
        {"big", DataType::kInt64},     {"bigdense", DataType::kInt64},
        {"dbl", DataType::kDouble},    {"ddense", DataType::kDouble},
        {"str", DataType::kString}};
    constexpr int64_t kTwo53 = int64_t{1} << 53;
    const std::vector<int64_t> bigs = {
        kTwo53 + 1, kTwo53 + 2, -kTwo53 - 1, int64_t{1} << 62,
        -(int64_t{1} << 62), INT64_MAX, INT64_MIN, INT64_MAX - 1};
    const std::vector<double> dbls = {-0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 2.5,
                                      3.0, -20.0, 1e300, -1e300, 5e-324,
                                      1e19, 0.1, 0.30000000000000004};
    std::mt19937_64 rng(77);
    StringPool* pool = catalog_.string_pool();
    for (const char* name : {"t", "u"}) {
      auto made = catalog_.CreateTable(name, Schema(cols));
      ASSERT_TRUE(made.ok());
      Table* tab = made.value();
      const int rows = name[0] == 't' ? 300 : 200;
      for (int r = 0; r < rows; ++r) {
        for (size_t c = 0; c < cols.size(); ++c) {
          Column* col = tab->mutable_column(static_cast<int>(c));
          if (rng() % 10 == 0) {
            col->AppendNull();
            continue;
          }
          const int64_t small = static_cast<int64_t>(rng() % 41) - 20;
          switch (c) {
            case 0: col->AppendInt(small); break;
            case 1:  // ~40 values spread over 2^44, both signs
              col->AppendInt(
                  static_cast<int64_t>(HashMix64(rng() % 40) >> 20) *
                  (rng() % 2 ? 1 : -1));
              break;
            case 2: col->AppendInt(bigs[rng() % bigs.size()]); break;
            case 3: col->AppendInt((int64_t{1} << 60) + small); break;
            case 4:
              col->AppendDouble(rng() % 2 ? dbls[rng() % dbls.size()]
                                          : static_cast<double>(small));
              break;
            case 5:
              col->AppendDouble(small == 0 && rng() % 2
                                    ? -0.0
                                    : static_cast<double>(small));
              break;
            default:
              col->AppendString(
                  std::string(1, static_cast<char>('a' + small + 20)), pool);
          }
        }
        tab->CommitRow();
      }
    }
  }

  /// Table z (240 rows): a Zipf-distributed key over [0, 12) (long
  /// postings runs: key 0 holds about a third of the rows), the same key as
  /// a fractional double (Swiss layout) and as an integral double, ~10%
  /// NULLs.
  void BuildZipfTable() {
    auto made = catalog_.CreateTable("z", Schema({{"zk", DataType::kInt64},
                                                  {"zd", DataType::kDouble},
                                                  {"zi", DataType::kDouble}}));
    ASSERT_TRUE(made.ok());
    Table* tab = made.value();
    std::mt19937_64 rng(91);
    double total = 0;
    for (int k = 0; k < 12; ++k) total += 1.0 / (k + 1);
    for (int r = 0; r < 240; ++r) {
      if (rng() % 10 == 0) {
        for (int c = 0; c < 3; ++c) tab->mutable_column(c)->AppendNull();
        tab->CommitRow();
        continue;
      }
      double u = std::uniform_real_distribution<double>(0, total)(rng);
      int k = 0;
      while (k < 11 && (u -= 1.0 / (k + 1)) > 0) ++k;
      tab->mutable_column(0)->AppendInt(k);
      tab->mutable_column(1)->AppendDouble(k + 0.5);
      tab->mutable_column(2)->AppendDouble(k);
      tab->CommitRow();
    }
  }

  /// Every tuple of filtered positions (table-indexed) passing all join
  /// predicates, by EvalPredicate. Enumerates depth-first in FROM order and
  /// tests each predicate as soon as its tables are bound.
  static std::set<std::vector<int32_t>> BruteForceJoin(
      const QueryInfo& info, const PreparedQuery& pq) {
    const int m = pq.num_tables();
    std::set<std::vector<int32_t>> rows;
    std::vector<int32_t> pos(static_cast<size_t>(m), -1);
    std::vector<int64_t> base(static_cast<size_t>(m), 0);
    const EvalContext ctx = pq.MakeEvalContext(base.data());
    auto descend = [&](auto&& self, int t) -> void {
      if (t == m) {
        rows.insert(pos);
        return;
      }
      for (int64_t p = 0; p < pq.cardinality(t); ++p) {
        pos[static_cast<size_t>(t)] = static_cast<int32_t>(p);
        base[static_cast<size_t>(t)] = pq.base_row(t, p);
        bool pass = true;
        for (const PredInfo& jp : info.join_preds()) {
          const TableSet bound = (TableSet{1} << (t + 1)) - 1;
          if ((jp.tables & TableBit(t)) != 0 && (jp.tables & ~bound) == 0) {
            pass = pass && EvalPredicate(*jp.expr, ctx);
          }
        }
        if (pass) self(self, t + 1);
      }
    };
    descend(descend, 0);
    return rows;
  }

  /// A result set's tuples; also expects no tuple to appear twice.
  static std::set<std::vector<int32_t>> Rows(const ResultSet& out) {
    std::set<std::vector<int32_t>> rows;
    out.ForEach([&](const int32_t* t) {
      rows.emplace(t, t + out.width());
    });
    EXPECT_EQ(rows.size(), out.size()) << "duplicate result tuples";
    return rows;
  }

  static std::string OrderString(const std::vector<int>& order) {
    std::string s;
    for (int t : order) s += std::to_string(t);
    return s;
  }

  /// Random Bind / FirstCandidate / NextCandidate call patterns on `order`
  /// against the driving equality evaluated by brute force over the step's
  /// positions. Each round opens a depth's postings window, then re-binds
  /// a shallower depth without calling FirstCandidate again and asks for
  /// the candidate after the window's current one — exactly where a stale
  /// window's *cur equals the position passed in.
  static void CheckRebindsAgainstFreshProbes(const PreparedQuery& pq,
                                             const std::vector<int>& order) {
    const int m = static_cast<int>(order.size());
    JoinCursor cursor(&pq, BuildJoinSteps(pq, order));
    std::mt19937_64 rng(static_cast<uint64_t>(order[0]) * 131 + 7);
    auto bind_random = [&](int d) {
      const int64_t card = pq.cardinality(order[static_cast<size_t>(d)]);
      if (card > 0) cursor.Bind(d, static_cast<int64_t>(rng() % card));
      return card > 0;
    };
    // The driving equality's next match after `pos`, by brute force.
    auto oracle_next = [&](int d, int64_t pos) -> int64_t {
      const JoinStep& s = cursor.steps()[static_cast<size_t>(d)];
      if (s.driver < 0) return pos + 1 < s.card ? pos + 1 : -1;
      const EquiProbe& e = s.eq[static_cast<size_t>(s.driver)];
      const int64_t other =
          cursor.bindings()[static_cast<size_t>(e.other_table)];
      if (e.other_keys.IsNull(other)) return -1;
      for (int64_t q = pos + 1; q < s.card; ++q) {
        if (!e.this_keys.IsNull(s.rows[q]) &&
            e.this_keys.Key(s.rows[q]) == e.other_keys.Key(other)) {
          return q;
        }
      }
      return -1;
    };
    for (int round = 0; round < 300; ++round) {
      bool bound = true;
      for (int d = 0; d + 1 < m; ++d) bound = bound && bind_random(d);
      if (!bound) return;
      const int depth = 1 + static_cast<int>(rng() % (m - 1));
      int64_t p = cursor.FirstCandidate(depth, 0);
      ASSERT_EQ(p, oracle_next(depth, -1));
      // Walk a few steps through the window, then re-bind a shallower
      // depth (or not) and continue from the same position.
      for (int step = static_cast<int>(rng() % 4); step > 0 && p >= 0;
           --step) {
        const int64_t next = cursor.NextCandidate(depth, p);
        ASSERT_EQ(next, oracle_next(depth, p));
        p = next;
      }
      if (p < 0) continue;
      if (rng() % 4 != 0) bind_random(static_cast<int>(rng() % depth));
      ASSERT_EQ(cursor.NextCandidate(depth, p), oracle_next(depth, p))
          << "depth " << depth << " after re-bind";
      // An arbitrary position, not the window's, must also be answered.
      const uint64_t card = static_cast<uint64_t>(
          pq.cardinality(order[static_cast<size_t>(depth)]));
      const int64_t any = static_cast<int64_t>(rng() % card);
      ASSERT_EQ(cursor.NextCandidate(depth, any), oracle_next(depth, any));
    }
  }

  Catalog catalog_;
  UdfRegistry udfs_;
  VirtualClock clock_;
};

TEST_F(PreparedQueryTest, UnaryFilteringProducesPositions) {
  auto p = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.v >= 5");
  EXPECT_EQ(p.pq->cardinality(0), 5);  // v in 5..9
  EXPECT_EQ(p.pq->cardinality(1), 6);  // unfiltered
  EXPECT_EQ(p.pq->base_row(0, 0), 5);  // first surviving base row
  EXPECT_FALSE(p.pq->trivially_empty());
}

TEST_F(PreparedQueryTest, EmptyFilterShortCircuits) {
  auto p = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.v > 99");
  EXPECT_TRUE(p.pq->trivially_empty());
}

TEST_F(PreparedQueryTest, FalseConstantShortCircuits) {
  auto p = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND 1 = 2");
  EXPECT_TRUE(p.pq->trivially_empty());
}

TEST_F(PreparedQueryTest, HashIndexesOnBothSides) {
  auto p = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  EXPECT_NE(p.pq->index(0, 0), nullptr);
  EXPECT_NE(p.pq->index(1, 0), nullptr);
  EXPECT_EQ(p.pq->index(0, 1), nullptr);  // non-join column
}

TEST_F(PreparedQueryTest, IndexExcludesNulls) {
  auto p = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  const HashIndex* idx = p.pq->index(1, 0);
  ASSERT_NE(idx, nullptr);
  size_t total = 0;
  for (uint64_t key = 0; key < 4; ++key) total += idx->Find(key).size();
  EXPECT_EQ(total, 5u);  // 6 rows minus 1 NULL
}

TEST_F(PreparedQueryTest, IndexPostingsAscending) {
  auto p = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  const HashIndex* idx = p.pq->index(0, 0);
  ASSERT_NE(idx, nullptr);
  HashIndex::Postings postings = idx->Find(/*key=*/1);
  ASSERT_FALSE(postings.empty());
  for (size_t i = 1; i < postings.size(); ++i) {
    EXPECT_LT(postings[i - 1], postings[i]);
  }
}

TEST_F(PreparedQueryTest, NoIndexesWhenDisabled) {
  PrepareOptions opts;
  opts.build_hash_indexes = false;
  auto p = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k", opts);
  EXPECT_EQ(p.pq->index(0, 0), nullptr);
  EXPECT_EQ(p.pq->index(1, 0), nullptr);
}

TEST_F(PreparedQueryTest, ParallelMatchesSerial) {
  PrepareOptions par;
  par.width = 3;
  auto p1 = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.v >= 5");
  auto p2 = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.v >= 5",
                    par);
  ASSERT_EQ(p1.pq->cardinality(0), p2.pq->cardinality(0));
  for (int64_t i = 0; i < p1.pq->cardinality(0); ++i) {
    EXPECT_EQ(p1.pq->base_row(0, i), p2.pq->base_row(0, i));
  }
}

TEST_F(PreparedQueryTest, PreprocessCostCharged) {
  uint64_t before = clock_.now();
  auto p = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.v >= 5");
  EXPECT_GT(p.pq->preprocess_cost(), 0u);
  EXPECT_GE(clock_.now(), before + p.pq->preprocess_cost());
}

TEST(HashIndexBytesTest, SwissLayoutChargesSlotsTagsAndArenaExactly) {
  // bytes() promises the *exact* heap footprint: a Swiss-table index is
  // charged for exactly the probe table, the tag array, and the postings
  // arena. Mixed keys keep the index on the Swiss-table layout.
  constexpr size_t kPairs = 1000;
  Column col(DataType::kInt64);
  for (size_t i = 0; i < kPairs; ++i) {
    col.AppendInt(static_cast<int64_t>(HashMix64(i % 100)));
  }
  const HashIndex idx = testing::IndexOfColumn(col);
  ASSERT_FALSE(idx.direct());
  // A power-of-two slot table at <= 50% load over the pair count, one tag
  // byte per slot, plus one arena int per pair.
  // Slot = {uint64 key, uint32 offset, uint32 len}.
  size_t cap = 16;
  while (cap < kPairs * 2) cap <<= 1;
  constexpr size_t kSlotBytes = sizeof(uint64_t) + 2 * sizeof(uint32_t);
  EXPECT_EQ(idx.bytes(), cap * kSlotBytes + cap * sizeof(uint8_t) +
                             kPairs * sizeof(int32_t));
  EXPECT_EQ(idx.num_keys(), 100u);
  EXPECT_EQ(idx.num_slots(), cap);
  EXPECT_EQ(idx.num_postings(), kPairs);
}

TEST(HashIndexBytesTest, DirectLayoutChargesOffsetsAndArenaExactly) {
  // Dense keys (here -50 .. 49, with key 7's cells NULL) freeze into the
  // direct layout: span + 1 offsets and one arena int per indexed pair,
  // nothing else — no slots, no tags.
  constexpr size_t kPairs = 1000;
  Column col(DataType::kInt64);
  for (size_t i = 0; i < kPairs; ++i) {
    const int64_t key = static_cast<int64_t>(i % 100) - 50;
    if (key == 7) {
      col.AppendNull();
    } else {
      col.AppendInt(key);
    }
  }
  const HashIndex idx = testing::IndexOfColumn(col);
  ASSERT_TRUE(idx.direct());
  constexpr size_t kIndexed = kPairs - kPairs / 100;
  constexpr size_t kSpan = 100;
  EXPECT_EQ(idx.bytes(),
            (kSpan + 1) * sizeof(uint32_t) + kIndexed * sizeof(int32_t));
  EXPECT_EQ(idx.num_keys(), 99u);
  EXPECT_EQ(idx.num_slots(), 0u);
  EXPECT_EQ(idx.num_postings(), kIndexed);
  EXPECT_TRUE(idx.Find(7).empty());
  EXPECT_TRUE(idx.Find(static_cast<uint64_t>(int64_t{-51})).empty());
  EXPECT_TRUE(idx.Find(50).empty());
  const HashIndex::Postings lo = idx.Find(static_cast<uint64_t>(int64_t{-50}));
  ASSERT_EQ(lo.size(), kPairs / 100);
  for (size_t i = 0; i < lo.size(); ++i) {
    EXPECT_EQ(lo[i], static_cast<int32_t>(i * 100));
  }
}

TEST(HashIndexBytesTest, LayoutFollowsTheByteComparison) {
  // 100 pairs -> a 256-slot Swiss table of 256 * 17 bytes, i.e. room for
  // 1088 uint32 offsets: a span of 1087 keys still goes direct, 1088 not.
  for (const auto& [span, direct] :
       {std::pair<int64_t, bool>{1087, true}, {1088, false}}) {
    Column col(DataType::kInt64);
    for (int64_t i = 0; i < 99; ++i) col.AppendInt(i);
    col.AppendInt(span - 1);
    const HashIndex idx = testing::IndexOfColumn(col);
    EXPECT_EQ(idx.direct(), direct) << "span " << span;
    EXPECT_EQ(idx.Find(static_cast<uint64_t>(span - 1)).size(), 1u);
    EXPECT_EQ(idx.Find(98).size(), 1u);
    EXPECT_TRUE(idx.Find(static_cast<uint64_t>(span)).empty());
  }
}

TEST(HashIndexBytesTest, EmptyIndexHoldsNoHeap) {
  EXPECT_EQ(testing::IndexOfColumn(Column(DataType::kInt64)).bytes(), 0u);
  // Every cell NULL: no pair is indexed, so nothing is allocated either.
  Column nulls(DataType::kInt64);
  for (int i = 0; i < 10; ++i) nulls.AppendNull();
  const HashIndex idx = testing::IndexOfColumn(nulls);
  EXPECT_EQ(idx.bytes(), 0u);
  EXPECT_EQ(idx.num_postings(), 0u);
  EXPECT_TRUE(idx.Find(0).empty());
}

TEST_F(PreparedQueryTest, JoinKeyOfNormalizesTypes) {
  const Table* a = catalog_.FindTable("a");
  // Int column keys are the integers themselves: dense ids stay dense.
  for (int64_t r = 0; r < a->num_rows(); ++r) {
    EXPECT_EQ(JoinKeyOf(a->column(1), r), static_cast<uint64_t>(r));
  }
  Column ci(DataType::kInt64);
  Column cd(DataType::kDouble);
  for (int64_t v : {int64_t{-3}, int64_t{0}, int64_t{1} << 53,
                    (int64_t{1} << 60) + 1, INT64_MIN}) {
    ci.AppendInt(v);
    cd.AppendDouble(static_cast<double>(v));
  }
  // Integral doubles key as the integer (-0.0 as 0), matching int64 keys.
  for (int64_t r = 0; r < 3; ++r) {
    EXPECT_EQ(JoinKeyOf(cd, r), JoinKeyOf(ci, r));
    EXPECT_EQ(JoinKeyOf(ci, r), static_cast<uint64_t>(ci.GetInt(r)));
  }
  EXPECT_EQ(JoinKeyOf(cd, 4), JoinKeyOf(ci, 4));  // -2^63 is exact too
  // 2^60 + 1 rounds to 2^60 as a double: exact int64 keys stay apart.
  EXPECT_NE(JoinKeyOf(cd, 3), JoinKeyOf(ci, 3));
  cd.AppendDouble(-0.0);
  EXPECT_EQ(JoinKeyOf(cd, 5), 0u);
  // Fractional, out-of-range and infinite doubles take mixed keys whose
  // int64 magnitude is >= 2^62: never an integer in [-2^53, 2^53].
  for (double d : {0.5, -0.5, 1e-300, -2.5e-15, 1e19, -1e300,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    cd.AppendDouble(d);
    const int64_t k = static_cast<int64_t>(JoinKeyOf(cd, cd.size() - 1));
    EXPECT_TRUE(k <= -(int64_t{1} << 62) || k >= (int64_t{1} << 62)) << d;
  }
}

// The key contract, end to end: for every probed value, Find returns
// exactly the positions a brute-force EvalPredicate equality scan accepts
// — over dense and sparse ints, negatives, NULLs,
// doubles (signed zeros, fractions, denormals, huge values), int64 values
// beyond 2^53, strings, and int64-vs-double joins — and both frozen layouts
// occur among the indexes.
TEST_F(PreparedQueryTest, JoinKeysAndBothLayoutsMatchBruteForceEquality) {
  BuildMixedKeyTables();

  bool saw_direct = false;
  bool saw_swiss = false;
  const std::vector<std::pair<std::string, std::string>> joins = {
      {"dense", "dense"}, {"sparse", "sparse"}, {"big", "big"},
      {"bigdense", "bigdense"}, {"dbl", "dbl"}, {"ddense", "ddense"},
      {"str", "str"}, {"dense", "dbl"}, {"dense", "ddense"},
      {"sparse", "dbl"}};
  for (const auto& [x, y] : joins) {
    SCOPED_TRACE("t." + x + " = u." + y);
    auto p = Prepare("SELECT COUNT(*) FROM t, u WHERE t." + x + " = u." + y);
    ASSERT_EQ(p.info->equi_preds().size(), 1u);
    const Expr& eq = *p.info->equi_preds()[0].expr;
    const Table* tabs[2] = {p.pq->table(0), p.pq->table(1)};
    const int col_of[2] = {tabs[0]->schema().FindColumn(x),
                           tabs[1]->schema().FindColumn(y)};
    // Probe each side's index with every non-NULL value of the other side.
    for (int side = 0; side < 2; ++side) {
      const int other = 1 - side;
      const HashIndex* idx = p.pq->index(side, col_of[side]);
      ASSERT_NE(idx, nullptr);
      (idx->direct() ? saw_direct : saw_swiss) = true;
      const Column& probe_col = tabs[other]->column(col_of[other]);
      std::vector<uint64_t> keys;
      std::vector<int64_t> probe_rows;
      for (int64_t r = 0; r < p.pq->cardinality(other); ++r) {
        if (probe_col.IsNull(r)) continue;
        keys.push_back(JoinKeyOf(probe_col, r));
        probe_rows.push_back(r);
      }
      for (size_t i = 0; i < keys.size(); ++i) {
        std::vector<int32_t> expect;
        int64_t rows[2];
        rows[other] = probe_rows[i];
        for (int64_t pos = 0; pos < p.pq->cardinality(side); ++pos) {
          rows[side] = p.pq->base_row(side, pos);
          if (EvalPredicate(eq, p.pq->MakeEvalContext(rows))) {
            expect.push_back(static_cast<int32_t>(pos));
          }
        }
        const HashIndex::Postings found = idx->Find(keys[i]);
        EXPECT_EQ(std::vector<int32_t>(found.begin(), found.end()), expect)
            << "side " << side << " probe row " << probe_rows[i];
      }
    }
  }
  EXPECT_TRUE(saw_direct);
  EXPECT_TRUE(saw_swiss);
}

// JoinCursor reads every join key through the per-Prepare key views: the
// driving probe and the non-driving equality checks. In every join order
// its result over mixed-type key columns (NULLs, doubles against ints,
// strings, values beyond 2^53, Swiss-layout double keys, Zipf-long postings
// runs), after unary filters, must equal a brute-force EvalPredicate join
// over the filtered positions — and so must every engine built on it
// (forced order, Block, Reopt, Skinner-C at one and four workers).
// NextCandidate's postings window must also survive callers that re-bind a
// shallower depth without a fresh FirstCandidate.
TEST_F(PreparedQueryTest, JoinCursorOverKeyViewsMatchesBruteForceJoin) {
  BuildMixedKeyTables();
  BuildZipfTable();
  bool saw_swiss_driver = false;
  bool saw_long_run = false;
  for (const char* query :
       {"FROM t, u WHERE t.dense = u.dense AND t.dbl = u.ddense",
        "FROM t, u WHERE t.ddense = u.dense AND t.str = u.str AND "
        "t.big < u.big",
        "FROM t, u WHERE t.sparse = u.sparse AND t.bigdense = u.bigdense AND "
        "u.dense > -12",
        "FROM t, u WHERE t.dense = u.dbl AND t.ddense = u.ddense AND "
        "t.str <> u.str",
        "FROM t, u WHERE t.big = u.big AND t.dense = u.ddense AND "
        "t.sparse <> 0",
        // Swiss-layout double keys, and int against double on that layout.
        "FROM t, u WHERE t.dbl = u.dbl",
        "FROM t, u WHERE t.dbl = u.dense AND u.str <> 'q'",
        // Zipf-long postings runs, three tables (shallower re-binds).
        "FROM t, z, u WHERE t.dense = z.zk AND z.zk = u.dense",
        "FROM z, t, u WHERE z.zd = t.dbl AND z.zi = u.dense AND "
        "t.sparse <> 0",
        "FROM z a, z b WHERE a.zk = b.zk AND a.zd = b.zd",
        "FROM z a, u, z b WHERE a.zi = u.ddense AND u.dense = b.zk AND "
        "a.zk < b.zk"}) {
    SCOPED_TRACE(query);
    auto p = Prepare(std::string("SELECT COUNT(*) ") + query);
    const PreparedQuery& pq = *p.pq;
    const int m = pq.num_tables();
    const std::set<std::vector<int32_t>> expect = BruteForceJoin(*p.info, pq);
    EXPECT_FALSE(expect.empty());

    std::vector<int> order(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) order[static_cast<size_t>(i)] = i;
    do {
      SCOPED_TRACE("order " + OrderString(order));
      JoinCursor cursor(&pq, BuildJoinSteps(pq, order));
      // Every table joined to an earlier one by an equality is driven by
      // an index probe; any further equality is a Check against the views.
      for (int d = 1; d < m; ++d) {
        const JoinStep& step = cursor.steps()[static_cast<size_t>(d)];
        if (step.eq.empty()) continue;
        ASSERT_GE(step.driver, 0);
        const HashIndex* idx =
            step.eq[static_cast<size_t>(step.driver)].index;
        saw_swiss_driver = saw_swiss_driver || !idx->direct();
        for (int64_t pos = 0; pos < step.card && !saw_long_run; ++pos) {
          const JoinKeyView& keys =
              step.eq[static_cast<size_t>(step.driver)].this_keys;
          saw_long_run = !keys.IsNull(step.rows[pos]) &&
                         idx->Find(keys.Key(step.rows[pos])).size() >= 40;
        }
      }
      JoinState state;
      state.pos.assign(static_cast<size_t>(m), 0);
      MultiwayJoinSpec spec;
      spec.left_to = pq.cardinality(order[0]);
      VirtualClock clock;
      spec.clock = &clock;
      cursor.SetClock(&clock);
      JoinLoopStats stats;
      std::set<std::vector<int32_t>> got;
      size_t emitted = 0;
      const JoinLoopExit exit = MultiwayJoinLoop(
          &cursor, order, spec, &state, &stats,
          [&](const PosTuple& tuple) {
            ++emitted;
            got.insert(tuple);
          },
          [](int64_t) {});
      EXPECT_EQ(exit, JoinLoopExit::kCompleted);
      EXPECT_EQ(emitted, got.size()) << "duplicate result tuples";
      EXPECT_EQ(got, expect);

      CheckRebindsAgainstFreshProbes(pq, order);

      ResultSet forced(m);
      EXPECT_TRUE(ExecuteForcedOrder(pq, order, {}, &forced).completed);
      EXPECT_EQ(Rows(forced), expect) << "forced";
      ResultSet block(m);
      EXPECT_TRUE(ExecuteBlock(pq, order, {}, &block).completed);
      EXPECT_EQ(Rows(block), expect) << "block";
    } while (std::next_permutation(order.begin(), order.end()));

    for (int threads : {1, 4}) {
      SkinnerCOptions opts;
      opts.num_threads = threads;
      opts.slice_budget = 7;  // many suspensions and order switches
      SkinnerCEngine engine(&pq, opts);
      ResultSet out(m);
      ASSERT_TRUE(engine.Run(&out).ok());
      EXPECT_EQ(Rows(out), expect)
          << "skinner-c T=" << threads;
    }
    StatsManager stats_mgr;
    Estimator estimator(&stats_mgr);
    ReoptEngine reopt(&pq, &estimator, ReoptOptions{});
    ResultSet out(m);
    ASSERT_TRUE(reopt.Run(&out).ok());
    EXPECT_EQ(Rows(out), expect) << "reopt";
  }
  EXPECT_TRUE(saw_swiss_driver);
  EXPECT_TRUE(saw_long_run);
}

}  // namespace
}  // namespace skinner
