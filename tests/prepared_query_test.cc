#include "exec/prepared_query.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

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
  for (int key = 0; key < 4; ++key) {
    double d = key;
    uint64_t bits;
    memcpy(&bits, &d, sizeof(d));
    total += idx->Find(bits).size();
  }
  EXPECT_EQ(total, 5u);  // 6 rows minus 1 NULL
}

TEST_F(PreparedQueryTest, IndexPostingsAscending) {
  auto p = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  const HashIndex* idx = p.pq->index(0, 0);
  ASSERT_NE(idx, nullptr);
  double d = 1.0;
  uint64_t bits;
  memcpy(&bits, &d, sizeof(d));
  HashIndex::Postings postings = idx->Find(bits);
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
  par.parallel = true;
  par.num_threads = 3;
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

TEST(HashIndexBytesTest, BuildReleasesTheStagingBlocksExactly) {
  // bytes() promises the *exact* heap footprint. Before Build() the
  // staging blocks dominate; Build() releases them, so the frozen index is
  // charged for exactly the probe table, the tag array (capacity plus one
  // mirrored group), and the postings arena.
  constexpr size_t kPairs = 1000;
  constexpr size_t kStagedPairBytes = sizeof(std::pair<uint64_t, int32_t>);
  HashIndex idx;
  for (size_t i = 0; i < kPairs; ++i) {
    idx.Add(/*key=*/i % 100, /*pos=*/static_cast<int32_t>(i));
  }
  EXPECT_GE(idx.bytes(), kPairs * kStagedPairBytes);  // staging dominates

  idx.Build();
  // Frozen layout: a power-of-two slot table at <= 50% load over the
  // staged pair count, one tag byte per slot, plus one arena int per
  // staged pair — and zero staging bytes.
  // Slot = {uint64 key, uint32 offset, uint32 len}.
  size_t cap = 16;
  while (cap < kPairs * 2) cap <<= 1;
  constexpr size_t kSlotBytes = sizeof(uint64_t) + 2 * sizeof(uint32_t);
  EXPECT_EQ(idx.bytes(), cap * kSlotBytes + cap * sizeof(uint8_t) +
                             kPairs * sizeof(int32_t));
  EXPECT_EQ(idx.num_keys(), 100u);
  EXPECT_EQ(idx.num_slots(), cap);
}

TEST(HashIndexBytesTest, EmptyBuildHoldsNoHeap) {
  HashIndex idx;
  idx.Build();
  EXPECT_EQ(idx.bytes(), 0u);
}

TEST_F(PreparedQueryTest, JoinKeyOfNormalizesTypes) {
  const Table* a = catalog_.FindTable("a");
  // Int column keys equal their double-bit representation.
  uint64_t k = JoinKeyOf(a->column(0), 0);
  double expect = static_cast<double>(a->column(0).GetInt(0));
  uint64_t bits;
  memcpy(&bits, &expect, sizeof(expect));
  EXPECT_EQ(k, bits);
}

}  // namespace
}  // namespace skinner
