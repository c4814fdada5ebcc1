// Property tests for the batched HashIndex probe path: FindBatch() must
// be exactly equivalent to the single-key Find() — same Postings view
// (identical arena pointer and count) for every key. Both walk the same
// linear probe sequence and stop at the same first-empty tag, so
// equivalence is by construction; these tests pin that construction
// against regressions, including the adversarial layouts: forced bucket
// collisions (long probe chains), absent keys that share a chain with
// present ones, near-full tables at the maximum load factor, and batch
// sizes around and below the prefetch pipeline's depth.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "common/hash_util.h"
#include "exec/prepared_query.h"

namespace skinner {
namespace {

/// FindBatch(probes) must return, slot for slot, what Find returns.
void ExpectBatchEqualsFind(const HashIndex& idx,
                           const std::vector<uint64_t>& probes) {
  std::vector<HashIndex::Postings> out(probes.size());
  idx.FindBatch(probes.data(), probes.size(), out.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    HashIndex::Postings expect = idx.Find(probes[i]);
    EXPECT_EQ(out[i].data, expect.data) << "probe[" << i << "]=" << probes[i];
    EXPECT_EQ(out[i].count, expect.count)
        << "probe[" << i << "]=" << probes[i];
  }
}

TEST(BatchProbeTest, RandomizedKeysWithDuplicatesAndAbsentProbes) {
  std::mt19937_64 rng(20260808);
  HashIndex idx;
  std::vector<uint64_t> present;
  // ~5000 pairs over ~2000 distinct keys: plenty of multi-posting runs.
  for (int32_t pos = 0; pos < 5000; ++pos) {
    uint64_t key = rng() % 2000 * 0x9E3779B97F4A7C15ull;
    idx.Add(key, pos);
    present.push_back(key);
  }
  idx.Build();

  std::vector<uint64_t> probes = present;
  for (int i = 0; i < 1000; ++i) probes.push_back(rng());  // almost surely absent
  std::shuffle(probes.begin(), probes.end(), rng);
  probes.resize(4097);  // odd size: the pipeline's tail drains unevenly
  ExpectBatchEqualsFind(idx, probes);
}

TEST(BatchProbeTest, ForcedBucketCollisionsBuildLongProbeChains) {
  // 24 distinct keys staged twice each -> 48 pairs -> capacity 128 (the
  // next power of two >= 2x48). Pick every key so its hash lands in ONE
  // bucket of that table: insertion builds a 24-slot linear probe chain,
  // and each probe must walk it past many rejected tags.
  constexpr size_t kCap = 128;
  constexpr uint64_t kBucket = 5;
  std::vector<uint64_t> colliders;
  std::vector<uint64_t> absent_same_bucket;
  for (uint64_t k = 0; colliders.size() < 24 || absent_same_bucket.size() < 8;
       ++k) {
    ASSERT_LT(k, 10'000'000u) << "collision search runaway";
    if ((HashMix64(k) & (kCap - 1)) != kBucket) continue;
    if (colliders.size() < 24) {
      colliders.push_back(k);
    } else {
      absent_same_bucket.push_back(k);  // walks the full chain to empty
    }
  }

  HashIndex idx;
  int32_t pos = 0;
  for (uint64_t k : colliders) idx.Add(k, pos++);
  for (uint64_t k : colliders) idx.Add(k, pos++);
  idx.Build();
  ASSERT_EQ(idx.num_slots(), kCap);
  ASSERT_EQ(idx.num_keys(), colliders.size());

  std::vector<uint64_t> probes = colliders;
  probes.insert(probes.end(), absent_same_bucket.begin(),
                absent_same_bucket.end());
  ExpectBatchEqualsFind(idx, probes);
  for (uint64_t k : colliders) EXPECT_EQ(idx.Find(k).size(), 2u);
  for (uint64_t k : absent_same_bucket) EXPECT_TRUE(idx.Find(k).empty());
}

TEST(BatchProbeTest, NearFullTableAtMaxLoadFactor) {
  // 1024 distinct keys -> capacity exactly 2048: the table sits at the
  // kMaxLoadPercent ceiling, the worst case for chain lengths.
  constexpr int32_t kKeys = 1024;
  HashIndex idx;
  std::vector<uint64_t> probes;
  for (int32_t i = 0; i < kKeys; ++i) {
    uint64_t key = static_cast<uint64_t>(i) * 0x2545F4914F6CDD1Dull + 1;
    idx.Add(key, i);
    probes.push_back(key);
    probes.push_back(key + 1);  // interleave (almost surely) absent keys
  }
  idx.Build();
  ASSERT_EQ(idx.num_slots(), 2048u);
  ASSERT_EQ(idx.num_keys(), static_cast<size_t>(kKeys));
  EXPECT_LE(idx.num_keys() * 100, idx.num_slots() * HashIndex::kMaxLoadPercent);
  ExpectBatchEqualsFind(idx, probes);
}

TEST(BatchProbeTest, EmptyIndexAndDegenerateBatchSizes) {
  HashIndex empty;
  empty.Build();
  std::vector<uint64_t> keys = {0, 1, 0xFFFFFFFFFFFFFFFFull};
  std::vector<HashIndex::Postings> out(keys.size(),
                                       HashIndex::Postings{nullptr, 99});
  empty.FindBatch(keys.data(), keys.size(), out.data());
  for (const auto& p : out) {
    EXPECT_EQ(p.data, nullptr);
    EXPECT_EQ(p.count, 0u);
  }

  HashIndex idx;
  for (int32_t i = 0; i < 100; ++i) idx.Add(static_cast<uint64_t>(i), i);
  idx.Build();
  std::vector<uint64_t> probes;
  for (uint64_t i = 0; i < 33; ++i) probes.push_back(i * 7 % 120);
  // Degenerate and short batches, including zero and sizes around the
  // prefetch distance (32).
  for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{17},
                   size_t{33}}) {
    std::vector<HashIndex::Postings> got(n);
    idx.FindBatch(probes.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) {
      HashIndex::Postings expect = idx.Find(probes[i]);
      EXPECT_EQ(got[i].data, expect.data) << "n=" << n << " i=" << i;
      EXPECT_EQ(got[i].count, expect.count) << "n=" << n << " i=" << i;
    }
  }
}

TEST(BatchProbeTest, PostingsStayAscendingThroughBatchPath) {
  HashIndex idx;
  for (int32_t pos = 0; pos < 300; ++pos) {
    idx.Add(static_cast<uint64_t>(pos % 7), pos);
  }
  idx.Build();
  std::vector<uint64_t> probes = {0, 1, 2, 3, 4, 5, 6};
  std::vector<HashIndex::Postings> out(probes.size());
  idx.FindBatch(probes.data(), probes.size(), out.data());
  for (const auto& p : out) {
    ASSERT_FALSE(p.empty());
    for (size_t i = 1; i < p.size(); ++i) EXPECT_LT(p[i - 1], p[i]);
  }
}

}  // namespace
}  // namespace skinner
