// Property tests for the batched HashIndex probe path: FindBatch() must
// be exactly equivalent to the single-key Find() — same Postings view
// (identical arena pointer and count) for every key, on both frozen
// layouts. On the Swiss table both walk the same linear probe sequence
// and stop at the same first-empty tag; on the direct-address layout both
// read the same offsets pair. Equivalence is by construction; these tests
// pin that construction against regressions, including the adversarial
// layouts: forced bucket collisions (long probe chains), absent keys that
// share a chain with present ones, near-full tables at the maximum load
// factor, keys just outside a direct span, and batch sizes around and
// below the prefetch pipeline's depth. Tests meant for the Swiss table
// stage HashMix64-scrambled keys, since small consecutive keys freeze
// into the direct layout.

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
  ASSERT_FALSE(idx.direct());
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

  // Both layouts over 100 keys: scrambled (Swiss) and consecutive
  // (direct). Probes cover present keys and, for the direct index, keys
  // just below and above its span.
  for (const bool dense : {false, true}) {
    SCOPED_TRACE(dense ? "direct layout" : "Swiss layout");
    const auto key_of = [dense](uint64_t i) {
      return dense ? i : HashMix64(i);
    };
    HashIndex idx;
    for (int32_t i = 0; i < 100; ++i) {
      idx.Add(key_of(static_cast<uint64_t>(i)), i);
    }
    idx.Build();
    ASSERT_EQ(idx.direct(), dense);
    std::vector<uint64_t> probes;
    for (uint64_t i = 0; i < 33; ++i) probes.push_back(key_of(i * 7 % 120));
    probes[1] = ~uint64_t{0};  // -1: just below a direct span at 0
    // Degenerate and short batches, including zero and sizes around the
    // prefetch distance (32).
    for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                     size_t{17}, size_t{33}}) {
      std::vector<HashIndex::Postings> got(n);
      idx.FindBatch(probes.data(), n, got.data());
      for (size_t i = 0; i < n; ++i) {
        HashIndex::Postings expect = idx.Find(probes[i]);
        EXPECT_EQ(got[i].data, expect.data) << "n=" << n << " i=" << i;
        EXPECT_EQ(got[i].count, expect.count) << "n=" << n << " i=" << i;
      }
    }
    EXPECT_TRUE(idx.Find(key_of(100)).empty());
    EXPECT_TRUE(idx.Find(~uint64_t{0}).empty());
  }
}

TEST(BatchProbeTest, PostingsStayAscendingThroughBatchPath) {
  for (const bool dense : {false, true}) {
    SCOPED_TRACE(dense ? "direct layout" : "Swiss layout");
    const auto key_of = [dense](uint64_t i) {
      return dense ? i : HashMix64(i);
    };
    HashIndex idx;
    for (int32_t pos = 0; pos < 300; ++pos) {
      idx.Add(key_of(static_cast<uint64_t>(pos % 7)), pos);
    }
    idx.Build();
    ASSERT_EQ(idx.direct(), dense);
    std::vector<uint64_t> probes;
    for (uint64_t i = 0; i < 7; ++i) probes.push_back(key_of(i));
    std::vector<HashIndex::Postings> out(probes.size());
    idx.FindBatch(probes.data(), probes.size(), out.data());
    for (const auto& p : out) {
      ASSERT_FALSE(p.empty());
      for (size_t i = 1; i < p.size(); ++i) EXPECT_LT(p[i - 1], p[i]);
    }
  }
}

TEST(BatchProbeTest, DirectLayoutRandomizedWithGapsAndNegativeKeys) {
  // A dense signed key range [-500, 500) with every third key absent and
  // uneven runs, probed with present keys, absent keys inside the span and
  // keys beyond both ends (wrapping to huge unsigned offsets).
  std::mt19937_64 rng(20261017);
  HashIndex idx;
  std::vector<uint64_t> probes;
  std::vector<size_t> runs(1200, 0);  // run length of key - 600
  for (int32_t pos = 0; pos < 6000; ++pos) {
    int64_t key = static_cast<int64_t>(rng() % 1000) - 500;
    if (key % 3 == 0) ++key;
    idx.Add(static_cast<uint64_t>(key), pos);
    ++runs[static_cast<size_t>(key + 600)];
  }
  idx.Build();
  ASSERT_TRUE(idx.direct());
  for (int64_t key = -600; key < 600; ++key) {
    probes.push_back(static_cast<uint64_t>(key));
  }
  for (int i = 0; i < 200; ++i) probes.push_back(rng());
  std::shuffle(probes.begin(), probes.end(), rng);
  ExpectBatchEqualsFind(idx, probes);
  for (int64_t key = -600; key < 600; ++key) {
    EXPECT_EQ(idx.Find(static_cast<uint64_t>(key)).size(),
              runs[static_cast<size_t>(key + 600)])
        << key;
  }
}

}  // namespace
}  // namespace skinner
