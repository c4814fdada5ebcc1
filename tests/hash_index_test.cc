// Property tests for the HashIndex probe path: Find() must return exactly
// the ascending positions a std::map ground truth holds for every probed
// key, on both frozen layouts, including the adversarial ones: forced
// home-slot and tag collisions (long probe chains), absent keys that
// share a chain with present ones, tables at the maximum load factor,
// tiny tables around the minimum capacity, runs with duplicates, and a
// direct layout with gaps, negative keys and keys just outside its span.
// Indexes are built from int64 columns over identity rows (position p
// carries row p's key). Tests meant for the Swiss table index
// HashMix64-scrambled keys, since small consecutive keys freeze into the
// direct layout.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "common/hash_util.h"
#include "exec/prepared_query.h"
#include "test_util.h"

namespace skinner {
namespace {

using testing::IndexOfColumn;

/// Key -> ascending positions: what the index must return.
using Truth = std::map<uint64_t, std::vector<int32_t>>;

/// An int64 column of `keys` (read as int64) and its ground truth.
Column KeysColumn(const std::vector<uint64_t>& keys, Truth* truth) {
  Column col(DataType::kInt64);
  for (size_t p = 0; p < keys.size(); ++p) {
    col.AppendInt(static_cast<int64_t>(keys[p]));
    (*truth)[keys[p]].push_back(static_cast<int32_t>(p));
  }
  return col;
}

/// Find(probe) must return the truth's run for every probe (empty when
/// absent), and the index must hold exactly the truth's keys.
void ExpectMatchesTruth(const HashIndex& idx, const Truth& truth,
                        const std::vector<uint64_t>& probes) {
  EXPECT_EQ(idx.num_keys(), truth.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    const HashIndex::Postings got = idx.Find(probes[i]);
    const auto it = truth.find(probes[i]);
    if (it == truth.end()) {
      EXPECT_TRUE(got.empty()) << "probe[" << i << "]=" << probes[i];
      continue;
    }
    EXPECT_EQ(std::vector<int32_t>(got.begin(), got.end()), it->second)
        << "probe[" << i << "]=" << probes[i];
  }
}

TEST(HashIndexProbeTest, RandomizedKeysWithDuplicatesAndAbsentProbes) {
  std::mt19937_64 rng(20260808);
  std::vector<uint64_t> keys;
  // ~5000 pairs over ~2000 distinct keys: plenty of multi-posting runs.
  for (int32_t pos = 0; pos < 5000; ++pos) {
    keys.push_back(rng() % 2000 * 0x9E3779B97F4A7C15ull);
  }
  Truth truth;
  const HashIndex idx = IndexOfColumn(KeysColumn(keys, &truth));
  ASSERT_FALSE(idx.direct());

  std::vector<uint64_t> probes = keys;
  for (int i = 0; i < 1000; ++i) probes.push_back(rng());  // almost surely absent
  std::shuffle(probes.begin(), probes.end(), rng);
  probes.resize(4097);
  ExpectMatchesTruth(idx, truth, probes);
}

TEST(HashIndexProbeTest, ForcedBucketCollisionsBuildLongProbeChains) {
  // 24 distinct keys indexed twice each -> 48 pairs -> capacity 128 (the
  // next power of two >= 2x48). Pick every key so its hash lands in ONE
  // home slot of that table: insertion builds a 24-slot linear probe
  // chain, and each probe must walk it past many rejected tags.
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
  std::vector<uint64_t> keys = colliders;
  keys.insert(keys.end(), colliders.begin(), colliders.end());

  Truth truth;
  const HashIndex idx = IndexOfColumn(KeysColumn(keys, &truth));
  ASSERT_FALSE(idx.direct());
  ASSERT_EQ(idx.num_slots(), kCap);
  ASSERT_EQ(idx.num_keys(), colliders.size());

  std::vector<uint64_t> probes = colliders;
  probes.insert(probes.end(), absent_same_bucket.begin(),
                absent_same_bucket.end());
  ExpectMatchesTruth(idx, truth, probes);
  for (uint64_t k : colliders) EXPECT_EQ(idx.Find(k).size(), 2u);
  for (uint64_t k : absent_same_bucket) EXPECT_TRUE(idx.Find(k).empty());
}

TEST(HashIndexProbeTest, NearFullTableAtMaxLoadFactor) {
  // 1024 distinct keys -> capacity exactly 2048: the table sits at the
  // kMaxLoadPercent ceiling, the worst case for chain lengths.
  constexpr int32_t kKeys = 1024;
  std::vector<uint64_t> keys;
  std::vector<uint64_t> probes;
  for (int32_t i = 0; i < kKeys; ++i) {
    const uint64_t key = static_cast<uint64_t>(i) * 0x2545F4914F6CDD1Dull + 1;
    keys.push_back(key);
    probes.push_back(key);
    probes.push_back(key + 1);  // interleave (almost surely) absent keys
  }
  Truth truth;
  const HashIndex idx = IndexOfColumn(KeysColumn(keys, &truth));
  ASSERT_EQ(idx.num_slots(), 2048u);
  ASSERT_EQ(idx.num_keys(), static_cast<size_t>(kKeys));
  EXPECT_LE(idx.num_keys() * 100, idx.num_slots() * HashIndex::kMaxLoadPercent);
  ExpectMatchesTruth(idx, truth, probes);
}

TEST(HashIndexProbeTest, EmptyAndTinyIndexes) {
  const HashIndex empty = IndexOfColumn(Column(DataType::kInt64));
  EXPECT_EQ(empty.bytes(), 0u);
  for (uint64_t key : {uint64_t{0}, uint64_t{1}, ~uint64_t{0}}) {
    const HashIndex::Postings p = empty.Find(key);
    EXPECT_EQ(p.data, nullptr);
    EXPECT_EQ(p.count, 0u);
  }

  // Both layouts: scrambled keys (Swiss) and consecutive keys (direct),
  // indexed over the first n of 100 keys for n around the minimum table
  // capacity (16 slots). Probes cover present keys, absent keys and, for
  // the direct layout, keys just below and above the span.
  for (const bool dense : {false, true}) {
    SCOPED_TRACE(dense ? "direct layout" : "Swiss layout");
    const auto key_of = [dense](uint64_t i) {
      return dense ? i : HashMix64(i);
    };
    std::vector<uint64_t> probes;
    for (uint64_t i = 0; i < 33; ++i) probes.push_back(key_of(i * 7 % 120));
    probes[1] = ~uint64_t{0};  // -1: just below a direct span at 0
    for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                     size_t{17}, size_t{33}, size_t{100}}) {
      SCOPED_TRACE("n=" + std::to_string(n));
      std::vector<uint64_t> keys;
      for (uint64_t i = 0; i < n; ++i) keys.push_back(key_of(i));
      Truth truth;
      const HashIndex idx = IndexOfColumn(KeysColumn(keys, &truth));
      if (n == 100) {
        ASSERT_EQ(idx.direct(), dense);
      }
      ExpectMatchesTruth(idx, truth, probes);
      EXPECT_TRUE(idx.Find(key_of(100)).empty());
      EXPECT_TRUE(idx.Find(~uint64_t{0}).empty());
    }
  }
}

TEST(HashIndexProbeTest, PostingsStayAscending) {
  for (const bool dense : {false, true}) {
    SCOPED_TRACE(dense ? "direct layout" : "Swiss layout");
    const auto key_of = [dense](uint64_t i) {
      return dense ? i : HashMix64(i);
    };
    std::vector<uint64_t> keys;
    for (uint64_t pos = 0; pos < 300; ++pos) keys.push_back(key_of(pos % 7));
    Truth truth;
    const HashIndex idx = IndexOfColumn(KeysColumn(keys, &truth));
    ASSERT_EQ(idx.direct(), dense);
    std::vector<uint64_t> probes;
    for (uint64_t i = 0; i < 7; ++i) probes.push_back(key_of(i));
    ExpectMatchesTruth(idx, truth, probes);
    for (uint64_t key : probes) {
      const HashIndex::Postings p = idx.Find(key);
      ASSERT_FALSE(p.empty());
      for (size_t i = 1; i < p.size(); ++i) EXPECT_LT(p[i - 1], p[i]);
    }
  }
}

TEST(HashIndexProbeTest, DirectLayoutRandomizedWithGapsAndNegativeKeys) {
  // A dense signed key range [-500, 500) with every third key absent and
  // uneven runs, probed with present keys, absent keys inside the span and
  // keys beyond both ends (wrapping to huge unsigned offsets).
  std::mt19937_64 rng(20261017);
  std::vector<uint64_t> keys;
  for (int32_t pos = 0; pos < 6000; ++pos) {
    int64_t key = static_cast<int64_t>(rng() % 1000) - 500;
    if (key % 3 == 0) ++key;
    keys.push_back(static_cast<uint64_t>(key));
  }
  Truth truth;
  const HashIndex idx = IndexOfColumn(KeysColumn(keys, &truth));
  ASSERT_TRUE(idx.direct());
  std::vector<uint64_t> probes;
  for (int64_t key = -600; key < 600; ++key) {
    probes.push_back(static_cast<uint64_t>(key));
  }
  for (int i = 0; i < 200; ++i) probes.push_back(rng());
  std::shuffle(probes.begin(), probes.end(), rng);
  ExpectMatchesTruth(idx, truth, probes);
}

}  // namespace
}  // namespace skinner
