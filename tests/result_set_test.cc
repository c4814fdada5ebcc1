#include "exec/result_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <memory>

#include "common/rng.h"

namespace skinner {
namespace {

/// The canonical export MergeSortedUnique must reproduce: every tuple of
/// every part, comparison-sorted, adjacent duplicates dropped.
std::vector<PosTuple> Reference(const std::vector<const ResultSet*>& parts) {
  std::vector<PosTuple> all;
  for (const ResultSet* p : parts) {
    std::vector<PosTuple> v = p->ToVector();
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

std::vector<PosTuple> Merge(const std::vector<const ResultSet*>& parts,
                            int width) {
  ResultSet out(width);
  ResultSet::MergeSortedUnique(parts, &out);
  EXPECT_EQ(out.size(), out.ToVector().size());
  return out.ToVector();
}

std::vector<const ResultSet*> Views(
    const std::vector<std::unique_ptr<ResultSet>>& parts) {
  std::vector<const ResultSet*> views;
  for (const auto& p : parts) views.push_back(p.get());
  return views;
}

/// Random parts whose column values are drawn from [lo, hi]; a narrow
/// range makes duplicates within and across parts likely.
std::vector<std::unique_ptr<ResultSet>> RandomParts(Rng* rng, int width,
                                                    int num_parts,
                                                    size_t max_rows,
                                                    int64_t lo, int64_t hi) {
  std::vector<std::unique_ptr<ResultSet>> parts;
  PosTuple t(static_cast<size_t>(width));
  for (int p = 0; p < num_parts; ++p) {
    parts.push_back(std::make_unique<ResultSet>(width));
    const size_t rows = rng->Uniform(max_rows + 1);
    for (size_t r = 0; r < rows; ++r) {
      for (int32_t& v : t) v = static_cast<int32_t>(rng->Range(lo, hi));
      parts.back()->Append(t);
    }
  }
  return parts;
}

TEST(ResultSetTest, AppendKeepsOrderAndCountsDuplicates) {
  ResultSet rs(2);
  EXPECT_EQ(rs.size(), 0u);
  rs.Append(PosTuple{3, 1});
  rs.Append(PosTuple{0, 2});
  rs.Append(PosTuple{3, 1});
  EXPECT_EQ(rs.size(), 3u);
  EXPECT_GE(rs.bytes(), 3 * 2 * sizeof(int32_t));
  EXPECT_EQ(rs.ToVector(),
            (std::vector<PosTuple>{{3, 1}, {0, 2}, {3, 1}}));
}

TEST(ResultSetTest, RandomWidthsMatchReference) {
  Rng rng(7);
  for (int width = 1; width <= 12; ++width) {
    for (int round = 0; round < 6; ++round) {
      // Alternate narrow domains (many duplicates, few radix passes) with
      // wide ones (many passes, mostly distinct tuples).
      const int64_t hi = round % 2 == 0 ? 3 : 100000;
      auto parts = RandomParts(&rng, width, 1 + static_cast<int>(round % 4),
                               400, 0, hi);
      auto views = Views(parts);
      EXPECT_EQ(Merge(views, width), Reference(views))
          << "width " << width << " round " << round;
    }
  }
}

TEST(ResultSetTest, KeysWiderThan64And128Bits) {
  Rng rng(11);
  // 31 bits per column: 3 columns need 93 key bits, 5 need 155.
  for (int width : {3, 5, 9}) {
    auto parts = RandomParts(&rng, width, 3, 300, 0, INT32_MAX);
    PosTuple t(static_cast<size_t>(width));
    for (size_t c = 0; c < t.size(); ++c) {
      t[c] = c % 2 == 0 ? INT32_MAX : INT32_MAX - 1;
    }
    parts[0]->Append(t);
    parts[2]->Append(t);
    std::fill(t.begin(), t.end(), 0);
    parts[1]->Append(t);
    // Near INT32_MAX, where the packed columns straddle key words.
    for (int r = 0; r < 200; ++r) {
      for (int32_t& v : t) {
        v = static_cast<int32_t>(rng.Range(INT32_MAX - 3, INT32_MAX));
      }
      parts[static_cast<size_t>(r % 3)]->Append(t);
    }
    auto views = Views(parts);
    EXPECT_EQ(Merge(views, width), Reference(views)) << "width " << width;
  }
}

TEST(ResultSetTest, NegativeValuesSortAsSignedInts) {
  Rng rng(13);
  auto parts = RandomParts(&rng, 4, 2, 300, INT32_MIN, INT32_MAX);
  parts[0]->Append(PosTuple{INT32_MIN, -1, 0, INT32_MAX});
  parts[1]->Append(PosTuple{INT32_MIN, -1, 0, INT32_MAX});
  auto views = Views(parts);
  EXPECT_EQ(Merge(views, 4), Reference(views));
}

TEST(ResultSetTest, DuplicatesWithinAndAcrossParts) {
  ResultSet a(3);
  ResultSet b(3);
  for (int i = 0; i < 3; ++i) a.Append(PosTuple{1, 2, 3});
  a.Append(PosTuple{0, 9, 9});
  b.Append(PosTuple{1, 2, 3});
  b.Append(PosTuple{0, 9, 8});
  b.Append(PosTuple{0, 9, 9});
  EXPECT_EQ(Merge({&a, &b}, 3),
            (std::vector<PosTuple>{{0, 9, 8}, {0, 9, 9}, {1, 2, 3}}));
}

TEST(ResultSetTest, EmptyPartsAndSingleTuple) {
  ResultSet empty(2);
  ResultSet one(2);
  one.Append(PosTuple{5, 7});
  EXPECT_TRUE(Merge({}, 2).empty());
  EXPECT_TRUE(Merge({&empty, &empty}, 2).empty());
  EXPECT_EQ(Merge({&empty, &one, &empty}, 2),
            (std::vector<PosTuple>{{5, 7}}));
}

TEST(ResultSetTest, MergeAppendsAfterExistingTuples) {
  ResultSet part(2);
  part.Append(PosTuple{4, 4});
  part.Append(PosTuple{1, 1});
  part.Append(PosTuple{4, 4});
  ResultSet out(2);
  out.Append(PosTuple{9, 9});
  ResultSet::MergeSortedUnique({&part}, &out);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out.ToVector(),
            (std::vector<PosTuple>{{9, 9}, {1, 1}, {4, 4}}));
  ResultSet empty(2);
  ResultSet::MergeSortedUnique({&empty}, &out);
  EXPECT_EQ(out.size(), 3u);
}

// ---- The cardinality (query pipeline) layout ----

ResultSet Layout(const std::vector<int64_t>& cards) { return ResultSet(cards); }

/// Random parts in `layout`, column c drawn from [0, cards[c]); about
/// `reemit_pct` percent of the tuples repeat an earlier tuple, placed in a
/// random part (re-emits within and across parts).
std::vector<std::unique_ptr<ResultSet>> RandomPositionParts(
    Rng* rng, const ResultSet& layout, const std::vector<int64_t>& cards,
    int num_parts, size_t rows, uint64_t reemit_pct) {
  std::vector<std::unique_ptr<ResultSet>> parts;
  for (int p = 0; p < num_parts; ++p) {
    parts.push_back(std::make_unique<ResultSet>(layout.EmptyLike()));
  }
  std::vector<PosTuple> emitted;
  PosTuple t(cards.size());
  for (size_t r = 0; r < rows; ++r) {
    if (!emitted.empty() && rng->Uniform(100) < reemit_pct) {
      t = emitted[rng->Uniform(emitted.size())];
    } else {
      for (size_t c = 0; c < cards.size(); ++c) {
        t[c] = static_cast<int32_t>(rng->Uniform(
            static_cast<uint64_t>(std::max<int64_t>(cards[c], 1))));
      }
    }
    emitted.push_back(t);
    parts[rng->Uniform(parts.size())]->Append(t);
  }
  return parts;
}

std::vector<PosTuple> MergeInto(const std::vector<const ResultSet*>& parts,
                                const ResultSet& layout) {
  ResultSet out = layout.EmptyLike();
  ResultSet::MergeSortedUnique(parts, &out);
  EXPECT_EQ(out.size(), out.ToVector().size());
  return out.ToVector();
}

TEST(ResultSetLayoutTest, FieldWidthsFollowCardinalities) {
  // bit_width(card - 1) bits per column; cardinalities 0 and 1 take none.
  EXPECT_EQ(Layout({2, 2, 2}).key_words(), 1u);               // 3 bits
  EXPECT_EQ(Layout({int64_t{1} << 20, 3, 1, 0}).key_words(),  // 22 bits
            1u);
  EXPECT_EQ(Layout({int64_t{1} << 31, int64_t{1} << 31, 2, 2})  // 64 bits
                .key_words(),
            1u);
  EXPECT_EQ(Layout({int64_t{1} << 31, int64_t{1} << 31, 2, 2, 2})
                .key_words(),
            2u);  // 65 bits
  EXPECT_EQ(Layout(std::vector<int64_t>(12, 2049)).key_words(),
            3u);  // 12 x 12 = 144 bits
  EXPECT_EQ(Layout(std::vector<int64_t>(12, int64_t{1} << 17)).key_words(),
            4u);  // 12 x 17 = 204 bits
  EXPECT_EQ(ResultSet(4).key_words(), 2u);  // 4 x 32 sign-biased bits
  EXPECT_EQ(ResultSet(0).key_words(), 1u);
}

TEST(ResultSetLayoutTest, ZeroBitFieldsRoundTrip) {
  // Every column of cardinality 1: no key bits at all, so every tuple is
  // the same key and the export keeps exactly one.
  ResultSet none = Layout({1, 1, 1});
  EXPECT_EQ(none.key_words(), 1u);
  for (int i = 0; i < 5; ++i) none.Append(PosTuple{0, 0, 0});
  EXPECT_EQ(none.ToVector(), std::vector<PosTuple>(5, PosTuple{0, 0, 0}));
  EXPECT_EQ(MergeInto({&none}, none), (std::vector<PosTuple>{{0, 0, 0}}));

  // 0-bit columns between wide ones.
  ResultSet mixed = Layout({1, 1000, 1, 70000, 1});
  mixed.Append(PosTuple{0, 999, 0, 69999, 0});
  mixed.Append(PosTuple{0, 0, 0, 1, 0});
  mixed.Append(PosTuple{0, 999, 0, 69999, 0});
  EXPECT_EQ(mixed.ToVector(), (std::vector<PosTuple>{{0, 999, 0, 69999, 0},
                                                     {0, 0, 0, 1, 0},
                                                     {0, 999, 0, 69999, 0}}));
  EXPECT_EQ(MergeInto({&mixed}, mixed),
            (std::vector<PosTuple>{{0, 0, 0, 1, 0}, {0, 999, 0, 69999, 0}}));
}

TEST(ResultSetLayoutTest, OneToSixWordKeysMatchReference) {
  // 1- to 4-word keys (each sorted as a fixed-size value) and a 6-word key
  // (word count known only at run time); the last three are 12-table
  // layouts of more than 128 bits. Fields straddle word boundaries at
  // every width.
  const std::vector<std::vector<int64_t>> layouts = {
      {7, 100, 5000, 3},                                   // 1 word
      {int64_t{1} << 20, 1 << 17, 1 << 19, 9, 1 << 12},    // 2 words
      std::vector<int64_t>(12, 2049),                      // 3 words
      std::vector<int64_t>(12, int64_t{1} << 17),          // 4 words
      std::vector<int64_t>(12, int64_t{1} << 31),          // 6 words
  };
  const std::vector<size_t> words = {1, 2, 3, 4, 6};
  Rng rng(23);
  for (size_t l = 0; l < layouts.size(); ++l) {
    const ResultSet layout = Layout(layouts[l]);
    EXPECT_EQ(layout.key_words(), words[l]);
    // Sizes below and well above one in-cache run, so both the direct
    // comparison sort and the MSD partition are exercised.
    for (size_t rows : {size_t{300}, size_t{20000}}) {
      auto parts = RandomPositionParts(&rng, layout, layouts[l], 3, rows, 5);
      auto views = Views(parts);
      EXPECT_EQ(MergeInto(views, layout), Reference(views))
          << "layout " << l << " rows " << rows;
    }
  }
}

TEST(ResultSetLayoutTest, SkewedKeysSharingTopBits) {
  // Nearly every key shares its top columns, so one MSD bucket holds
  // almost everything and must be partitioned again below the common
  // prefix; a few outliers differ in column 0.
  const std::vector<int64_t> cards = {1 << 16, 1 << 10, 50, 1 << 14, 40};
  const ResultSet layout = Layout(cards);
  Rng rng(29);
  std::vector<std::unique_ptr<ResultSet>> parts;
  for (int p = 0; p < 4; ++p) {
    parts.push_back(std::make_unique<ResultSet>(layout.EmptyLike()));
  }
  for (int r = 0; r < 40000; ++r) {
    PosTuple t = {40000, 7, static_cast<int32_t>(rng.Uniform(50)),
                  static_cast<int32_t>(rng.Uniform(1 << 14)),
                  static_cast<int32_t>(rng.Uniform(40))};
    if (r % 5000 == 0) t[0] = static_cast<int32_t>(rng.Uniform(1 << 16));
    parts[rng.Uniform(parts.size())]->Append(t);
    if (r % 7 == 0) parts[rng.Uniform(parts.size())]->Append(t);  // re-emit
  }
  // A run of keys that all agree except in the last column.
  for (int r = 0; r < 3000; ++r) {
    parts[static_cast<size_t>(r % 4)]->Append(
        PosTuple{123, 45, 6, 789, static_cast<int32_t>(r % 40)});
  }
  auto views = Views(parts);
  EXPECT_EQ(MergeInto(views, layout), Reference(views));
}

TEST(ResultSetLayoutTest, MergeAppendsAfterExistingTuples) {
  const std::vector<int64_t> cards = {300, 1 << 20, 5};
  const ResultSet layout = Layout(cards);
  Rng rng(31);
  auto parts = RandomPositionParts(&rng, layout, cards, 4, 5000, 10);
  auto views = Views(parts);
  ResultSet out = layout.EmptyLike();
  out.Append(PosTuple{299, 7, 4});
  out.Append(PosTuple{0, 0, 0});
  ResultSet::MergeSortedUnique(views, &out);
  std::vector<PosTuple> expected = {{299, 7, 4}, {0, 0, 0}};
  for (const PosTuple& t : Reference(views)) expected.push_back(t);
  EXPECT_EQ(out.ToVector(), expected);
  EXPECT_EQ(out.size(), expected.size());
}

TEST(ResultSetLayoutTest, BytesAreExact) {
  for (const ResultSet& layout :
       {Layout({1 << 10, 1 << 10}), Layout(std::vector<int64_t>(12, 2049)),
        ResultSet(5)}) {
    const size_t key_bytes = layout.key_words() * sizeof(uint64_t);
    ResultSet rs = layout.EmptyLike();
    EXPECT_EQ(rs.bytes(), 0u);
    PosTuple t(static_cast<size_t>(layout.width()), 1);
    // Capacity grows geometrically: at least one key per tuple, never more
    // than twice what the tuples need (after the first small block).
    for (int i = 1; i <= 1000; ++i) {
      rs.Append(t);
      ASSERT_EQ(rs.bytes() % key_bytes, 0u);
      ASSERT_GE(rs.bytes(), rs.size() * key_bytes);
      ASSERT_LE(rs.bytes(), std::max<size_t>(2 * rs.size(), 16) * key_bytes);
    }
    // An export into an empty set allocates exactly one key per tuple.
    ResultSet out = layout.EmptyLike();
    ResultSet::MergeSortedUnique({&rs}, &out);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(out.bytes(), rs.size() * key_bytes);
  }
}

TEST(ResultSetLayoutTest, RandomLayoutsMatchReferenceForBothConstructors) {
  Rng rng(37);
  for (int round = 0; round < 40; ++round) {
    const int width = 1 + static_cast<int>(rng.Uniform(12));
    std::vector<int64_t> cards(static_cast<size_t>(width));
    for (int64_t& c : cards) {
      // Mostly small tables (few bits, many duplicates), some 0/1-bit
      // columns, some wide ones.
      const uint64_t kind = rng.Uniform(4);
      c = kind == 0 ? 1 + static_cast<int64_t>(rng.Uniform(2))
          : kind == 1 ? 1 + static_cast<int64_t>(rng.Uniform(8))
          : kind == 2 ? 1 + static_cast<int64_t>(rng.Uniform(5000))
                      : 1 + static_cast<int64_t>(rng.Uniform(INT32_MAX));
    }
    const size_t rows = round % 3 == 0 ? 4000 : 200;
    const int num_parts = 1 + static_cast<int>(rng.Uniform(4));
    // The same tuples through the cardinality layout and through the
    // any-int32 layout: both exports match the reference.
    const ResultSet packed = Layout(cards);
    auto parts = RandomPositionParts(&rng, packed, cards, num_parts, rows, 8);
    std::vector<std::unique_ptr<ResultSet>> wide;
    for (const auto& p : parts) {
      wide.push_back(std::make_unique<ResultSet>(width));
      p->ForEach([&](const int32_t* t) { wide.back()->Append(t); });
    }
    const std::vector<PosTuple> expected = Reference(Views(parts));
    EXPECT_EQ(MergeInto(Views(parts), packed), expected) << "round " << round;
    EXPECT_EQ(Merge(Views(wide), width), expected) << "round " << round;
  }
}

}  // namespace
}  // namespace skinner
