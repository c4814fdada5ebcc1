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

}  // namespace
}  // namespace skinner
