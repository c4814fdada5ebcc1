#include "common/str_util.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

namespace skinner {
namespace {

TEST(StrUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StrUtilTest, JoinRoundTrips) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StrUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("SeLeCt"), "SELECT");
  EXPECT_EQ(ToLower("123_x"), "123_x");
}

TEST(StrUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
}

TEST(StrUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%05d", 42), "00042");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StrUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_FALSE(StartsWith("ab", "abc"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(LikeMatchTest, ExactAndWildcards) {
  EXPECT_TRUE(LikeMatch("hello", "hello"));
  EXPECT_FALSE(LikeMatch("hello", "hell"));
  EXPECT_TRUE(LikeMatch("hello", "h%"));
  EXPECT_TRUE(LikeMatch("hello", "%o"));
  EXPECT_TRUE(LikeMatch("hello", "%ell%"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_FALSE(LikeMatch("hello", "h_lo"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
}

TEST(LikeMatchTest, ConsecutivePercents) {
  EXPECT_TRUE(LikeMatch("abc", "%%c"));
  EXPECT_TRUE(LikeMatch("abc", "a%%"));
  EXPECT_TRUE(LikeMatch("STANDARD BRASS", "%BRASS"));
  EXPECT_FALSE(LikeMatch("STANDARD BRASSY", "%BRASS"));
}

TEST(LikeMatchTest, PathologicalBacktracking) {
  // Many wildcards should still terminate (exponential-blowup guard).
  EXPECT_TRUE(LikeMatch("aaaaaaaaaaaaaaaaaaab", "%a%a%a%a%b"));
  EXPECT_FALSE(LikeMatch("aaaaaaaaaaaaaaaaaaaa", "%a%a%a%a%b"));
}

TEST(LikeMatchTest, ManyWildcardsStayPolynomial) {
  // A matcher that recurses at every '%' explores ~C(200, 30) splits on the
  // failing cases below and never finishes; the two-pointer matcher is
  // O(|value| * |pattern|).
  std::string pattern;
  for (int i = 0; i < 30; ++i) pattern += "%a";
  const std::string as(200, 'a');
  EXPECT_TRUE(LikeMatch(as, pattern));
  EXPECT_FALSE(LikeMatch(as + "b", pattern));
  EXPECT_FALSE(LikeMatch(as, pattern + "%b"));
  EXPECT_FALSE(LikeMatch(std::string(29, 'a'), pattern));
}

/// Reference LIKE: the textbook O(|v| * |p|) dynamic program.
bool LikeMatchDp(const std::string& v, const std::string& p) {
  // m[j] = does v[0, i) match p[0, j) for the current row i.
  std::vector<bool> m(p.size() + 1, false);
  m[0] = true;
  for (size_t j = 1; j <= p.size(); ++j) m[j] = m[j - 1] && p[j - 1] == '%';
  for (size_t i = 1; i <= v.size(); ++i) {
    std::vector<bool> next(p.size() + 1, false);
    for (size_t j = 1; j <= p.size(); ++j) {
      const char c = p[j - 1];
      if (c == '%') {
        next[j] = next[j - 1] || m[j];
      } else {
        next[j] = m[j - 1] && (c == '_' || c == v[i - 1]);
      }
    }
    m = std::move(next);
  }
  return m[p.size()];
}

TEST(LikeMatchTest, AgreesWithDynamicProgramOnRandomInputs) {
  std::mt19937 rng(1234);
  const char kValueChars[] = "ab";
  const char kPatternChars[] = "ab%_";
  for (int iter = 0; iter < 20000; ++iter) {
    std::string v(rng() % 9, ' ');
    for (char& c : v) c = kValueChars[rng() % 2];
    std::string p(rng() % 7, ' ');
    for (char& c : p) c = kPatternChars[rng() % 4];
    ASSERT_EQ(LikeMatch(v, p), LikeMatchDp(v, p))
        << "value '" << v << "' pattern '" << p << "'";
  }
}

}  // namespace
}  // namespace skinner
