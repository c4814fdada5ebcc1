#include "storage/csv.h"

#include <cstdint>
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

namespace skinner {
namespace {

TEST(CsvLineTest, SimpleFields) {
  EXPECT_EQ(ParseCsvLine("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(ParseCsvLine("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(ParseCsvLine("", ','), (std::vector<std::string>{""}));
}

TEST(CsvLineTest, QuotedFields) {
  EXPECT_EQ(ParseCsvLine("\"a,b\",c", ','),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(ParseCsvLine("\"he said \"\"hi\"\"\",x", ','),
            (std::vector<std::string>{"he said \"hi\"", "x"}));
}

TEST(CsvLineTest, AlternateDelimiter) {
  EXPECT_EQ(ParseCsvLine("a|b", '|'), (std::vector<std::string>{"a", "b"}));
}

class CsvFileTest : public ::testing::Test {
 protected:
  std::string WriteTemp(const std::string& content) {
    std::string path =
        ::testing::TempDir() + "skinner_csv_test_" +
        std::to_string(reinterpret_cast<uintptr_t>(this)) + ".csv";
    std::ofstream out(path);
    out << content;
    return path;
  }
  StringPool pool_;
};

TEST_F(CsvFileTest, LoadWithHeader) {
  std::string path = WriteTemp("id,name,score\n1,ada,9.5\n2,bob,8.25\n");
  Table t("t",
          Schema({{"id", DataType::kInt64},
                  {"name", DataType::kString},
                  {"score", DataType::kDouble}}),
          &pool_);
  CsvOptions opts;
  ASSERT_TRUE(LoadCsv(path, &t, opts).ok());
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.column(1).GetValue(0, pool_).AsString(), "ada");
  EXPECT_DOUBLE_EQ(t.column(2).GetDouble(1), 8.25);
  std::remove(path.c_str());
}

TEST_F(CsvFileTest, NullMarkersAndEmpties) {
  std::string path = WriteTemp("1,\\N\n,x\n");
  Table t("t", Schema({{"a", DataType::kInt64}, {"b", DataType::kString}}),
          &pool_);
  CsvOptions opts;
  opts.has_header = false;
  ASSERT_TRUE(LoadCsv(path, &t, opts).ok());
  EXPECT_TRUE(t.column(1).IsNull(0));
  EXPECT_TRUE(t.column(0).IsNull(1));
  std::remove(path.c_str());
}

TEST_F(CsvFileTest, BadNumericIsError) {
  std::string path = WriteTemp("a\nnot_a_number\n");
  Table t("t", Schema({{"a", DataType::kInt64}}), &pool_);
  CsvOptions opts;
  Status st = LoadCsv(path, &t, opts);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST_F(CsvFileTest, OutOfRangeNumericIsErrorNotClamped) {
  CsvOptions opts;
  {
    std::string path = WriteTemp("a\n99999999999999999999\n");
    Table t("t", Schema({{"a", DataType::kInt64}}), &pool_);
    Status st = LoadCsv(path, &t, opts);
    EXPECT_EQ(st.code(), StatusCode::kParseError);
    EXPECT_NE(st.message().find("99999999999999999999"), std::string::npos);
    EXPECT_EQ(t.num_rows(), 0);
    std::remove(path.c_str());
  }
  {
    std::string path = WriteTemp("d\n-1e999\n");
    Table t("t", Schema({{"d", DataType::kDouble}}), &pool_);
    EXPECT_EQ(LoadCsv(path, &t, opts).code(), StatusCode::kParseError);
    std::remove(path.c_str());
  }
  {
    // Int64 bounds load exactly; a double underflow rounds toward zero.
    std::string path = WriteTemp(
        "a,d\n-9223372036854775808,1e-999\n9223372036854775807,2.5\n");
    Table t("t", Schema({{"a", DataType::kInt64}, {"d", DataType::kDouble}}),
            &pool_);
    ASSERT_TRUE(LoadCsv(path, &t, opts).ok());
    EXPECT_EQ(t.column(0).GetInt(0), INT64_MIN);
    EXPECT_EQ(t.column(0).GetInt(1), INT64_MAX);
    EXPECT_EQ(t.column(1).GetDouble(0), 0.0);
    std::remove(path.c_str());
  }
}

TEST_F(CsvFileTest, FieldCountMismatchIsError) {
  std::string path = WriteTemp("a,b\n1\n");
  Table t("t", Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}),
          &pool_);
  CsvOptions opts;
  EXPECT_FALSE(LoadCsv(path, &t, opts).ok());
  std::remove(path.c_str());
}

TEST_F(CsvFileTest, MissingFileIsIoError) {
  Table t("t", Schema({{"a", DataType::kInt64}}), &pool_);
  CsvOptions opts;
  EXPECT_EQ(LoadCsv("/nonexistent/path.csv", &t, opts).code(),
            StatusCode::kIoError);
}

TEST_F(CsvFileTest, CrLfLineEndings) {
  std::string path = WriteTemp("a\r\n1\r\n2\r\n");
  Table t("t", Schema({{"a", DataType::kInt64}}), &pool_);
  CsvOptions opts;
  ASSERT_TRUE(LoadCsv(path, &t, opts).ok());
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.column(0).GetInt(1), 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace skinner
