/** @file Unit tests for common/csv. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/csv.hh"

namespace adrias
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

class CsvTest : public ::testing::Test
{
  protected:
    // One file per test: ctest runs every discovered test in its own
    // process, in parallel under -j, so a shared name lets one test's
    // TearDown delete or overwrite another's file mid-test.
    std::string path =
        ::testing::TempDir() + "adrias_csv_test_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".csv";

    void TearDown() override { std::remove(path.c_str()); }
};

TEST_F(CsvTest, WritesPlainRows)
{
    {
        CsvWriter w(path);
        w.writeRow({"a", "b", "c"});
        w.writeRow({"1", "2", "3"});
        EXPECT_EQ(w.rowCount(), 2u);
        w.close();
    }
    EXPECT_EQ(slurp(path), "a,b,c\n1,2,3\n");
}

TEST_F(CsvTest, WritesNumericRows)
{
    {
        CsvWriter w(path);
        w.writeRow("label", {1.5, 2.25});
        w.close();
    }
    const std::string content = slurp(path);
    EXPECT_NE(content.find("label,"), std::string::npos);
    EXPECT_NE(content.find("1.5"), std::string::npos);
    EXPECT_NE(content.find("2.25"), std::string::npos);
}

TEST(CsvEscape, QuotesSpecialCharacters)
{
    EXPECT_EQ(CsvWriter::escape("plain"), "plain");
    EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvWriterErrors, UnwritablePathIsFatal)
{
    EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"), std::runtime_error);
}

TEST(ParseCsvLine, SplitsPlainCells)
{
    const auto cells = parseCsvLine("a,b,,c");
    ASSERT_TRUE(cells.ok());
    EXPECT_EQ(cells.value(),
              (std::vector<std::string>{"a", "b", "", "c"}));
}

TEST(ParseCsvLine, SingleCellAndEmptyLine)
{
    ASSERT_TRUE(parseCsvLine("solo").ok());
    EXPECT_EQ(parseCsvLine("solo").value().size(), 1u);
    // An empty line is one empty cell (RFC 4180 has no zero-cell row).
    EXPECT_EQ(parseCsvLine("").value(),
              std::vector<std::string>{""});
}

TEST(ParseCsvLine, RoundTripsEscapedCells)
{
    for (const std::string &original :
         {std::string("a,b"), std::string("say \"hi\""),
          std::string("plain"), std::string("trailing,")}) {
        const auto cells =
            parseCsvLine(CsvWriter::escape(original) + ",x");
        ASSERT_TRUE(cells.ok()) << original;
        ASSERT_EQ(cells.value().size(), 2u);
        EXPECT_EQ(cells.value()[0], original);
        EXPECT_EQ(cells.value()[1], "x");
    }
}

TEST(ParseCsvLine, RejectsMalformedQuoting)
{
    const auto unterminated = parseCsvLine("a,\"open");
    ASSERT_FALSE(unterminated.ok());
    EXPECT_EQ(unterminated.error().code, ErrorCode::BadSyntax);

    const auto trailing = parseCsvLine("\"ab\"c,d");
    ASSERT_FALSE(trailing.ok());
    EXPECT_EQ(trailing.error().code, ErrorCode::BadSyntax);

    const auto midcell = parseCsvLine("ab\"cd\"");
    ASSERT_FALSE(midcell.ok());
    EXPECT_EQ(midcell.error().code, ErrorCode::BadSyntax);
}

} // namespace
} // namespace adrias
