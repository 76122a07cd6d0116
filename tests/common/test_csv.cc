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

} // namespace
} // namespace adrias
