/** @file Unit tests for common/table. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/table.hh"

namespace adrias
{
namespace
{

TEST(TextTable, HeaderOnlyRendersUnderline)
{
    TextTable t({"a", "bb"});
    const std::string s = t.toString();
    EXPECT_NE(s.find("a"), std::string::npos);
    EXPECT_NE(s.find("bb"), std::string::npos);
    EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchIsFatal)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::runtime_error);
}

TEST(TextTable, EmptyHeaderIsFatal)
{
    EXPECT_THROW(TextTable({}), std::runtime_error);
}

TEST(TextTable, NumericRowFormatsWithPrecision)
{
    TextTable t({"name", "x", "y"});
    t.addRow("row", {1.23456, 2.0}, 2);
    const std::string s = t.toString();
    EXPECT_NE(s.find("1.23"), std::string::npos);
    EXPECT_NE(s.find("2.00"), std::string::npos);
}

TEST(TextTable, ColumnsAreAligned)
{
    TextTable t({"n", "value"});
    t.addRow({"shrt", "1"});
    t.addRow({"a-much-longer-label", "2"});
    const std::string s = t.toString();
    // Both "1" and "2" cells must start at the same column.
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < s.size()) {
        const auto nl = s.find('\n', pos);
        lines.push_back(s.substr(pos, nl - pos));
        pos = nl + 1;
    }
    ASSERT_GE(lines.size(), 4u);
    EXPECT_EQ(lines[2].find('1'), lines[3].find('2'));
}

TEST(FormatDouble, RendersNaNAsNotAvailable)
{
    // Empty-sample statistics are NaN by contract; tables must show
    // them as "n/a", not as a number-like token.
    EXPECT_EQ(formatDouble(std::nan(""), 2), "n/a");
}

TEST(FormatDouble, FixedPrecision)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(2.0, 0), "2");
}

} // namespace
} // namespace adrias
