/** @file Unit tests for the typed error/Result machinery. */

#include <gtest/gtest.h>

#include "common/error.hh"

namespace adrias
{
namespace
{

TEST(ErrorCodeNames, AreStable)
{
    EXPECT_EQ(errorCodeName(ErrorCode::Io), "io");
    EXPECT_EQ(errorCodeName(ErrorCode::BadNumber), "bad-number");
    EXPECT_EQ(errorCodeName(ErrorCode::Truncated), "truncated");
}

TEST(ErrorToString, CarriesCodeAndMessage)
{
    const Error error = makeError(ErrorCode::BadHeader, "no magic");
    EXPECT_EQ(error.toString(), "[bad-header] no magic");
}

TEST(ResultOfValue, HoldsValueOrError)
{
    Result<int> good = 42;
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);
    EXPECT_EQ(good.valueOr(0), 42);
    EXPECT_EQ(good.expect(), 42);

    Result<int> bad = makeError(ErrorCode::Truncated, "short");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::Truncated);
    EXPECT_EQ(bad.valueOr(-1), -1);
    EXPECT_THROW((void)bad.expect(), std::runtime_error);
    // Accessing the wrong side is a programming error.
    EXPECT_THROW((void)bad.value(), std::logic_error);
    EXPECT_THROW((void)good.error(), std::logic_error);
}

TEST(ResultOfVoid, SuccessAndFailure)
{
    const Result<void> good;
    EXPECT_TRUE(good.ok());
    EXPECT_NO_THROW(good.expect());
    EXPECT_THROW((void)good.error(), std::logic_error);

    const Result<void> bad = makeError(ErrorCode::Io, "nope");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::Io);
    EXPECT_THROW((void)bad.expect(), std::runtime_error);
}

TEST(ParseSize, AcceptsExactIntegers)
{
    EXPECT_EQ(parseSize("0").value(), 0u);
    EXPECT_EQ(parseSize("12").value(), 12u);
}

TEST(ParseSize, RejectsJunkNegativesAndOverflow)
{
    for (const char *text :
         {"", "-1", "1.5", "12abc", " 7", "99999999999999999999999"}) {
        const Result<std::size_t> parsed = parseSize(text);
        EXPECT_FALSE(parsed.ok()) << "'" << text << "'";
    }
}

} // namespace
} // namespace adrias
